"""Closed-form EM estimation of the mixed-covariate degradation model.

Treating the per-unit latent vectors as missing data makes every update
closed form: the E-step is Gaussian conditioning per unit, the M-step is a
least-squares solve for the regression coefficients followed by moment
updates for the two variance components.  The convergence trace records the
marginal log-likelihood, which each full iteration provably does not
decrease.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fpca as fpca_mod
from .data import DegradationDataset, ModelConfig
from .design import DesignMatrices, ZetaLayout, build_design_matrices, unit_sums

_SIGMA_EPS_FLOOR = 1e-16
_SIGMA_GAMMA_EIG_FLOOR = 1e-12  # relative to trace


class NumericalError(RuntimeError):
    """Raised when an update or likelihood evaluation loses finiteness."""


@dataclass(frozen=True)
class Parameters:
    """Estimable parameters: coefficients, noise variance, latent covariance."""

    zeta: np.ndarray
    sigma_eps2: float
    sigma_gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "zeta", np.asarray(self.zeta, dtype=float))
        object.__setattr__(self, "sigma_eps2", float(self.sigma_eps2))
        sg = np.asarray(self.sigma_gamma, dtype=float)
        if sg.ndim != 2 or sg.shape[0] != sg.shape[1]:
            raise ValueError("sigma_gamma must be a square matrix")
        object.__setattr__(self, "sigma_gamma", sg)
        if self.sigma_eps2 <= 0:
            raise ValueError("sigma_eps2 must be positive")

    @property
    def latent_dim(self) -> int:
        return self.sigma_gamma.shape[0]


@dataclass(frozen=True)
class LatentPosterior:
    """Per-unit conditional moments of the latent vector: mu (N, d), v (N, d, d)."""

    mu: np.ndarray
    v: np.ndarray

    @property
    def second_moments(self) -> np.ndarray:
        """E[gamma gamma^T | data] per unit: V_i + mu_i mu_i^T."""
        return self.v + self.mu[:, :, None] * self.mu[:, None, :]


@dataclass(frozen=True)
class FitResult:
    """Fitted model bundle: estimates, posteriors, trace, and fit context."""

    params: Parameters
    posterior: LatentPosterior
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    config: ModelConfig
    layout: ZetaLayout
    unit_ids: tuple
    r_support: float
    scores: np.ndarray | None
    fpca_models: tuple | None
    design: DesignMatrices | None = None  # what the fit ran on; None when read back from a report

    def __post_init__(self):
        object.__setattr__(self, "_index", {uid: i for i, uid in enumerate(self.unit_ids)})

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])

    def unit_index(self, unit_id: str) -> int | None:
        return self._index.get(unit_id)


def _floored_sigma_gamma_inv(sigma_gamma: np.ndarray) -> np.ndarray:
    """Invert after flooring eigenvalues at a trace-relative level."""
    sg = (sigma_gamma + sigma_gamma.T) / 2.0
    evals, evecs = np.linalg.eigh(sg)
    floor = _SIGMA_GAMMA_EIG_FLOOR * float(np.trace(sg))
    evals = np.maximum(evals, floor)
    if np.any(evals <= 0.0):
        raise NumericalError("singular sigma_gamma after flooring")
    return (evecs / evals[None, :]) @ evecs.T


def _solve_zeta(dm: DesignMatrices, rhs: np.ndarray, ridge: bool) -> np.ndarray:
    if ridge:
        gram = dm.omega.T @ dm.omega
        jitter = 1e-8 * np.trace(gram) / dm.layout.size
        return np.linalg.solve(gram + jitter * np.eye(dm.layout.size), dm.omega.T @ rhs)
    return np.linalg.lstsq(dm.omega, rhs, rcond=None)[0]


def init_params(dm: DesignMatrices, config: ModelConfig) -> Parameters:
    """OLS start: zeta from least squares, residual variance, 0.1-scaled prior."""
    zeta0 = _solve_zeta(dm, dm.y, config.ridge_jitter)
    resid = dm.y - dm.omega @ zeta0
    sigma0 = float(resid @ resid) / dm.n_obs
    d = dm.layout.latent_dim
    sigma_gamma0 = 0.1 * max(sigma0, _SIGMA_EPS_FLOOR) * np.eye(d)
    return Parameters(zeta0, max(sigma0, _SIGMA_EPS_FLOOR), sigma_gamma0)


def e_step(params: Parameters, dm: DesignMatrices) -> LatentPosterior:
    """Conditional latent moments of every unit at once.

    V_i = (sigma_gamma^-1 + Lambda_i^T Lambda_i / sigma_eps2)^-1 and
    mu_i = V_i Lambda_i^T (y_i - Omega_i zeta) / sigma_eps2.
    """
    sg_inv = _floored_sigma_gamma_inv(params.sigma_gamma)
    v = np.linalg.inv(sg_inv + dm.lam_gram / params.sigma_eps2)
    v = (v + np.swapaxes(v, 1, 2)) / 2.0
    b = unit_sums(dm.lam * (dm.y - dm.omega @ params.zeta)[:, None], dm.counts)
    mu = (v @ b[:, :, None])[:, :, 0] / params.sigma_eps2
    return LatentPosterior(mu=mu, v=v)


def update_zeta(posterior: LatentPosterior, dm: DesignMatrices, ridge: bool = False) -> np.ndarray:
    """Coefficient update: least squares on the latent-adjusted response."""
    return _solve_zeta(dm, dm.y - dm.latent_mean(posterior.mu), ridge)


def update_sigma_gamma(posterior: LatentPosterior, constrain_diagonal: bool = False) -> np.ndarray:
    """Latent covariance update: average posterior second moment over units."""
    sg = posterior.second_moments.mean(axis=0)
    sg = (sg + sg.T) / 2.0
    if constrain_diagonal:
        sg = np.diag(np.diag(sg))
    return sg


def update_sigma_eps(posterior: LatentPosterior, zeta: np.ndarray, dm: DesignMatrices) -> float:
    """Noise variance update: (r^T r - 2 sum_i b_i . mu_i + sum_i tr(G_i E_i)) / n
    with b_i = Lambda_i^T r_i, G_i = Lambda_i^T Lambda_i, E_i = E[gamma_i gamma_i^T]."""
    resid = dm.y - dm.omega @ zeta
    b = unit_sums(dm.lam * resid[:, None], dm.counts)
    total = float(resid @ resid) - 2.0 * float(np.sum(b * posterior.mu))
    total += float(np.einsum("nab,nba->", dm.lam_gram, posterior.second_moments))
    return max(total / dm.n_obs, _SIGMA_EPS_FLOOR)


def marginal_loglik(params: Parameters, dm: DesignMatrices) -> float:
    """Sum over units of the Gaussian log density with covariance
    C_i = Lambda_i Sigma_gamma Lambda_i^T + sigma_eps2 I, through the d x d
    matrices A_i = sigma_eps2 I + Sigma_gamma G_i: log|C_i| = log|A_i| +
    (m_i - d) log sigma_eps2 (determinant lemma) and, by Woodbury,
    r_i^T C_i^-1 r_i = (r_i^T r_i - b_i^T A_i^-1 Sigma_gamma b_i) / sigma_eps2."""
    s2 = params.sigma_eps2
    resid = dm.y - dm.omega @ params.zeta
    logdet = dm.n_obs * np.log(s2)
    quad = float(resid @ resid)
    d = params.latent_dim
    if d:
        a = s2 * np.eye(d) + params.sigma_gamma @ dm.lam_gram
        # C_i is positive definite iff every (real) eigenvalue of A_i is positive;
        # the determinant's sign alone misses an even number of negative ones
        bad = np.flatnonzero(np.any(np.linalg.eigvals(a).real <= 0.0, axis=1))
        if bad.size:
            raise NumericalError(f"non-PSD marginal covariance for unit {dm.unit_ids[bad[0]]}")
        logdet += float(np.sum(np.linalg.slogdet(a)[1])) - dm.n_units * d * np.log(s2)
        b = unit_sums(dm.lam * resid[:, None], dm.counts)
        sb = (b @ params.sigma_gamma.T)[:, :, None]
        quad -= float(np.sum(b * np.linalg.solve(a, sb)[:, :, 0]))
    return -0.5 * (dm.n_obs * np.log(2.0 * np.pi) + logdet + quad / s2)


def _fit_scores(ds: DegradationDataset, config: ModelConfig):
    """FPCA per functional covariate with a truncation shared across covariates."""
    curves_by_s = [ds.curves[:, s] for s in range(ds.n_functional)]
    models = [fpca_mod.fit_fpca(c, ds.r_grid) for c in curves_by_s]
    if config.k is not None:
        k = int(config.k)
    else:
        k = max(fpca_mod.select_k_by_fve(m, config.fve_threshold) for m in models)
    k = min(k, min(m.eigenvalues.size for m in models))
    models = [fpca_mod.with_k(m, k) for m in models]
    scores = np.stack([fpca_mod.project_scores(m, c) for m, c in zip(models, curves_by_s)], axis=1)
    return tuple(models), scores


def fit_em(
    ds: DegradationDataset,
    config: ModelConfig,
    max_iter: int = 500,
    tol: float = 1e-8,
    scores: np.ndarray | None = None,
    init: Parameters | None = None,
) -> FitResult:
    """Fit the model by EM (or by direct least squares when no latent term).

    Per iteration: E-step, then the zeta, sigma_gamma and sigma_eps2 updates
    in that order.  Stops when the relative marginal log-likelihood change
    drops below ``tol`` (``tol=0`` disables early stopping) or at
    ``max_iter``.  Passing ``scores`` skips the internal FPCA.  A failure
    inside numpy's linear algebra surfaces as ``NumericalError``, not as the
    ``ValueError`` subclass numpy raises, so it is not taken for bad input.
    """
    try:
        return _fit_em(ds, config, max_iter, tol, scores, init)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"linear algebra failure: {exc}") from exc


def _fit_em(ds, config, max_iter, tol, scores, init) -> FitResult:
    if isinstance(scores, fpca_mod.ScoreSet):
        scores = scores.values
    fpca_models = None
    if config.include_functional:
        if ds.n_functional < 1:
            raise ValueError("config includes functional covariates but dataset has none")
        if scores is None:
            fpca_models, scores = _fit_scores(ds, config)
        else:
            scores = np.asarray(scores, dtype=float)
    else:
        scores = None

    dm = build_design_matrices(ds, config, scores=scores)
    common = dict(config=config, layout=dm.layout, unit_ids=dm.unit_ids,
                  r_support=ds.r_support, scores=scores, fpca_models=fpca_models, design=dm)

    if not config.include_latent:
        ols = init_params(dm, config)
        params = Parameters(ols.zeta, ols.sigma_eps2, np.zeros((0, 0)))
        posterior = LatentPosterior(np.zeros((dm.n_units, 0)), np.zeros((dm.n_units, 0, 0)))
        return FitResult(params, posterior, np.array([marginal_loglik(params, dm)]), 0, True,
                         **common)

    params = init if init is not None else init_params(dm, config)
    trace = [marginal_loglik(params, dm)]
    converged = False
    iterations = 0
    for tau in range(1, max_iter + 1):
        posterior = e_step(params, dm)
        zeta = update_zeta(posterior, dm, ridge=config.ridge_jitter)
        sigma_gamma = update_sigma_gamma(posterior, config.constrain_sigma_gamma_diagonal)
        sigma_eps2 = update_sigma_eps(posterior, zeta, dm)
        params = Parameters(zeta, sigma_eps2, sigma_gamma)
        ll = marginal_loglik(params, dm)
        if not np.isfinite(ll):
            raise NumericalError(f"non-finite log-likelihood at iteration {tau}")
        trace.append(ll)
        iterations = tau
        if tol > 0:
            rel = abs(trace[-1] - trace[-2]) / max(abs(trace[-1]), 1e-12)
            if rel < tol:
                converged = True
                break

    return FitResult(params, e_step(params, dm), np.asarray(trace), iterations, converged,
                     **common)
