"""Closed-form EM estimation of the mixed-covariate degradation model.

Treating the per-unit latent vectors as missing data makes every update
closed form: the E-step is Gaussian conditioning per unit, the M-step is a
least-squares solve for the regression coefficients followed by moment
updates for the two variance components.

The fit runs parameter-expanded EM (PX-EM, Liu, Rubin & Wu 1998): each step
also solves for a d x d working parameter that rescales the latent vectors,
which keeps EM from crawling when a latent variance sits near zero.  SQUAREM
(Varadhan & Roland 2008) extrapolates along two PX steps and falls back to
the plain second step whenever the extrapolated point is not a covariance or
lowers the marginal log-likelihood, so the convergence trace does not
decrease beyond rounding.  One exception is known: in an order-2 fit whose
Sigma_gamma sits at its eigenvalue floor, the accepted fall-back step can
lower the log-likelihood, by up to 1.4e-8 (4.6e-11 relative) in ragged
60-unit fits at tol=0.  The tests gate their fits' traces at drops of
1e-8; ROADMAP item 5c will mend the exception.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .data import DegradationDataset, ModelConfig
from .design import DesignMatrices, ZetaLayout, build_design_matrices
from .fpca import fit_scores

_SIGMA_EPS_FLOOR = 1e-16
_SIGMA_GAMMA_EIG_FLOOR = 1e-12  # relative to trace (E-step) or to the noise scale (fit)
# SQUAREM: the step length's cap starts at 1 and moves by this factor; no
# extrapolation once a cycle moves the scaled parameters less than _MIN_STEP
_STEP_FACTOR = 4.0
_MIN_STEP = 1e-8


class NumericalError(RuntimeError):
    """Raised when an update or likelihood evaluation loses finiteness."""


class ConvergenceWarning(UserWarning):
    """Issued when a fit with early stopping enabled runs to ``max_iter``."""


@contextmanager
def _linalg_failures():
    """Re-raise a failure inside numpy's linear algebra as NumericalError,
    not as the ValueError subclass numpy raises, so it is not taken for bad
    input."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"linear algebra failure: {exc}") from exc


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
    converged: bool  # False when the fit ran to max_iter
    config: ModelConfig
    layout: ZetaLayout
    unit_ids: tuple
    r_support: float
    scores: np.ndarray | None
    fpca_models: tuple | None

    def __post_init__(self):
        object.__setattr__(self, "_index", {uid: i for i, uid in enumerate(self.unit_ids)})

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])

    @property
    def stop_reason(self) -> str:
        """Why EM stopped: ``"converged"`` or ``"max_iter"``."""
        return "converged" if self.converged else "max_iter"

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


def _solve_zeta(dm: DesignMatrices, rhs: np.ndarray) -> np.ndarray:
    b, t, piv = dm.omega_factor
    zeta = np.empty(dm.layout.size)
    # without the ridge t is upper triangular, and LU with partial pivoting
    # swaps no rows of it, so this is a back substitution
    zeta[piv] = np.linalg.solve(t, b.T @ rhs.reshape(-1))
    return zeta


def init_params(dm: DesignMatrices) -> Parameters:
    """OLS start: zeta from least squares, residual variance, 0.1-scaled prior."""
    zeta0 = _solve_zeta(dm, dm.y)
    sigma0 = dm.residual(zeta0)[0] / dm.n_obs
    d = dm.layout.n_levels
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
    b = dm.residual(params.zeta)[1]
    mu = (v @ b[:, :, None])[:, :, 0] / params.sigma_eps2
    return LatentPosterior(mu=mu, v=v)


def update_zeta(posterior: LatentPosterior, dm: DesignMatrices) -> np.ndarray:
    """Coefficient update: least squares on the latent-adjusted response."""
    return _solve_zeta(dm, dm.y - dm.latent_mean(posterior.mu))


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
    rss, b = dm.residual(zeta)
    total = rss - 2.0 * float(np.sum(b * posterior.mu))
    total += float(np.einsum("nab,nba->", dm.lam_gram, posterior.second_moments))
    return max(total / dm.n_obs, _SIGMA_EPS_FLOOR)


def marginal_loglik(params: Parameters, dm: DesignMatrices) -> float:
    """Sum over units of the Gaussian log density with covariance
    C_i = Lambda_i Sigma_gamma Lambda_i^T + sigma_eps2 I, through d x d
    matrices: log|C_i| = log|A_i| + (m_i - d) log sigma_eps2 with
    A_i = sigma_eps2 I + Sigma_gamma G_i (determinant lemma) and, by Woodbury,
    r_i^T C_i^-1 r_i = (r_i^T r_i - b_i^T A_i^-1 Sigma_gamma b_i) / sigma_eps2.

    When Sigma_gamma = L L^T is positive semidefinite, one batched Cholesky
    factor K_i of the symmetric B_i = sigma_eps2 I + L^T G_i L, which has
    A_i's determinant, gives both terms: b_i^T A_i^-1 Sigma_gamma b_i is
    |K_i^-1 L^T b_i|^2.  Otherwise C_i is positive definite iff every (real)
    eigenvalue of A_i is positive."""
    s2 = params.sigma_eps2
    quad, b = dm.residual(params.zeta)
    logdet = dm.n_obs * np.log(s2)
    d = params.latent_dim
    if d:
        evals, evecs = np.linalg.eigh(params.sigma_gamma)
        if evals.min() >= 0.0:
            root = evecs * np.sqrt(evals)
            chol = np.linalg.cholesky(s2 * np.eye(d) + root.T @ dm.lam_gram @ root)
            logdet += 2.0 * float(np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2))))
            quad -= float(np.sum(np.linalg.solve(chol, (b @ root)[:, :, None]) ** 2))
        else:
            a = s2 * np.eye(d) + params.sigma_gamma @ dm.lam_gram
            # the determinant's sign alone misses an even number of negative eigenvalues
            bad = np.flatnonzero(np.any(np.linalg.eigvals(a).real <= 0.0, axis=1))
            if bad.size:
                raise NumericalError(f"non-PSD marginal covariance for unit {dm.unit_ids[bad[0]]}")
            logdet += float(np.sum(np.linalg.slogdet(a)[1]))
            sb = (b @ params.sigma_gamma.T)[:, :, None]
            quad -= float(np.sum(b * np.linalg.solve(a, sb)[:, :, 0]))
        logdet -= dm.n_units * d * np.log(s2)
    return -0.5 * (dm.n_obs * np.log(2.0 * np.pi) + logdet + quad / s2)


def fit_em(
    ds: DegradationDataset,
    config: ModelConfig,
    max_iter: int = 500,
    tol: float = 1e-8,
    scores: np.ndarray | None = None,
    init: Parameters | None = None,
) -> FitResult:
    """Fit the model by EM (or by direct least squares when no latent term).

    Each iteration is one SQUAREM cycle over PX-EM steps (E-step, working
    parameter, then the zeta, sigma_gamma and sigma_eps2 updates).  EM stops
    when the relative marginal log-likelihood change is below ``tol`` and
    the relative parameter change is below sqrt(``tol``); ``tol=0`` disables
    early stopping.  A fit that reaches ``max_iter`` with early stopping
    enabled issues a ``ConvergenceWarning``.  Passing ``scores`` skips the
    internal FPCA.  EM starts from ``init`` when given, whose zeta must have
    the layout's length and sigma_gamma be d x d; a fit without a latent
    term is closed form and does not start from ``init``.  A failure inside
    numpy's linear algebra surfaces as ``NumericalError``
    (``_linalg_failures``).
    """
    check_stopping(max_iter, tol)
    with _linalg_failures():
        fit = _fit_em(ds, config, max_iter, tol, scores, init)
    if tol > 0 and not fit.converged:
        warnings.warn(f"EM stopped at max_iter={max_iter} without converging",
                      ConvergenceWarning, stacklevel=2)
    return fit


def check_stopping(max_iter: int, tol: float) -> None:
    """Raise unless ``max_iter`` is an integer >= 0 (a bool is none) and
    ``tol`` a finite number >= 0 (0 disables early stopping; NaN or a
    negative ``tol`` would silently disable it too, and an infinite one stop
    after one iteration)."""
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def _px_sums(dm: DesignMatrices) -> tuple:
    """Per-unit sums the working-parameter solve reads, built once per fit:
    Lambda_i^T y_i (N, d), Lambda_i^T B_i (N, d, p) and B^T y (p,), where
    B B^T projects on Omega's columns (``DesignMatrices.projection_basis``)."""
    basis = dm.projection_basis()
    # in C order: the einsum of _working_parameter rounds by its operands' layout
    lam_b = np.sum(np.multiply(dm.lam[:, :, :, None], basis[:, :, None, :], order="C"), axis=1)
    return (np.sum(dm.lam * dm.y[:, :, None], axis=1), lam_b,
            basis.reshape(dm.y.size, -1).T @ dm.y.reshape(-1))


def _working_parameter(posterior: LatentPosterior, dm: DesignMatrices, sums: tuple,
                       diagonal: bool) -> np.ndarray:
    """The d x d working parameter A of PX-EM: the expected least-squares
    regression of y on Lambda_i A gamma_i with Omega projected out.  A is
    diagonal under the diagonal constraint, which Sigma_gamma then keeps."""
    lam_y, lam_b, b_y = sums
    d = posterior.mu.shape[1]
    # regressor of A[a, c] on a row of unit i: Lambda_i[:, a] gamma_i[c]
    gram = np.einsum("nab,ncd->acbd", dm.lam_gram, posterior.second_moments).reshape(d * d, -1)
    cross = np.einsum("nak,nc->ack", lam_b, posterior.mu).reshape(d * d, -1)
    lhs = gram - cross @ cross.T
    rhs = np.einsum("na,nc->ac", lam_y, posterior.mu).reshape(-1) - cross @ b_y
    if diagonal:
        keep = np.arange(d) * (d + 1)
        return np.diag(np.linalg.solve(lhs[np.ix_(keep, keep)], rhs[keep]))
    return np.linalg.solve(lhs, rhs).reshape(d, d)


def _noise_floored(sigma_gamma: np.ndarray, floor: float, diagonal: bool) -> np.ndarray:
    """Sigma_gamma with its eigenvalues raised to ``floor``, so a component
    shrinking to its zero boundary never reaches an exactly singular 0."""
    if diagonal:
        return np.diag(np.maximum(np.diag(sigma_gamma), floor))
    evals, evecs = np.linalg.eigh(sigma_gamma)
    if evals.min() >= floor:
        return sigma_gamma
    sg = (evecs * np.maximum(evals, floor)) @ evecs.T
    return (sg + sg.T) / 2.0


def _px_step(params: Parameters, dm: DesignMatrices, config: ModelConfig, sums: tuple,
             g_bar: float) -> Parameters:
    """One PX-EM step: E-step, working parameter A, then the M-step updates
    on the posterior rescaled to mu_i -> A mu_i, V_i -> A V_i A^T."""
    diagonal = config.constrain_sigma_gamma_diagonal
    posterior = e_step(params, dm)
    a = _working_parameter(posterior, dm, sums, diagonal)
    posterior = LatentPosterior(posterior.mu @ a.T, a @ posterior.v @ a.T)
    zeta = update_zeta(posterior, dm)
    sigma_gamma = update_sigma_gamma(posterior, diagonal)
    sigma_eps2 = update_sigma_eps(posterior, zeta, dm)
    floor = _SIGMA_GAMMA_EIG_FLOOR * sigma_eps2 / g_bar
    return Parameters(zeta, sigma_eps2, _noise_floored(sigma_gamma, floor, diagonal))


def _scaled(params: Parameters, sigma0: float) -> np.ndarray:
    """The parameters as one vector free of the response scale:
    (zeta / sqrt(sigma0), sigma_eps2 / sigma0, Sigma_gamma / sigma0)."""
    return np.concatenate([params.zeta / np.sqrt(sigma0), [params.sigma_eps2 / sigma0],
                           params.sigma_gamma.ravel() / sigma0])


def _extrapolate(p0: Parameters, p1: Parameters, p2: Parameters, alpha: float):
    """SQUAREM's point p0 + 2 alpha r + alpha^2 v with r = p1 - p0 and
    v = p2 - 2 p1 + p0, or None when it is not a valid parameter set."""
    def at(x0, x1, x2):
        return x0 + 2.0 * alpha * (x1 - x0) + alpha ** 2 * (x2 - 2.0 * x1 + x0)

    sigma_eps2 = at(p0.sigma_eps2, p1.sigma_eps2, p2.sigma_eps2)
    sigma_gamma = at(p0.sigma_gamma, p1.sigma_gamma, p2.sigma_gamma)
    if not (sigma_eps2 > 0.0 and np.linalg.eigvalsh(sigma_gamma).min() > 0.0):
        return None
    return Parameters(at(p0.zeta, p1.zeta, p2.zeta), sigma_eps2, sigma_gamma)


def _squarem_cycle(params: Parameters, ll: float, step_max: float, px, loglik,
                   sigma0: float) -> tuple:
    """One SQUAREM cycle from ``params`` (log-likelihood ``ll``).

    Two PX steps give r and v; the extrapolation's step length |r| / |v|,
    measured on ``_scaled`` parameters, is clamped to [1, step_max] and its
    point gets one stabilising PX step.  If that point is not a covariance
    or lowers the log-likelihood, the cycle falls back to the second PX
    step.  The cap grows after a step accepted at it and shrinks after a
    fall back from it.  Returns (params, ll, step_max).
    """
    p1 = px(params)
    p2 = px(p1)
    t0, t1, t2 = (_scaled(p, sigma0) for p in (params, p1, p2))
    r_norm = float(np.linalg.norm(t1 - t0))
    if r_norm > _MIN_STEP:
        v_norm = float(np.linalg.norm(t2 - 2.0 * t1 + t0))
        alpha = min(max(r_norm / v_norm, 1.0), step_max) if v_norm > 0.0 else step_max
        accepted = alpha == 1.0
        if not accepted:
            candidate = _extrapolate(params, p1, p2, alpha)
            if candidate is not None:
                candidate = px(candidate)
                ll_new = loglik(candidate)
                accepted = ll_new >= ll
        if alpha == step_max:
            step_max = step_max * _STEP_FACTOR if accepted else max(step_max / _STEP_FACTOR, 1.0)
        if accepted and alpha > 1.0:
            return candidate, ll_new, step_max
    return p2, loglik(p2), step_max


def _relative_change(old: Parameters, new: Parameters, g_bar: float) -> float:
    """Largest relative change of zeta, sigma_eps2 and Sigma_gamma; the last
    on the response scale, relative to |Sigma_gamma| g_bar + sigma_eps2, so a
    component shrinking to zero counts as stopped once it no longer moves
    the fitted responses."""
    zeta = np.linalg.norm(new.zeta - old.zeta) / max(np.linalg.norm(new.zeta), 1e-300)
    noise = abs(new.sigma_eps2 - old.sigma_eps2) / new.sigma_eps2
    latent = (np.linalg.norm(new.sigma_gamma - old.sigma_gamma) * g_bar
              / (np.linalg.norm(new.sigma_gamma) * g_bar + new.sigma_eps2))
    return float(max(zeta, noise, latent))


def _start_loglik(params: Parameters, dm: DesignMatrices) -> float:
    """The marginal log-likelihood a fit starts from, which must be finite."""
    ll = marginal_loglik(params, dm)
    if not np.isfinite(ll):
        raise NumericalError("non-finite log-likelihood at iteration 0")
    return ll


def _fit_em(ds, config, max_iter, tol, scores, init) -> FitResult:
    fpca_models = None
    if config.include_functional:
        if ds.n_functional < 1:
            raise ValueError("config includes functional covariates but dataset has none")
        if scores is None:
            fpca_models, scores = fit_scores(ds.curves, ds.r_grid, config.k,
                                             config.fve_threshold)
        else:
            scores = np.asarray(scores, dtype=float)
    else:
        scores = None

    dm = build_design_matrices(ds, config, scores=scores)
    common = dict(config=config, layout=dm.layout, unit_ids=dm.unit_ids,
                  r_support=ds.r_support, scores=scores, fpca_models=fpca_models)

    if not config.include_latent:
        ols = init_params(dm)
        params = Parameters(ols.zeta, ols.sigma_eps2, np.zeros((0, 0)))
        posterior = LatentPosterior(np.zeros((dm.n_units, 0)), np.zeros((dm.n_units, 0, 0)))
        return FitResult(params, posterior, np.array([_start_loglik(params, dm)]), 0, True,
                         **common)

    if init is None:
        params = init_params(dm)
    else:
        p, d = dm.layout.size, dm.layout.n_levels
        if init.zeta.shape != (p,) or init.sigma_gamma.shape != (d, d):
            raise ValueError(f"init must have zeta of length {p} and a {d} x {d} sigma_gamma, "
                             f"got {init.zeta.shape} and {init.sigma_gamma.shape}")
        params = init
    sums = _px_sums(dm)
    g_bar = float(np.trace(dm.lam_gram.sum(axis=0))) / dm.n_obs  # mean |lambda_row|^2

    def px(p):
        return _px_step(p, dm, config, sums, g_bar)

    def loglik(p):
        return marginal_loglik(p, dm)

    trace = [_start_loglik(params, dm)]
    sigma0 = params.sigma_eps2
    step_max = 1.0
    converged = False
    iterations = 0
    for tau in range(1, max_iter + 1):
        new, ll, step_max = _squarem_cycle(params, trace[-1], step_max, px, loglik, sigma0)
        if not np.isfinite(ll):
            raise NumericalError(f"non-finite log-likelihood at iteration {tau}")
        trace.append(ll)
        iterations = tau
        params, old = new, params
        if tol > 0:
            rel = abs(trace[-1] - trace[-2]) / max(abs(trace[-1]), 1e-12)
            if rel < tol and _relative_change(old, params, g_bar) < np.sqrt(tol):
                converged = True
                break

    return FitResult(params, e_step(params, dm), np.asarray(trace), iterations, converged,
                     **common)
