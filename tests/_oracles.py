"""Independent brute-force oracles shared across the test suite.

Every function here recomputes a quantity by a route deliberately different
from the library implementation: exhaustive enumeration, generic Gaussian
conditioning, per-unit dense algebra, scalar search, naive quadrature, or
row-by-row CSV parsing and writing.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy import fft, linalg

from degramix.data import (
    DegradationDataset,
    UnitRecord,
    _malformed,
    _numbered_rows,
    _unit_sort_key,
    basis_columns,
)
from degramix.descriptors import ParticleSet, _floats, _particle_header
from degramix.design import DesignMatrices, layout_for
from degramix.estimator import (
    NumericalError,
    Parameters,
    e_step,
    update_sigma_eps,
    update_sigma_gamma,
    update_zeta,
)
from degramix.evaluation import Metrics, _with_micro_scalar, fit_and_score, temporal_split


def tpc_pair_enumeration(mask: np.ndarray, r_max: int, periodic: bool = False) -> np.ndarray:
    """O(n^2) two-point correlation: loop over all ordered pixel pairs."""
    h, w = mask.shape
    ys, xs = np.mgrid[0:h, 0:w]
    coords = np.column_stack([ys.ravel(), xs.ravel()])
    vals = mask.ravel().astype(np.int64)

    dy = coords[:, 0][None, :] - coords[:, 0][:, None]
    dx = coords[:, 1][None, :] - coords[:, 1][:, None]
    if periodic:
        dy = (dy + h // 2) % h - h // 2
        dx = (dx + w // 2) % w - w // 2
    rr = np.round(np.hypot(dx, dy)).astype(np.int64)

    hits = np.zeros(r_max + 1, dtype=np.int64)
    pairs = np.zeros(r_max + 1, dtype=np.int64)
    inphase = vals[:, None] * vals[None, :]
    for r in range(r_max + 1):
        sel = rr == r
        pairs[r] = int(np.count_nonzero(sel))
        hits[r] = int(inphase[sel].sum())
    return hits / pairs


def _shifted_overlap(mask: np.ndarray, dy: int, dx: int):
    """In-window pixel pairs at displacement (dy, dx): (a, b) boolean views."""
    h, w = mask.shape
    ys = (slice(0, h - dy), slice(dy, h)) if dy >= 0 else (slice(-dy, h), slice(0, h + dy))
    xs = (slice(0, w - dx), slice(dx, w)) if dx >= 0 else (slice(-dx, w), slice(0, w + dx))
    return mask[ys[0], xs[0]], mask[ys[1], xs[1]]


def tpc_counts_direct(mask, dys, dxs, periodic):
    """(hit, pair) counts per displacement from one shifted sum each: the
    direct route against which the library's FFT counts are checked."""
    h, w = mask.shape
    hit = np.zeros(dys.size, dtype=np.int64)
    n_pairs = np.zeros(dys.size, dtype=np.int64)
    for i, (dy, dx) in enumerate(zip(dys.tolist(), dxs.tolist())):
        if periodic:
            shifted = np.roll(mask, shift=(dy, dx), axis=(0, 1))
            hit[i] = np.count_nonzero(mask & shifted)
            n_pairs[i] = h * w
        else:
            a, b = _shifted_overlap(mask, dy, dx)
            hit[i] = np.count_nonzero(a & b)
            n_pairs[i] = (h - abs(dy)) * (w - abs(dx))
    return hit, n_pairs


def tpc_counts_full_fft(mask, dys, dxs, periodic, r_max):
    """(hit, pair) counts per displacement from an unblocked autocorrelation:
    whole-plane transforms, a complex power plane and a complex inverse,
    the route the library's blocked pass replaced."""
    h, w = mask.shape
    if periodic:
        sh, sw = h, w
    else:
        sh, sw = fft.next_fast_len(h + r_max), fft.next_fast_len(w + r_max)
    spec = fft.fft(fft.rfft(mask.astype(float), n=sw, axis=1), n=sh, axis=0, overwrite_x=True)
    spec *= np.conj(spec)
    rows = fft.ifft(spec, axis=0, overwrite_x=True)[:r_max + 1]
    corr = fft.irfft(rows, n=sw, axis=1)
    hit = np.rint(corr[dys, dxs % sw]).astype(np.int64)
    if periodic:
        n_pairs = np.full(dys.size, h * w, dtype=np.int64)
    else:
        n_pairs = (h - np.abs(dys)) * (w - np.abs(dxs))
    return hit, n_pairs


def rdf_pair_enumeration(coords: np.ndarray, window, r_max: float, dr: float) -> np.ndarray:
    """RDF by a plain loop over every (interior reference, other particle)
    pair, with the library's per-pair arithmetic: np.hypot of the coordinate
    difference, bin floor(d / dr), kept when below the bin count."""
    coords = np.asarray(coords, dtype=float)
    w, h = window
    n_bins = int(np.floor(r_max / dr + 1e-9))
    areas = np.pi * np.diff((np.arange(n_bins + 1) * dr) ** 2)
    m = coords.shape[0]
    counts = np.zeros(n_bins)
    m_int = 0
    for a in range(m):
        xa, ya = coords[a]
        if not (r_max <= xa <= w - r_max and r_max <= ya <= h - r_max):
            continue
        m_int += 1
        for b in range(m):
            if b == a:
                continue
            k = math.floor(np.hypot(xa - coords[b, 0], ya - coords[b, 1]) / dr)
            if k < n_bins:
                counts[k] += 1
    return counts / (m_int * (m / (w * h)) * areas)


def lapack_pivoted_qr(omega: np.ndarray) -> tuple:
    """LAPACK's column-pivoted QR (geqp3), economic: (q, r, piv)."""
    return linalg.qr(omega, mode="economic", pivoting=True)


def flood_fill_component_count(mask: np.ndarray) -> int:
    """4-connected component count by explicit stack-based flood fill."""
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    count = 0
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or seen[sy, sx]:
                continue
            count += 1
            stack = [(sy, sx)]
            seen[sy, sx] = True
            while stack:
                y, x = stack.pop()
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        stack.append((ny, nx))
    return count


def gaussian_conditioning(lam, sigma_gamma, sigma_eps2, resid):
    """(mu, V) of the latent vector given data, via the joint normal of
    (y, gamma): generic conditioning instead of the precision-form update."""
    lam = np.asarray(lam, dtype=float)
    m = lam.shape[0]
    cov_y = lam @ sigma_gamma @ lam.T + sigma_eps2 * np.eye(m)
    cross = sigma_gamma @ lam.T
    solve = np.linalg.solve(cov_y, np.eye(m))
    mu = cross @ solve @ resid
    v = sigma_gamma - cross @ solve @ cross.T
    return mu, (v + v.T) / 2.0


def stack_units(units, r_grid) -> DegradationDataset:
    """The dataset holding ``units`` in order (``UnitRecord``s or anything
    with their fields), built by stacking their arrays into the array
    constructor, which then validates them."""
    units = tuple(units)
    return DegradationDataset(
        unit_ids=[u.unit_id for u in units],
        counts=[np.size(u.times) for u in units],
        times=np.concatenate([np.ravel(u.times) for u in units] + [np.zeros(0)]),
        responses=np.concatenate([np.ravel(u.responses) for u in units] + [np.zeros(0)]),
        scalars=np.array([np.ravel(u.scalars) for u in units], dtype=float),
        curves=np.array([np.atleast_2d(u.curves) for u in units], dtype=float),
        r_grid=r_grid,
    )


def compare_models_per_variant(ds, variants, split_fraction=0.8, micro_scalar=None,
                               max_iter=500, tol=1e-8) -> list:
    """The comparison table with nothing shared between variants: each one
    splits its data and runs ``fit_and_score`` without scores, so its fit
    makes its own FPCA; the reference for ``compare_models``."""
    rows = []
    for variant in variants:
        data = ds
        if variant.use_micro_scalar:
            if micro_scalar is None:
                rows.append(Metrics(model=variant.name,
                                    error="missing scalar microstructure covariate"))
                continue
            data = _with_micro_scalar(ds, micro_scalar)
        try:
            metrics, _ = fit_and_score(*temporal_split(data, split_fraction), variant.config,
                                       max_iter=max_iter, tol=tol, name=variant.name)
        except (ValueError, NumericalError) as exc:
            metrics = Metrics(model=variant.name, error=str(exc))
        rows.append(metrics)
    return rows

def coefficient_levels(fit, unit) -> np.ndarray:
    """One unit's fitted per-level coefficients, term by term from the split
    coefficient vector: nu + beta x + R b.c + R b_int.(x c), plus the
    latent posterior mean when the fit has one; the unit must be one the fit
    saw."""
    i = fit.unit_index(unit.unit_id)
    parts = fit.layout.split(fit.params.zeta)
    x = np.asarray(unit.scalars, dtype=float)
    eta = parts["nu"].copy()
    if fit.layout.include_scalar:
        eta += parts["beta"] @ x
    if fit.layout.include_functional:
        c = fit.scores[i]
        eta += fit.r_support * np.einsum("lsk,sk->l", parts["b"], c)
        if fit.layout.include_interaction:
            eta += fit.r_support * np.einsum("lpsk,p,sk->l", parts["b_int"], x, c)
    if fit.params.latent_dim:
        eta += fit.posterior.mu[i]
    return eta


def build_observed_design(unit, basis, scores_row, r_support, layout):
    """One unit's observed design (latent | scalar | functional | interaction),
    assembled column block by column block, one level at a time."""
    phi = basis_columns(basis, unit.times, layout.levels)
    blocks = [phi]
    x = unit.scalars
    if layout.include_functional:
        scores_row = np.asarray(scores_row, dtype=float)
        assert scores_row.shape == (layout.n_functional, layout.n_components)
        rc = r_support * scores_row.ravel()
    if layout.include_scalar:
        blocks += [phi[:, [li]] * x[None, :] for li in range(layout.n_levels)]
    if layout.include_functional:
        blocks += [phi[:, [li]] * rc[None, :] for li in range(layout.n_levels)]
    if layout.include_interaction:
        xrc = (x[:, None] * rc[None, :]).ravel()
        blocks += [phi[:, [li]] * xrc[None, :] for li in range(layout.n_levels)]
    omega = np.hstack(blocks)
    assert omega.shape == (unit.n_obs, layout.size)
    return omega


def layout_names_and_split(layout, zeta) -> tuple:
    """``ZetaLayout.names()`` and ``split(zeta)`` by explicit loops in the
    documented order: nu per level, beta per (level, scalar), b per (level,
    covariate, component), b_int per (level, scalar, covariate, component)."""
    levels = layout.levels
    p_, s_, k_ = layout.n_scalars, layout.n_functional, layout.n_components
    parts = {"nu": np.zeros(len(levels)), "beta": np.zeros((len(levels), p_)),
             "b": np.zeros((len(levels), s_, k_)), "b_int": np.zeros((len(levels), p_, s_, k_))}
    names = []
    j = 0
    for li, level in enumerate(levels):
        names.append(f"nu_l{level}")
        parts["nu"][li] = zeta[j]
        j += 1
    if layout.include_scalar:
        for li, level in enumerate(levels):
            for p in range(p_):
                names.append(f"beta_l{level}_p{p + 1}")
                parts["beta"][li, p] = zeta[j]
                j += 1
    if layout.include_functional:
        for li, level in enumerate(levels):
            for s in range(s_):
                for k in range(k_):
                    names.append(f"b_l{level}_s{s + 1}_k{k + 1}")
                    parts["b"][li, s, k] = zeta[j]
                    j += 1
    if layout.include_interaction:
        for li, level in enumerate(levels):
            for p in range(p_):
                for s in range(s_):
                    for k in range(k_):
                        names.append(f"bint_l{level}_p{p + 1}_s{s + 1}_k{k + 1}")
                        parts["b_int"][li, p, s, k] = zeta[j]
                        j += 1
    assert j == len(zeta), "zeta is longer than its layout"
    return names, parts


def unit_sums(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum row-indexed values within each unit: (rows, ...) -> (N, ...)."""
    return np.add.reduceat(rows, np.cumsum(counts) - counts, axis=0)


@dataclass(frozen=True)
class StackedDesign(DesignMatrices):
    """A design with one row per observation: unit i's ``counts[i]`` rows,
    then zero rows up to the longest unit's length.  The zero rows add
    exact zeros to every per-unit sum, so the library reads it like any
    other design; the dense oracles read the true rows."""

    counts: np.ndarray | None = None

    def rows(self, name: str) -> np.ndarray:
        """Every observation's row of ``omega``, ``lam`` or ``y``, unit after unit."""
        return np.concatenate([block[:m] for block, m in zip(getattr(self, name), self.counts)])


def stack_population(layout, unit_ids, omegas, lambdas, ys, ridge_jitter=False) -> StackedDesign:
    """Hand-assembled design: each unit's block holds its rows, one per
    observation, zero-padded to the longest unit's length."""
    counts = np.array([o.shape[0] for o in omegas])

    def padded(blocks):
        blocks = [np.asarray(b, dtype=float) for b in blocks]
        return np.stack([np.concatenate([b, np.zeros((counts.max() - len(b), *b.shape[1:]))])
                         for b in blocks])

    lam = np.vstack(lambdas)
    return StackedDesign(
        layout=layout, unit_ids=tuple(unit_ids), omega=padded(omegas), lam=padded(lambdas),
        y=padded(ys), lam_gram=unit_sums(lam[:, :, None] * lam[:, None, :], counts),
        n_obs=int(counts.sum()), ridge_jitter=ridge_jitter, counts=counts,
    )


def stacked_design_matrices(ds, config, scores=None) -> StackedDesign:
    """The uncompressed design of ``ds``: every observation's row, each
    unit's Omega block from ``build_observed_design``.  The library's EM runs
    on the same functions over each unit's compressed block; on this design
    they give the reference it is checked against."""
    layout = layout_for(config, ds.n_scalars, ds.n_functional,
                        np.shape(scores)[2] if config.include_functional else 0)
    units = ds.units
    return stack_population(
        layout, ds.unit_ids,
        [build_observed_design(u, config.basis, scores[i] if config.include_functional else None,
                               ds.r_support, layout) for i, u in enumerate(units)],
        [basis_columns(config.basis, u.times, layout.levels) for u in units],
        [u.responses for u in units], ridge_jitter=config.ridge_jitter,
    )


def ridge_normal_equations(omega: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The ridge solution from its normal equations, (Omega^T Omega + j I)^-1
    Omega^T rhs, with j 1e-8 of the normal matrix's mean diagonal."""
    gram = omega.T @ omega
    jitter = 1e-8 * float(np.trace(gram)) / gram.shape[0]
    return np.linalg.solve(gram + jitter * np.eye(gram.shape[0]), omega.T @ rhs)


def split_units(dm):
    """Per-unit (omegas, lambdas, ys) blocks of a design; a stacked design's
    blocks lose their padding, a library design's keep all their rows."""
    counts = getattr(dm, "counts", None)
    if counts is None:
        counts = np.full(dm.n_units, dm.y.shape[1])
    return tuple([block[:m] for block, m in zip(getattr(dm, name), counts)]
                 for name in ("omega", "lam", "y"))


def cholesky_loglik(params, dm):
    """Marginal log-likelihood unit by unit, from a Cholesky factor of the
    dense covariance Lambda_i Sigma_gamma Lambda_i^T + sigma_eps2 I."""
    total = 0.0
    for uid, om, lam, y in zip(dm.unit_ids, *split_units(dm)):
        resid = y - om @ params.zeta
        m = resid.size
        cov = params.sigma_eps2 * np.eye(m)
        if params.latent_dim:
            cov = cov + lam @ params.sigma_gamma @ lam.T
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"non-PSD marginal covariance for unit {uid}") from exc
        white = np.linalg.solve(chol, resid)
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        total += -0.5 * (m * np.log(2.0 * np.pi) + logdet + float(white @ white))
    return total


def lemma_loglik(params, dm):
    """Marginal log-likelihood through the non-symmetric A_i = sigma_eps2 I +
    Sigma_gamma G_i: log|C_i| = log|A_i| + (m_i - d) log sigma_eps2 and
    r_i^T C_i^-1 r_i = (r_i^T r_i - b_i^T A_i^-1 Sigma_gamma b_i) / sigma_eps2."""
    s2, d = params.sigma_eps2, params.latent_dim
    omegas, lambdas, ys = split_units(dm)
    resid = np.concatenate([y - om @ params.zeta for om, y in zip(omegas, ys)])
    a = s2 * np.eye(d) + params.sigma_gamma @ dm.lam_gram
    b = unit_sums(np.vstack(lambdas) * resid[:, None], [y.size for y in ys])
    sb = (b @ params.sigma_gamma.T)[:, :, None]
    logdet = (dm.n_obs * np.log(s2) + float(np.sum(np.linalg.slogdet(a)[1]))
              - dm.n_units * d * np.log(s2))
    quad = float(resid @ resid) - float(np.sum(b * np.linalg.solve(a, sb)[:, :, 0]))
    return -0.5 * (dm.n_obs * np.log(2.0 * np.pi) + logdet + quad / s2)


def profiled_fit(dm, theta: float) -> tuple:
    """(log-likelihood, sigma_eps^2, zeta) of ``profiled_loglik`` at theta."""
    omegas, lambdas, ys = split_units(dm)
    p = dm.omega.shape[2]
    gram, rhs, logdet = np.zeros((p, p)), np.zeros(p), 0.0
    inverses = []
    for om, lam, y in zip(omegas, lambdas, ys):
        v = np.eye(y.size) + theta * lam @ lam.T
        v_inv = np.linalg.inv(v)
        inverses.append(v_inv)
        gram += om.T @ v_inv @ om
        rhs += om.T @ v_inv @ y
        logdet += np.linalg.slogdet(v)[1]
    zeta = np.linalg.solve(gram, rhs)
    n = dm.n_obs
    sigma2 = sum(float((y - om @ zeta) @ v_inv @ (y - om @ zeta))
                 for om, y, v_inv in zip(omegas, ys, inverses)) / n
    return -0.5 * (n * np.log(2.0 * np.pi * sigma2) + n + logdet), sigma2, zeta


def profiled_loglik(dm, theta: float) -> float:
    """Marginal log-likelihood of a one-level latent model (d = 1) at
    theta = sigma_gamma^2 / sigma_eps^2, with zeta (GLS) and sigma_eps^2
    profiled out, unit by unit with dense covariances: the lme4 profiled
    deviance (Bates et al. 2015)."""
    return profiled_fit(dm, theta)[0]


def profiled_max(dm, log_theta_bounds=(-40.0, 5.0)) -> tuple:
    """(ll*, sigma_gamma^2*) maximising ``profiled_loglik`` over log theta
    with scipy's bounded scalar search; the zero boundary wins when its
    value is at least the interior's."""
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(lambda t: -profiled_loglik(dm, math.exp(t)), bounds=log_theta_bounds,
                          method="bounded", options={"xatol": 1e-10, "maxiter": 2000})
    theta = math.exp(res.x)
    ll, sigma2, _ = profiled_fit(dm, theta)
    boundary = profiled_loglik(dm, 0.0)
    return (boundary, 0.0) if boundary >= ll else (ll, theta * sigma2)


def plain_em(dm, init, iterations: int, diagonal: bool = False):
    """Parameters after ``iterations`` plain EM steps (E-step, then the zeta,
    sigma_gamma and sigma_eps2 updates, no working parameter or
    extrapolation) from ``init``."""
    params = init
    for _ in range(iterations):
        post = e_step(params, dm)
        zeta = update_zeta(post, dm)
        params = Parameters(zeta, update_sigma_eps(post, zeta, dm), update_sigma_gamma(post, diagonal))
    return params


def q_value(params, posterior, dm) -> float:
    """Expected complete-data log-likelihood (up to its additive constant).

    The posterior moments must come from the E-step at the previous
    parameter values; ``params`` is the point being evaluated.
    """
    second = posterior.second_moments
    data_term = 0.0
    for i, (om, lam, y) in enumerate(zip(*split_units(dm))):
        resid = y - om @ params.zeta
        data_term += float(resid @ resid)
        data_term += float(np.trace(lam.T @ lam @ second[i]))
        data_term -= 2.0 * float(resid @ (lam @ posterior.mu[i]))
    q = -0.5 * dm.n_obs * np.log(params.sigma_eps2) - data_term / (2.0 * params.sigma_eps2)
    if params.latent_dim:
        sign, logdet = np.linalg.slogdet(params.sigma_gamma)
        if sign <= 0:
            raise NumericalError("sigma_gamma must be positive definite in the Q function")
        q += -0.5 * dm.n_units * logdet
        q += -0.5 * float(np.einsum("ab,nab->", np.linalg.inv(params.sigma_gamma), second))
    return float(q)


def noise_variance_q_profile(lambda_units, omega_units, y_units, mu, second_moments,
                             zeta, s_ref: float):
    """The noise-variance block of the expected complete-data log-likelihood,
    shifted by its value at ``s_ref``.

    The shift removes the large additive constant so the maximizer can be
    located past the float resolution of the unshifted function; it does not
    move the argmax.  Evaluation runs in relative coordinates u = s/s_ref - 1
    via log1p, in extended precision: near the optimum the profile is flat
    to second order, so float64 values would place its argmax only to about
    1e-8 relative.
    """
    n_obs = sum(y.size for y in y_units)
    data_term = 0.0
    for lam, om, y, m, e2 in zip(lambda_units, omega_units, y_units, mu, second_moments):
        resid = y - om @ zeta
        data_term += float(resid @ resid)
        data_term += float(np.trace(lam.T @ lam @ e2))
        data_term -= 2.0 * float(resid @ (lam @ m))

    def profile(s: float) -> float:
        u = (np.longdouble(s) - s_ref) / s_ref
        return -0.5 * n_obs * np.log1p(u) + 0.5 * (data_term / s_ref) * u / (1.0 + u)

    return profile


def golden_section_max(f, lo: float, hi: float, iters: int = 120) -> float:
    """Golden-section maximizer of a unimodal scalar function on [lo, hi]."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
    return (a + b) / 2.0


def central_difference(f, x0: float, h: float) -> float:
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


def fine_grid_quadrature(values: np.ndarray, r_grid: np.ndarray, refine: int = 16) -> float:
    """Trapezoid integral of the linear interpolant on a refined grid."""
    fine = np.linspace(r_grid[0], r_grid[-1], refine * (r_grid.size - 1) + 1)
    return float(np.trapezoid(np.interp(fine, r_grid, values), fine))


def compound_symmetry_loglik(resid: np.ndarray, sigma_gamma2: float, sigma_eps2: float) -> float:
    """Gaussian log density under cov = sigma_gamma2 * J + sigma_eps2 * I,
    using the rank-one determinant and inverse identities."""
    m = resid.size
    logdet = (m - 1) * np.log(sigma_eps2) + np.log(sigma_eps2 + m * sigma_gamma2)
    total = float(resid.sum())
    quad = (float(resid @ resid) - sigma_gamma2 * total ** 2 / (sigma_eps2 + m * sigma_gamma2)) / sigma_eps2
    return -0.5 * (m * np.log(2.0 * np.pi) + logdet + quad)


def random_small_design(rng, n_units=4, max_obs=6, max_levels=3):
    """Random per-unit latent designs plus variance parameters for E-step checks."""
    d = int(rng.integers(1, max_levels + 1))
    lams, resids = [], []
    for _ in range(n_units):
        m = int(rng.integers(1, max_obs + 1))
        lams.append(rng.normal(size=(m, d)))
        resids.append(rng.normal(size=m))
    a = rng.normal(size=(d, d))
    sigma_gamma = a @ a.T + 0.3 * np.eye(d)
    sigma_eps2 = float(rng.uniform(0.2, 2.0))
    return lams, resids, sigma_gamma, sigma_eps2


def write_csv_rows(path, header, rows) -> None:
    """Write a CSV row by row: the header, then each row's values as str()
    writes them, quoted by the csv module's QUOTE_MINIMAL rule (a field
    holding a comma, a quote, CR or LF); the reference for ``write_csv``."""
    line = io.StringIO()
    writer = csv.writer(line, lineterminator="\r\n")  # CR and LF both force quoting
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            line.seek(0)
            line.truncate()
            writer.writerow([str(v) for v in row])
            fh.write(line.getvalue()[:-2] + "\n")


def load_dataset_rows(responses_file, scalars_file, curves_file) -> DegradationDataset:
    """Load and cross-validate the three dataset CSVs row by row, with
    Python's csv, float() and int(): the reference for ``load_dataset``.

    Units are returned sorted by unit id and observations sorted by time.
    Raises ValueError on malformed rows or a covariate index outside 1..S
    (naming the file and line), mismatched unit ids, ragged grids, duplicate
    (unit, time) rows or non-finite values (naming the file holding them).
    """
    header = ["unit_id", "time", "y"]
    resp_rows = list(_numbered_rows(responses_file))
    if not resp_rows or [c.strip() for c in resp_rows[0][1]] != header:
        raise ValueError(f"{responses_file}: expected header unit_id,time,y")
    responses: dict = {}
    for line, row in resp_rows[1:]:
        if row:
            try:
                uid, t, y = row
                responses.setdefault(uid, []).append((float(t), float(y)))
            except ValueError:
                raise _malformed(responses_file, line, row, header) from None

    scal_rows = list(_numbered_rows(scalars_file))
    header = scal_rows[0][1] if scal_rows else []
    if not header or header[0].strip() != "unit_id":
        raise ValueError(f"{scalars_file}: expected header unit_id,x1,...")
    scalars: dict = {}
    for line, row in scal_rows[1:]:
        if row:
            if len(row) != len(header):
                raise _malformed(scalars_file, line, row, header)
            try:
                scalars[row[0]] = np.array([float(v) for v in row[1:]])
            except ValueError:
                raise _malformed(scalars_file, line, row, header) from None

    header = ["unit_id", "s", "r", "z"]
    curv_rows = list(_numbered_rows(curves_file))
    if not curv_rows or [c.strip() for c in curv_rows[0][1]] != header:
        raise ValueError(f"{curves_file}: expected header unit_id,s,r,z")
    curve_points: dict = {}
    first_line: dict = {}  # covariate index -> the line of the first row holding it
    for line, row in curv_rows[1:]:
        if row:
            try:
                uid, s, r, z = row
                curve_points.setdefault(uid, {}).setdefault(int(s), []).append((float(r), float(z)))
                first_line.setdefault(int(s), line)
            except ValueError:
                raise _malformed(curves_file, line, row, header) from None

    unit_ids = sorted(responses, key=_unit_sort_key)
    if not unit_ids:
        raise ValueError("responses file holds no measurements")

    missing_scalars = [u for u in unit_ids if u not in scalars]
    if missing_scalars:
        raise ValueError(f"missing covariates for unit {missing_scalars[0]} in {scalars_file}: "
                         f"{responses_file} lists it")
    extra = sorted(set(scalars) - set(responses), key=_unit_sort_key)
    if extra:
        raise ValueError(f"mismatched unit ids across files: {extra[0]} has covariates "
                         f"in {scalars_file} but no responses in {responses_file}")

    # an empty curves file (header only) yields S = 0 uniformly
    s_indices: tuple = ()
    r_grid = np.zeros(0)
    if curve_points:
        missing_curves = [u for u in unit_ids if u not in curve_points]
        if missing_curves:
            raise ValueError(f"missing covariates for unit {missing_curves[0]} in {curves_file}: "
                             f"{responses_file} lists it")
        extra_c = sorted(set(curve_points) - set(responses), key=_unit_sort_key)
        if extra_c:
            raise ValueError(f"mismatched unit ids across files: {extra_c[0]} has curves "
                             f"in {curves_file} but no responses in {responses_file}")
        s_indices = tuple(sorted(curve_points[unit_ids[0]]))
        if s_indices != tuple(range(1, len(s_indices) + 1)):
            raise ValueError(f"{curves_file}: covariate indices must be 1..S, got {s_indices}")
        stray = {line: s for s, line in first_line.items() if s not in s_indices}
        if stray:
            line = min(stray)
            raise ValueError(f"{curves_file}: line {line}: covariate index s={stray[line]} "
                             f"outside 1..{len(s_indices)}")
        first = sorted(curve_points[unit_ids[0]][s_indices[0]])
        r_grid = np.array([r for r, _ in first])

    units = []
    for uid in unit_ids:
        pairs = sorted(responses[uid])
        times = np.array([t for t, _ in pairs])
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError(f"{responses_file}: non-increasing times for unit {uid}")
        ys = np.array([y for _, y in pairs])
        curves = np.zeros((len(s_indices), r_grid.size))
        for si, s in enumerate(s_indices):
            if s not in curve_points.get(uid, {}):
                raise ValueError(f"{curves_file}: unit {uid}: ragged functional grid "
                                 f"(missing covariate s={s})")
            pts = sorted(curve_points[uid][s])
            rs = np.array([r for r, _ in pts])
            if rs.shape != r_grid.shape or not np.array_equal(rs, r_grid):
                raise ValueError(f"{curves_file}: unit {uid}: ragged functional grid for covariate s={s}")
            curves[si] = [z for _, z in pts]
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(ys))):
            raise ValueError(f"{responses_file}: unit {uid}: non-finite measurement")
        if not np.all(np.isfinite(scalars[uid])):
            raise ValueError(f"{scalars_file}: unit {uid}: non-finite scalar covariate")
        if not np.all(np.isfinite(curves)):
            raise ValueError(f"{curves_file}: unit {uid}: non-finite functional covariate curve")
        units.append(UnitRecord(uid, times, ys, scalars[uid], curves))

    return stack_units(units, r_grid)


def load_particles_by_line(path) -> ParticleSet:
    """Read a particle CSV line by line with float(): the reference for
    ``load_particles_csv``.  Blank and whitespace-only lines are skipped,
    and the first malformed line raises ValueError naming the file and the
    line."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [(no, ln.strip()) for no, ln in enumerate(fh, 1) if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    window = _particle_header(path, lines[:2])
    coords = []
    for no, row in lines[2:]:
        fields = row.split(",")
        if len(fields) != 2:
            raise ValueError(f"{path}: line {no}: expected 2 fields 'x,y', got {len(fields)}")
        coords.append(_floats(fields, path, no, "coordinate"))
    try:
        return ParticleSet(np.array(coords, dtype=float).reshape(-1, 2), window)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
