"""Independent brute-force oracles shared across the test suite.

Every function here recomputes a quantity by a route deliberately different
from the library implementation: exhaustive enumeration, generic Gaussian
conditioning, per-unit dense algebra, scalar search, naive quadrature, or
row-by-row CSV parsing.
"""

from __future__ import annotations

import math

import numpy as np

from degramix.data import (
    DegradationDataset,
    UnitRecord,
    _malformed,
    _read_rows,
    _unit_sort_key,
    basis_columns,
)
from degramix.design import DesignMatrices, unit_sums
from degramix.estimator import NumericalError


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


def stack_population(layout, unit_ids, omegas, lambdas, ys) -> DesignMatrices:
    """Hand-assembled DesignMatrices: row-stacked per-unit blocks."""
    counts = np.array([o.shape[0] for o in omegas])
    lam = np.vstack(lambdas)
    return DesignMatrices(
        layout=layout, unit_ids=tuple(unit_ids), omega=np.vstack(omegas), lam=lam,
        y=np.concatenate(ys).astype(float, copy=False), counts=counts,
        lam_gram=unit_sums(lam[:, :, None] * lam[:, None, :], counts),
    )


def split_units(dm):
    """Per-unit (omegas, lambdas, ys) blocks of a stacked design."""
    cuts = np.cumsum(dm.counts)[:-1]
    return (np.split(dm.omega, cuts), np.split(dm.lam, cuts), np.split(dm.y, cuts))


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
    via log1p, keeping the curvature resolvable near the optimum.
    """
    n_obs = sum(y.size for y in y_units)
    data_term = 0.0
    for lam, om, y, m, e2 in zip(lambda_units, omega_units, y_units, mu, second_moments):
        resid = y - om @ zeta
        data_term += float(resid @ resid)
        data_term += float(np.trace(lam.T @ lam @ e2))
        data_term -= 2.0 * float(resid @ (lam @ m))

    def profile(s: float) -> float:
        u = (s - s_ref) / s_ref
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


def load_dataset_rows(responses_file, scalars_file, curves_file) -> DegradationDataset:
    """Load and cross-validate the three dataset CSVs row by row, with
    Python's csv, float() and int(): the reference for ``load_dataset``.

    Units are returned sorted by unit id and observations sorted by time.
    Raises ValueError on malformed rows (naming the file and line),
    mismatched unit ids, ragged grids or duplicate (unit, time) rows.
    """
    header = ["unit_id", "time", "y"]
    resp_rows = _read_rows(responses_file)
    if not resp_rows or [c.strip() for c in resp_rows[0]] != header:
        raise ValueError(f"{responses_file}: expected header unit_id,time,y")
    responses: dict = {}
    for index, row in enumerate(resp_rows[1:], 1):
        if row:
            try:
                uid, t, y = row
                responses.setdefault(uid, []).append((float(t), float(y)))
            except ValueError:
                raise _malformed(responses_file, index, row, header) from None

    scal_rows = _read_rows(scalars_file)
    header = scal_rows[0] if scal_rows else []
    if not header or header[0].strip() != "unit_id":
        raise ValueError(f"{scalars_file}: expected header unit_id,x1,...")
    scalars: dict = {}
    for index, row in enumerate(scal_rows[1:], 1):
        if row:
            if len(row) != len(header):
                raise _malformed(scalars_file, index, row, header)
            try:
                scalars[row[0]] = np.array([float(v) for v in row[1:]])
            except ValueError:
                raise _malformed(scalars_file, index, row, header) from None

    header = ["unit_id", "s", "r", "z"]
    curv_rows = _read_rows(curves_file)
    if not curv_rows or [c.strip() for c in curv_rows[0]] != header:
        raise ValueError(f"{curves_file}: expected header unit_id,s,r,z")
    curve_points: dict = {}
    for index, row in enumerate(curv_rows[1:], 1):
        if row:
            try:
                uid, s, r, z = row
                curve_points.setdefault(uid, {}).setdefault(int(s), []).append((float(r), float(z)))
            except ValueError:
                raise _malformed(curves_file, index, row, header) from None

    unit_ids = sorted(responses, key=_unit_sort_key)
    if not unit_ids:
        raise ValueError("responses file holds no measurements")

    missing_scalars = [u for u in unit_ids if u not in scalars]
    if missing_scalars:
        raise ValueError(f"missing covariates for unit {missing_scalars[0]}")
    extra = sorted(set(scalars) - set(responses), key=_unit_sort_key)
    if extra:
        raise ValueError(f"mismatched unit ids across files: {extra[0]} has covariates but no responses")

    # an empty curves file (header only) yields S = 0 uniformly
    s_indices: tuple = ()
    r_grid = np.zeros(0)
    if curve_points:
        missing_curves = [u for u in unit_ids if u not in curve_points]
        if missing_curves:
            raise ValueError(f"missing covariates for unit {missing_curves[0]} in curves file")
        extra_c = sorted(set(curve_points) - set(responses), key=_unit_sort_key)
        if extra_c:
            raise ValueError(f"mismatched unit ids across files: {extra_c[0]} has curves but no responses")
        s_indices = tuple(sorted(curve_points[unit_ids[0]]))
        if s_indices != tuple(range(1, len(s_indices) + 1)):
            raise ValueError(f"curves file: covariate indices must be 1..S, got {s_indices}")
        first = sorted(curve_points[unit_ids[0]][s_indices[0]])
        r_grid = np.array([r for r, _ in first])

    units = []
    for uid in unit_ids:
        pairs = sorted(responses[uid])
        times = np.array([t for t, _ in pairs])
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError(f"non-increasing times for unit {uid}")
        ys = np.array([y for _, y in pairs])
        curves = np.zeros((len(s_indices), r_grid.size))
        for si, s in enumerate(s_indices):
            if s not in curve_points.get(uid, {}):
                raise ValueError(f"unit {uid}: ragged functional grid (missing covariate s={s})")
            pts = sorted(curve_points[uid][s])
            rs = np.array([r for r, _ in pts])
            if rs.shape != r_grid.shape or not np.array_equal(rs, r_grid):
                raise ValueError(f"unit {uid}: ragged functional grid for covariate s={s}")
            curves[si] = [z for _, z in pts]
        units.append(UnitRecord(uid, times, ys, scalars[uid], curves))

    return DegradationDataset(units=tuple(units), r_grid=r_grid)
