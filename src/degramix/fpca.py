"""Grid FPCA: Karhunen-Loeve reduction of functional covariates to scores.

Eigenfunctions are normalized so that (1/R) * integral(psi_j * psi_k) equals
the Kronecker delta under trapezoid quadrature; with that convention a
truncated expansion makes the R-weighted score products in the regression
design exact identities rather than approximations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import check_fve_threshold

_EIG_CLAMP = 1e-12


def trapezoid_weights(r_grid: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights for an ascending grid."""
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise ValueError("grid must hold at least two points")
    w = np.zeros(r.size)
    gaps = np.diff(r)
    w[:-1] += gaps / 2.0
    w[1:] += gaps / 2.0
    return w


def inner_weights(r_grid: np.ndarray) -> np.ndarray:
    """Weights of the (1/R)-normalized trapezoid inner product on a grid."""
    r = np.asarray(r_grid, dtype=float)
    return trapezoid_weights(r) / (r[-1] - r[0])


@dataclass(frozen=True)
class FpcaModel:
    """Fitted eigensystem of one functional covariate.

    ``eigenfunctions`` is (K_full, G); ``k`` is the active truncation used by
    projection and reconstruction.
    """

    r_grid: np.ndarray
    mean_curve: np.ndarray
    eigenfunctions: np.ndarray
    eigenvalues: np.ndarray
    fve_trace: np.ndarray
    k: int

    @property
    def inner_weights(self) -> np.ndarray:
        """Weights of the (1/R)-normalized trapezoid inner product."""
        return inner_weights(self.r_grid)


def fit_fpca(curves: np.ndarray, r_grid: np.ndarray) -> FpcaModel:
    """Eigendecompose the sample covariance of curves sampled on a shared grid.

    The pointwise sample mean is removed, trapezoid weights are folded in
    symmetrically, and eigenvalues below zero from solver noise are clamped.
    Returns all eigenpairs with ``k`` preset to the count of positive
    eigenvalues; :func:`fit_scores` narrows ``k``.
    """
    x = np.asarray(curves, dtype=float)
    if x.ndim != 2:
        raise ValueError("curves must be an (n_units, G) array")
    n, g = x.shape
    if n < 2:
        raise ValueError("FPCA needs at least two curves")
    r = np.asarray(r_grid, dtype=float)
    if r.size != g:
        raise ValueError("grid mismatch between curves and r_grid")

    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)

    w = inner_weights(r)
    sw = np.sqrt(w)
    sym = sw[:, None] * cov * sw[None, :]
    sym = (sym + sym.T) / 2.0
    evals, evecs = np.linalg.eigh(sym)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    evals = np.where(evals < 0.0, 0.0, evals)

    total = float(evals.sum())
    # rounding in the sample mean leaves ~eps**2 mass even for identical curves
    scale = float(np.mean((x * x) @ w))
    if total <= 1e-24 * max(scale, 1.0):
        raise ValueError("degenerate covariance: all curves are identical")

    psi = evecs / sw[:, None]
    # each eigenfunction's sign makes its largest-magnitude entry positive
    flip = psi[np.argmax(np.abs(psi), axis=0), np.arange(psi.shape[1])] < 0
    psi[:, flip] = -psi[:, flip]

    fve = np.cumsum(evals) / total
    k_default = int(np.count_nonzero(evals > 0.0))
    return FpcaModel(
        r_grid=r.copy(),
        mean_curve=mean,
        eigenfunctions=psi.T,
        eigenvalues=evals,
        fve_trace=fve,
        k=k_default,
    )


def select_k_by_fve(model: FpcaModel, threshold: float) -> int:
    """Smallest truncation whose cumulative variance fraction meets threshold."""
    check_fve_threshold(threshold)
    reached = np.flatnonzero(model.fve_trace >= threshold - _EIG_CLAMP)
    return int(reached[0]) + 1


def with_k(model: FpcaModel, k: int) -> FpcaModel:
    _check_k(model, k, 1)
    return replace(model, k=int(k))


def _check_k(model: FpcaModel, k: int, least: int) -> None:
    # a model read back from a fit report holds only its k eigenfunctions
    held = model.eigenfunctions.shape[0]
    if not least <= k <= held:
        raise ValueError(f"k must lie in {least}..{held}, the eigenfunctions the model holds")


def project_scores(model: FpcaModel, curves: np.ndarray) -> np.ndarray:
    """Scores of curves against the leading k eigenfunctions, shape (N, k).

    A stacked (N, 1, G) input gives (N, 1, k): one product per curve, so a
    curve's scores do not depend on the curves projected beside it."""
    x = np.atleast_2d(np.asarray(curves, dtype=float))
    if x.shape[-1] != model.r_grid.size:
        raise ValueError("grid mismatch: curves do not match the fitted grid")
    weighted_psi = model.eigenfunctions[: model.k] * model.inner_weights[None, :]
    return (x - model.mean_curve) @ weighted_psi.T


def fit_scores(curves: np.ndarray, r_grid: np.ndarray, k: int | None,
               fve_threshold: float) -> tuple:
    """FPCA of each functional covariate with one truncation K shared by all.

    ``curves`` is (N, S, G).  K is ``k`` when given, else the largest
    :func:`select_k_by_fve` choice over the covariates; either way it is
    capped by the fewest eigenpairs any covariate has.  Returns the S fitted
    models, each truncated to K, and their (N, S, K) scores.
    """
    curves_by_s = [curves[:, s] for s in range(curves.shape[1])]
    models = [fit_fpca(c, r_grid) for c in curves_by_s]
    if k is None:
        k = max(select_k_by_fve(m, fve_threshold) for m in models)
    k = min(int(k), min(m.eigenvalues.size for m in models))
    models = [with_k(m, k) for m in models]
    scores = np.stack([project_scores(m, c) for m, c in zip(models, curves_by_s)], axis=1)
    return tuple(models), scores


def reconstruct(model: FpcaModel, scores: np.ndarray, k: int | None = None) -> np.ndarray:
    """Mean curve plus the score-weighted sum of the first k eigenfunctions."""
    if k is None:
        k = model.k
    _check_k(model, k, 0)
    s = np.atleast_2d(np.asarray(scores, dtype=float))
    if k == 0:
        return np.tile(model.mean_curve, (s.shape[0], 1))
    return model.mean_curve + s[:, :k] @ model.eigenfunctions[:k]
