"""The covariate map of the coefficient-level model, and the per-unit
compressed regression blocks and latent Gram blocks built from it.

Each unit's per-level coefficient is population + scalar + functional-marginal
+ interaction (+ latent).  ``ZetaLayout.features`` maps the covariates to one
feature block per term, ``[1] | x | r c | x (x) r c``; the observed design
multiplies each block by the time basis, and prediction and effect splits
multiply it by the block's coefficients.  Blocks for switched-off model
components are omitted entirely so the coefficient count is unambiguous.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import DatasetRuleError, DegradationDataset, ModelConfig, basis_columns


# zeta's segments in order: (key, name prefix, index axes after the level,
# the layout flag that switches the segment on, or None when always on).  An
# index axis is p (scalar), s (functional covariate) or k (FPCA component).
_SEGMENTS = (
    ("nu", "nu", "", None),
    ("beta", "beta", "p", "include_scalar"),
    ("b", "b", "sk", "include_functional"),
    ("b_int", "bint", "psk", "include_interaction"),
)


@dataclass(frozen=True)
class ZetaLayout:
    """Segment offsets of the stacked coefficient vector, in ``_SEGMENTS``
    order: nu per level, then beta per (level, scalar), b per (level,
    covariate, component), b_int per (level, scalar, covariate, component).
    """

    levels: tuple
    n_scalars: int
    n_functional: int
    n_components: int
    include_scalar: bool
    include_functional: bool
    include_interaction: bool

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @cached_property
    def _segments(self) -> tuple:
        """(key, name prefix, axes, shape, active) of each segment."""
        dims = {"p": self.n_scalars, "s": self.n_functional, "k": self.n_components}
        return tuple((key, prefix, axes, (self.n_levels, *(dims[a] for a in axes)),
                      flag is None or getattr(self, flag))
                     for key, prefix, axes, flag in _SEGMENTS)

    @cached_property
    def offsets(self) -> dict:
        """(start, stop) of each segment in zeta; a switched-off one is empty."""
        out, start = {}, 0
        for key, _, _, shape, active in self._segments:
            stop = start + (math.prod(shape) if active else 0)
            out[key] = (start, stop)
            start = stop
        return out

    @property
    def size(self) -> int:
        return max(stop for _, stop in self.offsets.values())

    def split(self, zeta: np.ndarray) -> dict:
        """View zeta as named coefficient arrays; absent blocks come back zero."""
        zeta = np.asarray(zeta, dtype=float)
        if zeta.shape != (self.size,):
            raise ValueError(f"zeta must have length {self.size}, got {zeta.shape}")
        return {key: zeta[slice(*self.offsets[key])].reshape(shape) if active
                else np.zeros(shape) for key, _, _, shape, active in self._segments}

    def features(self, scalars: np.ndarray, scores: np.ndarray | None, r_support: float) -> dict:
        """The covariate map: per unit, the features of every active segment,
        ``[1] | x | r c | x (x) r c``, as (N, width / n_levels) arrays keyed
        and ordered like ``offsets``.

        ``scalars`` is (N, P); ``scores`` is the (N, S, K) score array the
        functional segments need.
        """
        x = np.asarray(scalars, dtype=float)
        n = x.shape[0]
        if self.include_scalar and x.shape != (n, self.n_scalars):
            raise DatasetRuleError("scalars", f"scalars shape {x.shape} does not match layout "
                                   f"(P={self.n_scalars})")
        out = {"nu": np.ones((n, 1))}
        if self.include_scalar:
            out["beta"] = x
        if self.include_functional:
            scores = np.asarray(scores, dtype=float)
            if scores.shape != (n, self.n_functional, self.n_components):
                raise ValueError(
                    f"scores shape {scores.shape} does not match layout "
                    f"(N={n}, S={self.n_functional}, K={self.n_components})"
                )
            out["b"] = r_support * scores.reshape(n, -1)
        if self.include_interaction:
            out["b_int"] = (x[:, :, None] * out["b"][:, None, :]).reshape(n, -1)
        return out

    def components(self, zeta: np.ndarray, features: dict) -> dict:
        """Each segment's (N, n_levels) contribution to the per-level
        coefficients: ``F_j @ zeta_j.reshape(L, w_j).T``, taken one unit's
        row at a time so a unit's value does not depend on the units
        evaluated beside it."""
        off = self.offsets
        return {
            name: (f[:, None, :] @ zeta[off[name][0]:off[name][1]].reshape(self.n_levels, -1).T)[:, 0]
            for name, f in features.items()
        }

    def names(self) -> list:
        """One name per zeta entry: the prefix, the level, then each index axis."""
        return [f"{prefix}_l{level}" + "".join(f"_{a}{i}" for a, i in zip(axes, index))
                for _, prefix, axes, shape, active in self._segments if active
                for level in self.levels
                for index in itertools.product(*(range(1, n + 1) for n in shape[1:]))]


def layout_for(config: ModelConfig, n_scalars: int, n_functional: int, n_components: int) -> ZetaLayout:
    return ZetaLayout(
        levels=config.levels,
        n_scalars=n_scalars,
        n_functional=n_functional if config.include_functional else 0,
        n_components=n_components if config.include_functional else 0,
        include_scalar=config.include_scalar,
        include_functional=config.include_functional,
        include_interaction=config.include_interaction,
    )


@dataclass(frozen=True)
class DesignMatrices:
    """The regression rows of one dataset under one layout, one block per unit.

    Unit i's block is ``omega[i]`` (k, p), ``lam[i]`` (k, d) and ``y[i]``
    (k,); ``lam_gram`` holds Lambda_i^T Lambda_i (N, d, d) and ``n_obs`` the
    number of observations the rows stand for.  Every row of a unit is
    lambda_row (x) f_i, so EM needs no more of unit i than the Gram matrix of
    [Lambda_i y_i].  ``build_design_matrices`` keeps exactly that: k = d + 1
    rows, the triangular factor of [Lambda_i y_i], never one row per
    observation.  Zero rows are padding: they add nothing to any sum, so a
    block may hold fewer real rows than k.  ``ridge_jitter`` picks how
    ``omega_factor``, built once per design, factors Omega.
    """

    layout: ZetaLayout
    unit_ids: tuple
    omega: np.ndarray
    lam: np.ndarray
    y: np.ndarray
    lam_gram: np.ndarray
    n_obs: int
    ridge_jitter: bool = False

    @cached_property
    def omega_factor(self) -> tuple:
        """(b, t, piv) with ``zeta[piv] = t^-1 b^T rhs`` the least-squares solve
        on the rows of all blocks: Omega's pivoted QR (q, r, piv), which raises
        if Omega is rank-deficient, or with the ridge the jittered normal
        equations (Omega, Omega^T Omega plus a trace-relative jitter, the
        identity)."""
        p = self.layout.size
        omega = self.omega.reshape(self.y.size, -1)
        if not self.ridge_jitter:
            return _check_full_rank(omega, self.layout, self.n_obs)
        gram = omega.T @ omega
        return omega, gram + 1e-8 * np.trace(gram) / p * np.eye(p), np.arange(p)

    def projection_basis(self) -> np.ndarray:
        """B (N, k, p) with B B^T the projection on Omega's columns: q of the
        QR, or on the ridge path Omega K^-T with K K^T the jittered normal
        matrix."""
        b, t, _ = self.omega_factor
        if self.ridge_jitter:
            # reversing rows and columns makes the Cholesky factor upper
            # triangular, which LU solves by substitution without swapping rows
            b = np.linalg.solve(np.linalg.cholesky(t)[::-1, ::-1], b.T[::-1])[::-1].T
        return b.reshape(self.omega.shape)

    def residual(self, zeta: np.ndarray) -> tuple:
        """(|y - Omega zeta|^2 over every row, Lambda_i^T r_i (N, d) per unit)."""
        r = self.y.reshape(-1) - self.omega.reshape(self.y.size, -1) @ zeta
        return float(r @ r), np.sum(self.lam * r.reshape(self.y.shape)[:, :, None], axis=1)

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)

    def latent_mean(self, mu: np.ndarray) -> np.ndarray:
        """Lambda_i mu_i (N, k) on every row of every block."""
        return np.sum(self.lam * mu[:, None, :], axis=2)


def _observed_rows(layout: ZetaLayout, lam: np.ndarray, features: dict) -> np.ndarray:
    """Omega's blocks (N, k, p) for latent blocks ``lam`` (N, k, d): each
    segment's columns are lambda_row (x) the unit's ``features``."""
    n, k = lam.shape[:2]
    omega = np.empty((n, k, layout.size))
    for name, f in features.items():
        start, stop = layout.offsets[name]
        omega[:, :, start:stop] = (lam[:, :, :, None] * f[:, None, None, :]).reshape(n, k, -1)
    return omega


def stacked_design(ds: DegradationDataset, config: ModelConfig, layout: ZetaLayout,
                   scores: np.ndarray | None) -> tuple:
    """(Omega, Lambda) with one row per observation of ``ds``, in its row
    order: what ``fit --dump-design`` writes; the fit never forms them."""
    lam = basis_columns(config.basis, ds.times, layout.levels)
    features = layout.features(ds.scalars, scores, ds.r_support)
    rows = {name: f[ds.unit_rows] for name, f in features.items()}  # one-row blocks
    return _observed_rows(layout, lam[:, None, :], rows)[:, 0], lam


def _compress_units(lam: np.ndarray, y: np.ndarray, counts: np.ndarray) -> tuple:
    """Per unit, the triangular factor (N, d + 1, d + 1) of [Lambda_i y_i],
    zero-padded below when m_i <= d, and Lambda_i^T Lambda_i (N, d, d); one
    batched QR over the units of each distinct count."""
    n, d = counts.size, lam.shape[1]
    aug = np.column_stack([lam, y])
    starts = np.cumsum(counts) - counts
    tri = np.zeros((n, d + 1, d + 1))
    gram = np.empty((n, d, d))
    for m in np.unique(counts):
        units = np.flatnonzero(counts == m)
        block = aug[starts[units, None] + np.arange(m)]
        tri[units, :min(m, d + 1)] = np.linalg.qr(block, mode="r")
        gram[units] = np.swapaxes(block[:, :, :d], 1, 2) @ block[:, :, :d]
    return tri, gram


def _pivoted_qr(omega: np.ndarray) -> tuple:
    """Economic QR with column pivoting, ``omega[:, piv] = q @ r``, with
    ``|diag r|`` non-increasing up to rounding.

    Omega's unpivoted QR leaves a small triangular factor with Omega's
    column norms and inner products; Householder steps on it, each taking
    the remaining column of largest norm first (Businger & Golub 1965), give
    ``r`` and the rotation ``q1``, and ``q = q0 @ q1``.  Costs one QR of the
    tall Omega plus O(p^3) on the p columns.
    """
    q0, r = np.linalg.qr(omega)
    m, p = r.shape
    piv = np.arange(p)
    q1 = np.eye(m)
    for j in range(min(m, p)):
        sq_norms = np.einsum("ij,ij->j", r[j:, j:], r[j:, j:])
        # of norms equal to rounding, the column first in Omega goes first,
        # so a duplicated column is the one reported as dependent
        ties = np.flatnonzero(sq_norms >= (1.0 - 1e-12) * sq_norms.max())
        k = j + int(ties[np.argmin(piv[j + ties])])
        r[:, [j, k]] = r[:, [k, j]]
        piv[[j, k]] = piv[[k, j]]
        v = r[j:, j].copy()
        v[0] += np.copysign(np.linalg.norm(v), v[0])
        norm = np.linalg.norm(v)
        if norm == 0.0:  # every remaining column is zero
            break
        v /= norm
        r[j:, j:] -= 2.0 * np.outer(v, v @ r[j:, j:])
        q1[:, j:] -= 2.0 * np.outer(q1[:, j:] @ v, v)
        r[j + 1:, j] = 0.0
    return q0 @ q1, r, piv


def _check_full_rank(omega: np.ndarray, layout: ZetaLayout, n_obs: int) -> tuple:
    """The pivoted QR (q, r, piv) of a full-rank ``omega``; raises naming the
    dependent columns otherwise.  The rank tolerance scales with the
    observation count, not the row count, so a unit's compressed rows decide
    the rank as its observations would."""
    q, rdiag, piv = _pivoted_qr(omega)
    diag = np.abs(np.diag(rdiag))
    tol = max(n_obs, layout.size) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    rank = int(np.count_nonzero(diag > tol))
    if rank < layout.size:
        names = layout.names()
        offending = sorted(names[j] for j in piv[rank:])
        raise ValueError(
            "rank-deficient observed design; dependent columns: " + ", ".join(offending)
        )
    return q, rdiag, piv


def build_design_matrices(
    ds: DegradationDataset,
    config: ModelConfig,
    scores: np.ndarray | None = None,
) -> DesignMatrices:
    """Every unit's compressed observed and latent design.

    Lambda_i is the time basis phi at the unit's observations; the QR
    [Lambda_i y_i] = Q_i [[R_i, z_i], [0, rho_i]] gives the unit's d + 1
    rows [R_i; 0] of ``lam`` and [z_i; rho_i] of ``y``, and its rows of
    Omega are R_i (x) the covariate features (``ZetaLayout.features``).
    ``scores`` is the (N, S, K) score array; required when the functional
    component is active.  Raises on a rank-deficient design unless the
    config enables the ridge jitter fallback.
    """
    if config.include_functional:
        if scores is None:
            raise ValueError("functional component active but no scores supplied")
        scores = np.asarray(scores, dtype=float)
        if scores.ndim != 3 or scores.shape[0] != ds.n_units:
            raise ValueError("scores must have shape (n_units, S, K)")
        n_components = scores.shape[2]
    else:
        n_components = 0

    layout = layout_for(config, ds.n_scalars, ds.n_functional, n_components)
    d = layout.n_levels
    tri, lam_gram = _compress_units(basis_columns(config.basis, ds.times, layout.levels),
                                    ds.responses, ds.counts)
    lam = tri[:, :, :d]
    omega = _observed_rows(layout, lam, layout.features(ds.scalars, scores, ds.r_support))
    dm = DesignMatrices(
        layout=layout, unit_ids=ds.unit_ids, omega=omega, lam=lam, y=tri[:, :, d],
        lam_gram=lam_gram, n_obs=ds.n_obs, ridge_jitter=config.ridge_jitter,
    )
    dm.omega_factor  # without the ridge, the rank check: a rank-deficient design fails here
    return dm
