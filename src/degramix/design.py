"""Stacked regression designs and per-unit latent Gram blocks for the
coefficient-level model.

The observed design of unit i is the column block (latent | scalar |
functional | interaction); blocks for switched-off model components are
omitted entirely so the coefficient count is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .data import BasisFamily, DegradationDataset, ModelConfig, UnitRecord, basis_columns
from .fpca import ScoreSet


@dataclass(frozen=True)
class ZetaLayout:
    """Segment offsets of the stacked coefficient vector.

    Order: nu per level, then beta per (level, scalar), b per (level,
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

    @property
    def latent_dim(self) -> int:
        return self.n_levels

    @property
    def _widths(self) -> tuple:
        nl, p = self.n_levels, self.n_scalars
        sk = self.n_functional * self.n_components
        return (
            nl,
            nl * p if self.include_scalar else 0,
            nl * sk if self.include_functional else 0,
            nl * p * sk if self.include_interaction else 0,
        )

    @property
    def size(self) -> int:
        return sum(self._widths)

    @property
    def offsets(self) -> dict:
        w = self._widths
        starts = np.concatenate([[0], np.cumsum(w)])
        return {
            "nu": (int(starts[0]), int(starts[1])),
            "beta": (int(starts[1]), int(starts[2])),
            "b": (int(starts[2]), int(starts[3])),
            "b_int": (int(starts[3]), int(starts[4])),
        }

    def split(self, zeta: np.ndarray) -> dict:
        """View zeta as named coefficient arrays; absent blocks come back zero."""
        zeta = np.asarray(zeta, dtype=float)
        if zeta.shape != (self.size,):
            raise ValueError(f"zeta must have length {self.size}, got {zeta.shape}")
        nl, p, s, k = self.n_levels, self.n_scalars, self.n_functional, self.n_components
        off = self.offsets
        out = {
            "nu": zeta[off["nu"][0]:off["nu"][1]].copy(),
            "beta": np.zeros((nl, p)),
            "b": np.zeros((nl, s, k)),
            "b_int": np.zeros((nl, p, s, k)),
        }
        if self.include_scalar:
            out["beta"] = zeta[off["beta"][0]:off["beta"][1]].reshape(nl, p)
        if self.include_functional:
            out["b"] = zeta[off["b"][0]:off["b"][1]].reshape(nl, s, k)
        if self.include_interaction:
            out["b_int"] = zeta[off["b_int"][0]:off["b_int"][1]].reshape(nl, p, s, k)
        return out

    def names(self) -> list:
        out = [f"nu_l{l}" for l in self.levels]
        if self.include_scalar:
            out += [f"beta_l{l}_p{p}" for l in self.levels
                    for p in range(1, self.n_scalars + 1)]
        if self.include_functional:
            out += [f"b_l{l}_s{s}_k{k}" for l in self.levels
                    for s in range(1, self.n_functional + 1)
                    for k in range(1, self.n_components + 1)]
        if self.include_interaction:
            out += [f"bint_l{l}_p{p}_s{s}_k{k}" for l in self.levels
                    for p in range(1, self.n_scalars + 1)
                    for s in range(1, self.n_functional + 1)
                    for k in range(1, self.n_components + 1)]
        return out


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


def build_latent_design(unit: UnitRecord, basis: BasisFamily, levels) -> np.ndarray:
    """Latent design: element (u, v) = phi_v(t_iu) over the active levels."""
    return basis_columns(basis, unit.times, levels)


def build_observed_design(
    unit: UnitRecord,
    basis: BasisFamily,
    scores_row: np.ndarray | None,
    r_support: float,
    layout: ZetaLayout,
) -> np.ndarray:
    """Observed design (latent | scalar | functional | interaction) blocks."""
    phi = basis_columns(basis, unit.times, layout.levels)
    blocks = [phi]
    x = unit.scalars
    if layout.include_functional:
        if scores_row is None:
            raise ValueError(f"unit {unit.unit_id}: scores required for a functional design")
        scores_row = np.asarray(scores_row, dtype=float)
        if scores_row.shape != (layout.n_functional, layout.n_components):
            raise ValueError(
                f"unit {unit.unit_id}: scores shape {scores_row.shape} does not match "
                f"layout (S={layout.n_functional}, K={layout.n_components})"
            )
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


@dataclass(frozen=True)
class DesignMatrices:
    """Stacked designs for one dataset under one layout.

    Rows are grouped by unit, ``counts[i]`` rows for unit i.  ``lam`` holds
    each row's latent basis (n_obs, d) and ``lam_gram`` the per-unit blocks
    Lambda_i^T Lambda_i (N, d, d).
    """

    layout: ZetaLayout
    unit_ids: tuple
    omega: np.ndarray
    lam: np.ndarray
    y: np.ndarray
    counts: np.ndarray
    lam_gram: np.ndarray

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)

    @property
    def n_obs(self) -> int:
        return self.y.size


def unit_sums(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum row-indexed values within each unit: (n_obs, ...) -> (N, ...)."""
    return np.add.reduceat(rows, np.cumsum(counts) - counts, axis=0)


def stack_population(layout: ZetaLayout, unit_ids, omegas, lambdas, ys) -> DesignMatrices:
    """Row-stack per-unit designs and responses; form each Lambda_i^T Lambda_i once."""
    widths = {o.shape[1] for o in omegas}
    if len(widths) != 1:
        raise ValueError(f"inconsistent observed-design column counts: {sorted(widths)}")
    counts = np.array([o.shape[0] for o in omegas])
    if np.any(counts < 1):
        raise ValueError("every unit needs at least one observation")
    lam = np.vstack(lambdas)
    return DesignMatrices(
        layout=layout, unit_ids=tuple(unit_ids), omega=np.vstack(omegas), lam=lam,
        y=np.concatenate(ys).astype(float, copy=False), counts=counts,
        lam_gram=unit_sums(lam[:, :, None] * lam[:, None, :], counts),
    )


def _check_full_rank(omega: np.ndarray, layout: ZetaLayout) -> None:
    _, rdiag, piv = sla.qr(omega, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rdiag))
    tol = max(omega.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    rank = int(np.count_nonzero(diag > tol))
    if rank < layout.size:
        names = layout.names()
        offending = sorted(names[j] for j in piv[rank:])
        raise ValueError(
            "rank-deficient observed design; dependent columns: " + ", ".join(offending)
        )


def build_design_matrices(
    ds: DegradationDataset,
    config: ModelConfig,
    scores: np.ndarray | None = None,
    r_support: float | None = None,
) -> DesignMatrices:
    """Build every unit's observed and latent design and stack them.

    ``scores`` is the (N, S, K) score array; required when the functional
    component is active.  Raises on a rank-deficient stacked design unless
    the config enables the ridge jitter fallback.
    """
    if config.include_functional:
        if scores is None:
            raise ValueError("functional component active but no scores supplied")
        if isinstance(scores, ScoreSet):
            scores = scores.values
        scores = np.asarray(scores, dtype=float)
        if scores.ndim != 3 or scores.shape[0] != ds.n_units:
            raise ValueError("scores must have shape (n_units, S, K)")
        n_components = scores.shape[2]
    else:
        n_components = 0
    if r_support is None:
        r_support = ds.r_support

    layout = layout_for(config, ds.n_scalars, ds.n_functional, n_components)
    omegas = [
        build_observed_design(unit, config.basis, scores[i] if config.include_functional else None,
                              r_support, layout)
        for i, unit in enumerate(ds.units)
    ]
    dm = stack_population(
        layout,
        [u.unit_id for u in ds.units],
        omegas,
        [build_latent_design(u, config.basis, layout.levels) for u in ds.units],
        [u.responses for u in ds.units],
    )
    if not config.ridge_jitter:
        _check_full_rank(dm.omega, layout)
    return dm
