"""Synthetic ground-truth generator for the full degradation model.

All randomness flows from the single seed of a portable generator so every
draw is reproducible across platforms; the data follows the model exactly,
through the ``ZetaLayout`` covariate map the fit and prediction use, which
makes it the verification backbone for the estimator and evaluation layers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import BasisFamily, DegradationDataset, ModelConfig, basis_columns
from .design import ZetaLayout, layout_for
from .fpca import inner_weights

_ORTHO_TOL = 1e-8


def check_seed(seed) -> None:
    """SyntheticSpec's rule for the seed: it is nonnegative."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Everything needed to draw one dataset: sizes, truth, samplers, seed."""

    n_units: int
    n_obs: int
    basis: BasisFamily
    center_baseline: bool
    scalar_ranges: tuple
    zeta: np.ndarray
    sigma_eps2: float
    sigma_gamma: np.ndarray
    r_grid: np.ndarray
    mean_curve: np.ndarray
    modes: np.ndarray
    score_variances: np.ndarray
    times: np.ndarray
    seed: int = 0

    def __post_init__(self):
        for name in ("zeta", "sigma_gamma", "r_grid", "mean_curve", "modes",
                     "score_variances", "times"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        check_seed(self.seed)
        if self.n_units < 1 or self.n_obs < 1:
            raise ValueError("n_units and n_obs must be positive")
        if self.sigma_eps2 < 0:
            raise ValueError("sigma_eps2 must be nonnegative")
        if self.score_variances.size < 1 or np.any(self.score_variances < 0):
            raise ValueError("score_variances must be nonempty and nonnegative")
        sg, d = self.sigma_gamma, self.layout.n_levels
        if sg.shape != (d, d):
            raise ValueError(f"sigma_gamma must be {d}x{d}")
        if np.any(np.linalg.eigvalsh((sg + sg.T) / 2.0) < -1e-12):
            raise ValueError("sigma_gamma must be positive semidefinite")
        if self.zeta.shape != (self.layout.size,):
            raise ValueError(f"zeta must have length {self.layout.size}")
        if self.r_grid.ndim != 1 or self.r_grid.size < 2 or np.any(np.diff(self.r_grid) <= 0):
            raise ValueError("r_grid must rise strictly through at least two points")
        if self.modes.shape != (self.n_components, self.r_grid.size):
            raise ValueError("modes must have shape (K_true, len(r_grid))")
        w = inner_weights(self.r_grid)
        gram = self.modes @ (w[:, None] * self.modes.T)
        if np.max(np.abs(gram - np.eye(self.n_components)), initial=0.0) > _ORTHO_TOL:
            raise ValueError("modes are not orthonormal under the (1/R) inner product")
        if self.mean_curve.shape != self.r_grid.shape:
            raise ValueError("mean_curve must have len(r_grid) values")
        if self.times.shape != (self.n_obs,):
            raise ValueError("time grid length must equal n_obs")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must rise strictly")

    @property
    def n_scalars(self) -> int:
        return len(self.scalar_ranges)

    @property
    def n_functional(self) -> int:
        return 1

    @property
    def n_components(self) -> int:
        return self.score_variances.size

    @property
    def config(self) -> ModelConfig:
        return ModelConfig(
            basis=self.basis,
            k=self.n_components,
            center_baseline=self.center_baseline,
        )

    @property
    def layout(self) -> ZetaLayout:
        return layout_for(self.config, self.n_scalars, self.n_functional, self.n_components)

    @property
    def r_support(self) -> float:
        return float(self.r_grid[-1] - self.r_grid[0])


@dataclass(frozen=True)
class TruthRecord:
    """Ground truth behind one generated dataset."""

    zeta: np.ndarray
    sigma_eps2: float
    sigma_gamma: np.ndarray
    gamma: np.ndarray
    scores: np.ndarray
    eta: np.ndarray
    layout: ZetaLayout
    r_support: float


def default_spec(seed: int = 0, **overrides) -> SyntheticSpec:
    """Desk-scale spec: 60 units x 30 observations, one scalar, one curve."""
    if "n_obs" in overrides and "times" not in overrides:
        overrides["times"] = np.linspace(0.0, 3.0, max(int(overrides["n_obs"]), 0))
    r_grid = np.linspace(0.0, 10.0, 101)
    r = r_grid / r_grid[-1]
    modes = np.vstack([
        np.sqrt(2.0) * np.sin(2.0 * np.pi * r),
        np.sqrt(2.0) * np.cos(2.0 * np.pi * r),
    ])
    spec = SyntheticSpec(
        n_units=60,
        n_obs=30,
        basis=BasisFamily("polynomial", 1),
        center_baseline=True,
        scalar_ranges=((0.5, 3.0),),
        zeta=np.array([0.8, 0.5, 0.12, -0.08, 0.06, 0.05]),
        sigma_eps2=0.01,
        sigma_gamma=np.array([[0.0025]]),
        r_grid=r_grid,
        mean_curve=1.5 * np.exp(-r_grid / 4.0),
        modes=modes,
        score_variances=np.array([1.0, 0.5]),
        times=np.linspace(0.0, 3.0, 30),
        seed=seed,
    )
    return replace(spec, **overrides) if overrides else spec


def generate_functional_covariates(spec: SyntheticSpec, rng: np.random.Generator):
    """Draw per-unit curves mean + sum_k c_k psi_k with c_k ~ N(0, lambda_k).

    Returns (curves, scores) with shapes (N, S, G) and (N, S, K).
    """
    n, s, k = spec.n_units, spec.n_functional, spec.n_components
    scores = rng.normal(0.0, 1.0, size=(n, s, k)) * np.sqrt(spec.score_variances)[None, None, :]
    curves = spec.mean_curve[None, None, :] + np.einsum("nsk,kg->nsg", scores, spec.modes)
    return curves, scores


def generate_dataset(spec: SyntheticSpec):
    """Draw one dataset plus its :class:`TruthRecord`."""
    rng = np.random.default_rng(spec.seed)
    layout = spec.layout

    scalars = np.column_stack([
        rng.uniform(lo, hi, size=spec.n_units) for (lo, hi) in spec.scalar_ranges
    ])
    curves, scores = generate_functional_covariates(spec, rng)
    # explicit PSD factor so singular (even zero) covariances draw fine
    sg = (spec.sigma_gamma + spec.sigma_gamma.T) / 2.0
    evals, evecs = np.linalg.eigh(sg)
    factor = evecs * np.sqrt(np.clip(evals, 0.0, None))[None, :]
    gamma = rng.standard_normal((spec.n_units, layout.n_levels)) @ factor.T
    eta = sum(layout.components(spec.zeta, layout.features(scalars, scores, spec.r_support))
              .values()) + gamma

    phi = basis_columns(spec.basis, spec.times, layout.levels)
    noise = rng.normal(0.0, np.sqrt(spec.sigma_eps2), size=(spec.n_units, spec.n_obs))
    width = len(str(spec.n_units))
    ds = DegradationDataset(
        unit_ids=tuple(f"u{i:0{width}d}" for i in range(1, spec.n_units + 1)),
        counts=np.full(spec.n_units, spec.n_obs),
        times=np.tile(spec.times, spec.n_units),
        responses=(eta @ phi.T + noise).ravel(),
        scalars=scalars,
        curves=curves,
        r_grid=spec.r_grid,
    )
    truth = TruthRecord(
        zeta=spec.zeta.copy(),
        sigma_eps2=spec.sigma_eps2,
        sigma_gamma=spec.sigma_gamma.copy(),
        gamma=gamma,
        scores=scores,
        eta=eta,
        layout=layout,
        r_support=spec.r_support,
    )
    return ds, truth
