"""Prediction, goodness-of-fit, information criteria, CV, and effect splits.

Cross-validation folds are drawn over units, not over time: a held-out unit
has no latent posterior, so unit-level folds measure honest generalization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress

import numpy as np

from .data import BasisFamily, DegradationDataset, ModelConfig, basis_columns
from .estimator import FitResult, NumericalError, fit_em
from .fpca import project_scores


@dataclass(frozen=True)
class ModelVariant:
    """Named model structure from the comparison family."""

    name: str
    config: ModelConfig
    use_micro_scalar: bool = False


@dataclass(frozen=True)
class Metrics:
    """One comparison-table row; ``error`` is set when the variant failed."""

    model: str
    r2: float = np.nan
    loglik: float = np.nan
    aic: float = np.nan
    bic: float = np.nan
    mse_train: float = np.nan
    mse_test: float = np.nan
    error: str | None = None


def table1_variants(k: int | None = None, fve_threshold: float | None = None) -> dict:
    """The seven-model comparison family, keyed by name.

    Model 6 swaps the functional microstructure covariate for a user-supplied
    scalar one (plus its products with the other scalars), so its interaction
    lives entirely in the scalar block.  An ``fve_threshold`` left at None
    takes the ``ModelConfig`` default.
    """
    fve = {} if fve_threshold is None else {"fve_threshold": fve_threshold}

    def cfg(**kw):
        return ModelConfig(k=k, center_baseline=True, **fve, **kw)

    return {
        "Model1": ModelVariant("Model1", cfg(include_functional=False, include_interaction=False,
                                             include_latent=False)),
        "Model2": ModelVariant("Model2", cfg(include_scalar=False, include_interaction=False,
                                             include_latent=False)),
        "Model3": ModelVariant("Model3", cfg(include_interaction=False, include_latent=False)),
        "Model4": ModelVariant("Model4", cfg(include_latent=False)),
        "Model5": ModelVariant("Model5", cfg(include_latent=False,
                                             basis=BasisFamily("polynomial", 2))),
        "Model6": ModelVariant("Model6", cfg(include_functional=False, include_interaction=False,
                                             include_latent=False), use_micro_scalar=True),
        "Model7": ModelVariant("Model7", cfg()),
    }


def _unit_indices(fit: FitResult, unit_ids) -> np.ndarray:
    """Each unit's row in the fit's per-unit arrays, -1 for units it did not see."""
    return np.array([-1 if i is None else i for i in map(fit.unit_index, unit_ids)], dtype=int)


def _check_grid(data_grid: np.ndarray, fit_grid: np.ndarray) -> None:
    """Raise unless a dataset's curves lie on the grid of a fit's FPCA basis.
    A grid read back from CSV is bit-exact, so the grids must be equal."""
    if np.array_equal(data_grid, fit_grid):
        return
    if data_grid.size == fit_grid.size:
        i = int(np.argmax(data_grid != fit_grid))
        detail = f"r[{i}] = {float(data_grid[i])!r} against the fit's {float(fit_grid[i])!r}"
    else:
        detail = f"{data_grid.size} points against the fit's {fit_grid.size}"
    raise ValueError(f"the dataset's curve grid differs from the fit's FPCA grid: {detail}")


def _unit_scores(fit: FitResult, ds: DegradationDataset) -> np.ndarray | None:
    """(N, S, K) scores under the fit's basis: stored for trained units,
    projected on the fit's FPCA basis for the others, one unit's curve at a
    time so its scores do not depend on the units projected beside it."""
    if not fit.config.include_functional:
        return None
    idx = _unit_indices(fit, ds.unit_ids)
    known = idx >= 0
    out = np.empty((ds.n_units, fit.layout.n_functional, fit.layout.n_components))
    out[known] = fit.scores[idx[known]]
    if not known.all():
        if fit.fpca_models is None:
            raise ValueError(f"missing scores for unit {ds.unit_ids[int(np.argmin(known))]}: "
                             "fit carries no FPCA basis")
        for model in fit.fpca_models:
            _check_grid(ds.r_grid, model.r_grid)
        new = ds.curves[~known]
        out[~known] = np.stack([project_scores(m, new[:, s, None])[:, 0]
                                for s, m in enumerate(fit.fpca_models)], axis=1)
    return out


def _coefficient_terms(fit: FitResult, ds: DegradationDataset) -> dict:
    """Each term's (N, L) contribution to the units' fitted coefficients,
    keyed by layout segment, from the layout's covariate map."""
    features = fit.layout.features(ds.scalars, _unit_scores(fit, ds), fit.r_support)
    return fit.layout.components(fit.params.zeta, features)


def _latent_terms(fit: FitResult, ds: DegradationDataset) -> np.ndarray:
    """(N, L) posterior mean latent term of each unit the fit saw, zero for
    the others."""
    latent = np.zeros((ds.n_units, fit.layout.n_levels))
    if fit.params.latent_dim:
        idx = _unit_indices(fit, ds.unit_ids)
        latent[idx >= 0] = fit.posterior.mu[idx[idx >= 0]]
    return latent


def predict_unit(fit: FitResult, ds: DegradationDataset, use_latent: bool = True) -> np.ndarray:
    """Predicted responses sum_l eta_hat_l phi_l(t) of every unit of ``ds``,
    one n_obs vector in dataset row order.

    ``use_latent`` adds the posterior mean latent term of each unit the fit
    saw; a unit it did not see gets no latent term, and its curves, which
    must lie on the grid of the fit's FPCA basis, are projected on it.
    """
    eta = sum(_coefficient_terms(fit, ds).values())
    if use_latent:
        eta = eta + _latent_terms(fit, ds)
    phi = basis_columns(fit.config.basis, ds.times, fit.layout.levels)
    return np.einsum("nl,nl->n", phi, eta[ds.unit_rows])


def residual_metrics(y, y_hat):
    """(r2, mse) of predictions against observations pooled over everything."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape or y.size < 2:
        raise ValueError("residual metrics need >= 2 paired observations")
    sse = float(np.sum((y - y_hat) ** 2))
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        raise ValueError("zero total sum of squares: constant responses")
    return 1.0 - sse / sst, sse / y.size


def information_criteria(loglik: float, p: int, n: int):
    """(aic, bic) = -2 loglik + p*k with k = 2 and k = ln(n)."""
    if p < 0 or n < 1:
        raise ValueError("p must be nonnegative and n positive")
    aic = -2.0 * loglik + 2.0 * p
    bic = -2.0 * loglik + p * float(np.log(n))
    return aic, bic


def count_parameters(fit: FitResult) -> int:
    """Free parameters: zeta entries + 1 (noise) + free sigma_gamma entries."""
    p = fit.layout.size + 1
    d = fit.params.latent_dim
    if d:
        p += d if fit.config.constrain_sigma_gamma_diagonal else d * (d + 1) // 2
    return p


def temporal_split(ds: DegradationDataset, fraction: float):
    """Per unit, the first floor(fraction * m_i) observations train and the
    rest test; a unit with no test observation is left out of the test set,
    which is None when no unit has one."""
    if not (0.0 < fraction < 1.0):
        raise ValueError("split fraction must lie in (0, 1)")
    n_train = np.floor(fraction * ds.counts).astype(np.int64)
    if np.any(n_train < 1):
        uid = ds.unit_ids[int(np.argmax(n_train < 1))]
        raise ValueError(f"unit {uid}: empty train split at fraction {fraction}")
    rows = ds.unit_rows
    train_rows = np.arange(ds.n_obs) - ds.offsets[rows] < n_train[rows]
    train = replace(ds, counts=n_train, times=ds.times[train_rows],
                    responses=ds.responses[train_rows])
    tested = n_train < ds.counts
    if not tested.any():
        return train, None
    test = DegradationDataset(tuple(compress(ds.unit_ids, tested)), (ds.counts - n_train)[tested],
                              ds.times[~train_rows], ds.responses[~train_rows],
                              ds.scalars[tested], ds.curves[tested], ds.r_grid)
    return train, test


def kfold_cv(ds: DegradationDataset, config: ModelConfig, k: int, seed: int,
             max_iter: int = 500, tol: float = 1e-8) -> float:
    """Unit-level k-fold CV: total squared error predicting held-out units."""
    n = ds.n_units
    if not (2 <= k <= n):
        raise ValueError("folds must satisfy 2 <= k <= n_units")
    rng = np.random.default_rng(seed)
    folds = np.array_split(rng.permutation(n), k)
    total = 0.0
    for fold in folds:
        held = np.zeros(n, dtype=bool)
        held[fold] = True
        fit = fit_em(ds.select(~held), config, max_iter=max_iter, tol=tol)
        test = ds.select(held)
        total += float(np.sum((test.responses - predict_unit(fit, test, use_latent=False)) ** 2))
    return total


def _with_micro_scalar(ds: DegradationDataset, micro: np.ndarray) -> DegradationDataset:
    """Scalar block for the scalar-microstructure variant: [x, micro, x*micro]."""
    micro = np.asarray(micro, dtype=float)
    if micro.shape != (ds.n_units,):
        raise ValueError("micro_scalar must hold one value per unit")
    x = ds.scalars
    return replace(ds, scalars=np.column_stack([x, micro, x * micro[:, None]]))


def fit_and_score(ds: DegradationDataset, config: ModelConfig, split_fraction: float = 0.8,
                  max_iter: int = 500, tol: float = 1e-8, name: str = "model") -> tuple:
    """Split, fit on train, and score one config; returns (Metrics, FitResult)."""
    train, test = temporal_split(ds, split_fraction)
    fit = fit_em(train, config, max_iter=max_iter, tol=tol)
    dm = fit.design
    r2, mse_train = residual_metrics(
        dm.y, dm.omega @ fit.params.zeta + dm.latent_mean(fit.posterior.mu))

    mse_test = np.nan
    if test is not None:
        mse_test = float(np.mean((test.responses - predict_unit(fit, test, use_latent=True)) ** 2))

    ll = fit.loglik
    p = count_parameters(fit)
    aic, bic = information_criteria(ll, p, train.n_units)
    metrics = Metrics(model=name, r2=r2, loglik=ll, aic=aic, bic=bic,
                      mse_train=mse_train, mse_test=mse_test)
    return metrics, fit


def compare_models(ds: DegradationDataset, variants, split_fraction: float = 0.8,
                   micro_scalar: np.ndarray | None = None,
                   max_iter: int = 500, tol: float = 1e-8) -> list:
    """Fit every variant and collect the comparison table.

    A failing variant yields a row with its error message; the others still
    run.  ``micro_scalar`` supplies the per-unit scalar microstructure value
    required by variants flagged ``use_micro_scalar``.
    """
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
            metrics, _ = fit_and_score(data, variant.config, split_fraction,
                                       max_iter=max_iter, tol=tol, name=variant.name)
        except (ValueError, NumericalError) as exc:
            metrics = Metrics(model=variant.name, error=str(exc))
        rows.append(metrics)
    return rows


@dataclass(frozen=True)
class EffectRow:
    """One unit/level split of the fitted coefficient into its components."""

    unit_id: str
    level: int
    population: float
    scalar_effect: float
    marginal_effect: float
    interaction_effect: float
    latent_effect: float

    @property
    def eta(self) -> float:
        return (self.population + self.scalar_effect + self.marginal_effect
                + self.interaction_effect + self.latent_effect)


def effect_decomposition(fit: FitResult, ds: DegradationDataset) -> list:
    """Per unit and level: population, scalar, functional-marginal,
    interaction and latent contributions to the fitted coefficient."""
    layout = fit.layout
    terms = _coefficient_terms(fit, ds)
    zero = np.zeros((ds.n_units, layout.n_levels))
    columns = [terms["nu"], terms.get("beta", zero), terms.get("b", zero),
               terms.get("b_int", zero), _latent_terms(fit, ds)]
    return [
        EffectRow(uid, level, *(float(c[i, li]) for c in columns))
        for i, uid in enumerate(ds.unit_ids)
        for li, level in enumerate(layout.levels)
    ]
