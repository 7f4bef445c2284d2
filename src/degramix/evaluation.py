"""Prediction, goodness-of-fit, information criteria, CV, and effect splits.

Cross-validation folds are drawn over units, not over time: a held-out unit
has no latent posterior, so unit-level folds measure honest generalization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import BasisFamily, DatasetRuleError, DegradationDataset, ModelConfig, basis_columns
from .estimator import FitResult, NumericalError, _linalg_failures, check_stopping, fit_em
from .fpca import fit_scores, project_scores


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
    raise DatasetRuleError("curves",
                           f"the dataset's curve grid differs from the fit's FPCA grid: {detail}")


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
        if ds.n_functional != len(fit.fpca_models):
            raise DatasetRuleError("curves", f"the dataset holds S = {ds.n_functional} functional "
                                   f"covariates against the fit's S = {len(fit.fpca_models)}")
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


def check_fraction(fraction: float) -> None:
    """temporal_split's rule for the split fraction: 0 < fraction < 1."""
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"split fraction must lie in (0, 1), got {fraction!r}")


def temporal_split(ds: DegradationDataset, fraction: float) -> tuple:
    """(train, test): per unit, the first floor(fraction * m_i) observations
    train and the rest test.  As fraction < 1 leaves floor(fraction * m_i)
    < m_i, every unit lands in both halves."""
    check_fraction(fraction)
    n_train = np.floor(fraction * ds.counts).astype(np.int64)
    if np.any(n_train < 1):
        uid = ds.unit_ids[int(np.argmax(n_train < 1))]
        raise ValueError(f"unit {uid}: empty train split at fraction {fraction}")
    rows = ds.unit_rows
    train = np.arange(ds.n_obs) - ds.offsets[rows] < n_train[rows]
    return ds.take(train), ds.take(~train)


def check_folds(k: int, n_units: int) -> None:
    """kfold_cv's rule for the fold count: 2 <= k <= n_units."""
    if not (2 <= k <= n_units):
        raise ValueError("folds must satisfy 2 <= k <= n_units")


def kfold_cv(ds: DegradationDataset, config: ModelConfig, k: int, seed: int,
             max_iter: int = 500, tol: float = 1e-8) -> float:
    """Unit-level k-fold CV: total squared error predicting held-out units."""
    n = ds.n_units
    check_folds(k, n)
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


def fit_and_score(train: DegradationDataset, test: DegradationDataset, config: ModelConfig,
                  max_iter: int = 500, tol: float = 1e-8, name: str = "model",
                  scores: np.ndarray | None = None) -> tuple:
    """Fit ``config`` on ``train`` and score it: R² and MSE on ``train``, MSE
    on ``test`` (the halves of ``temporal_split``), log-likelihood, AIC and
    BIC.  ``scores`` as in ``fit_em``.  Returns (Metrics, FitResult)."""
    fit = fit_em(train, config, max_iter=max_iter, tol=tol, scores=scores)
    r2, mse_train = residual_metrics(train.responses, predict_unit(fit, train, use_latent=True))
    mse_test = float(np.mean((test.responses - predict_unit(fit, test, use_latent=True)) ** 2))
    aic, bic = information_criteria(fit.loglik, count_parameters(fit), train.n_units)
    metrics = Metrics(model=name, r2=r2, loglik=fit.loglik, aic=aic, bic=bic,
                      mse_train=mse_train, mse_test=mse_test)
    return metrics, fit


def _train_scores(train: DegradationDataset, config: ModelConfig) -> np.ndarray:
    """The (N, S, K) FPCA scores ``fit_em`` would compute for ``config`` on
    ``train``, read-only so that no variant can change what the next sees."""
    with _linalg_failures():
        _, scores = fit_scores(train.curves, train.r_grid, config.k, config.fve_threshold)
    scores.setflags(write=False)
    return scores


def _once(cache: dict, key, make):
    """``make()``, called once per ``key``; the ValueError or NumericalError
    it raised is raised again on each later call with that key."""
    if key not in cache:
        try:
            cache[key] = make()
        except (ValueError, NumericalError) as exc:
            cache[key] = exc
    if isinstance(cache[key], Exception):
        raise cache[key]
    return cache[key]


def compare_models(ds: DegradationDataset, variants, split_fraction: float = 0.8,
                   micro_scalar: np.ndarray | None = None,
                   max_iter: int = 500, tol: float = 1e-8) -> list:
    """Fit every variant and collect the comparison table.

    A failing variant yields a row with its error message; the others still
    run.  ``micro_scalar`` supplies the per-unit scalar microstructure value
    required by variants flagged ``use_micro_scalar``.  A bad split or
    stopping rule fails every variant alike, so it raises before any fit.

    Every variant is fitted on one temporal split (one more for the data of
    the ``use_micro_scalar`` variants, whose scalars differ), and the
    functional variants share one FPCA of the train curves per (k,
    fve_threshold).  Each is made at its first use, so a variant gets the
    row, error included, that ``fit_and_score`` on its own split and FPCA
    would give it.
    """
    check_fraction(split_fraction)
    check_stopping(max_iter, tol)
    shared = {}
    rows = []
    for variant in variants:
        data = ds
        if variant.use_micro_scalar:
            if micro_scalar is None:
                rows.append(Metrics(model=variant.name,
                                    error="missing scalar microstructure covariate"))
                continue
            data = _with_micro_scalar(ds, micro_scalar)
        config = variant.config
        try:
            train, test = _once(shared, ("split", variant.use_micro_scalar),
                                lambda: temporal_split(data, split_fraction))
            scores = None
            # both splits keep ds's curves; without curves fit_em raises its own error
            if config.include_functional and train.n_functional:
                scores = _once(shared, ("fpca", config.k, config.fve_threshold),
                               lambda: _train_scores(train, config))
            metrics, _ = fit_and_score(train, test, config, max_iter, tol, variant.name, scores)
        except (ValueError, NumericalError) as exc:
            metrics = Metrics(model=variant.name, error=str(exc))
        rows.append(metrics)
    return rows


def effect_decomposition(fit: FitResult, ds: DegradationDataset) -> dict:
    """Per unit and level, unit-major: the population, scalar,
    functional-marginal, interaction and latent contributions to the fitted
    coefficient, which sum to it.  Equal-length columns keyed like
    ``effects.csv``: ``unit_id``, ``level``, ``population``,
    ``scalar_effect``, ``marginal_effect``, ``interaction_effect`` and
    ``latent_effect``."""
    levels = fit.layout.levels
    terms = _coefficient_terms(fit, ds)
    zero = np.zeros((ds.n_units, len(levels)))
    return {
        "unit_id": np.repeat(np.array(ds.unit_ids, dtype=object), len(levels)),
        "level": np.tile(levels, ds.n_units),
        "population": terms["nu"].ravel(),
        "scalar_effect": terms.get("beta", zero).ravel(),
        "marginal_effect": terms.get("b", zero).ravel(),
        "interaction_effect": terms.get("b_int", zero).ravel(),
        "latent_effect": _latent_terms(fit, ds).ravel(),
    }
