"""The compressed design against the stacked design it replaces.

``build_design_matrices`` keeps d + 1 rows per unit, the triangular factor
of [Lambda_i y_i]; the stacked design (``stacked_design_matrices``) has one
row per observation, zero-padded to the longest unit's length.  The
estimator reads no more of a unit's rows than their Gram matrix and the
observation count, so on either design every update, the log-likelihood
and a whole fit must agree to rounding.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

import degramix.estimator as estimator
from degramix.data import BasisFamily
from degramix.design import build_design_matrices
from degramix.estimator import (
    Parameters,
    _px_step,
    _px_sums,
    e_step,
    fit_em,
    marginal_loglik,
    update_sigma_eps,
    update_zeta,
)
from degramix.simulate import default_spec, generate_dataset
from _oracles import stack_units, stacked_design_matrices

TOL = 1e-10


def rel(got, want) -> float:
    """Largest absolute difference relative to ``want``'s largest entry."""
    want = np.asarray(want, dtype=float)
    return float(np.max(np.abs(np.asarray(got) - want)) / max(np.max(np.abs(want)), 1e-300))


def ragged_case(seed, order, ridge):
    """60 units whose series keep 1, 2, ..., 12 observations in turn, so
    under basis order 2 some units have no more observations than levels."""
    spec = default_spec(seed=seed, n_units=60, n_obs=12)
    ds, truth = generate_dataset(spec)
    ds = stack_units((replace(u, times=u.times[:1 + i % 12], responses=u.responses[:1 + i % 12])
                      for i, u in enumerate(ds.units)), ds.r_grid)
    config = replace(spec.config, basis=BasisFamily("polynomial", order), ridge_jitter=ridge)
    return ds, config, truth.scores


def g_bar(dm) -> float:
    return float(np.trace(dm.lam_gram.sum(axis=0))) / dm.n_obs


CASES = [(seed, order, ridge) for seed in (0, 1) for order in (1, 2) for ridge in (False, True)]


@pytest.mark.parametrize("seed,order,ridge", CASES)
def test_updates_match_the_stacked_design(seed, order, ridge):
    ds, config, scores = ragged_case(seed, order, ridge)
    dm = build_design_matrices(ds, config, scores=scores)
    st = stacked_design_matrices(ds, config, scores)
    assert min(ds.counts) <= dm.layout.n_levels
    assert dm.n_obs == st.n_obs == ds.n_obs and dm.y.size == ds.n_units * (dm.layout.n_levels + 1)
    rng = np.random.default_rng(seed)
    d = dm.layout.n_levels
    a = rng.normal(size=(d, d))
    params = Parameters(rng.normal(size=dm.layout.size), float(rng.uniform(0.05, 0.5)),
                        a @ a.T + 0.1 * np.eye(d))

    post, post_st = e_step(params, dm), e_step(params, st)
    assert rel(post.mu, post_st.mu) <= TOL and rel(post.v, post_st.v) <= TOL
    zeta, zeta_st = update_zeta(post, dm), update_zeta(post_st, st)
    assert rel(zeta, zeta_st) <= TOL
    assert rel(update_sigma_eps(post, zeta, dm), update_sigma_eps(post_st, zeta_st, st)) <= TOL
    assert rel(marginal_loglik(params, dm), marginal_loglik(params, st)) <= TOL

    step = _px_step(params, dm, config, _px_sums(dm), g_bar(dm))
    step_st = _px_step(params, st, config, _px_sums(st), g_bar(st))
    assert rel(step.zeta, step_st.zeta) <= TOL
    assert rel(step.sigma_eps2, step_st.sigma_eps2) <= TOL
    assert rel(step.sigma_gamma, step_st.sigma_gamma) <= TOL


@pytest.mark.parametrize("seed,order,ridge", CASES)
def test_fit_matches_the_stacked_design(seed, order, ridge, monkeypatch):
    # order 1 runs to its stop rule.  Order 2 runs three SQUAREM cycles:
    # run to its stop rule, sigma_gamma ends near its zero boundary here, and
    # permuting the stacked design's units alone moves it by up to 2.4e-10
    # (by up to 3.6e-5 on order-2 data with a latent variance to estimate)
    stop = {} if order == 1 else {"max_iter": 3, "tol": 0.0}
    ds, config, scores = ragged_case(seed, order, ridge)
    fit = fit_em(ds, config, scores=scores, **stop)
    stacked = []
    monkeypatch.setattr(estimator, "build_design_matrices", lambda ds, config, scores=None:
                        stacked.append(stacked_design_matrices(ds, config, scores)) or stacked[-1])
    ref = fit_em(ds, config, scores=scores, **stop)
    # the reference ran on one row per observation, zero-padded to 12 per unit
    assert np.array_equal(stacked[0].counts, ds.counts) and stacked[0].y.shape == (60, 12)
    assert fit.iterations == ref.iterations and fit.converged == ref.converged
    assert fit.converged == (order == 1)
    assert rel(fit.params.zeta, ref.params.zeta) <= TOL
    assert rel(fit.params.sigma_eps2, ref.params.sigma_eps2) <= TOL
    assert rel(fit.params.sigma_gamma, ref.params.sigma_gamma) <= TOL
    assert rel(fit.loglik_trace, ref.loglik_trace) <= TOL
    assert rel(fit.posterior.mu, ref.posterior.mu) <= TOL


@pytest.mark.parametrize("ragged", [False, True])
def test_rank_deficient_design_names_the_same_columns(ragged):
    ds, config, _ = ragged_case(3, 1, False)
    if not ragged:
        ds = stack_units(generate_dataset(default_spec(seed=3, n_units=30, n_obs=8))[0].units,
                         ds.r_grid)
    # a scalar column and its copy, and a column proportional to it
    ds = replace(ds, scalars=np.column_stack([ds.scalars, ds.scalars, -2.0 * ds.scalars]))
    config = replace(config, include_functional=False, include_interaction=False)
    with pytest.raises(ValueError, match="rank-deficient") as compressed:
        build_design_matrices(ds, config)
    with pytest.raises(ValueError, match="rank-deficient") as stacked:
        stacked_design_matrices(ds, config).omega_factor
    assert str(compressed.value) == str(stacked.value)


def _design_arrays(dm) -> dict:
    """Every array a design holds: its fields and its cached factor."""
    arrays = {f.name: getattr(dm, f.name) for f in fields(dm)}
    arrays.update((f"omega_factor[{i}]", a) for i, a in enumerate(dm.omega_factor))
    return {name: a for name, a in arrays.items() if isinstance(a, np.ndarray)}


@pytest.mark.parametrize("latent", [True, False])
def test_design_size_does_not_grow_with_the_series(latent, monkeypatch):
    # 40 units observed 30 times or 300 times hold designs of one shape,
    # every field one block per unit
    built = []
    build = estimator.build_design_matrices
    monkeypatch.setattr(estimator, "build_design_matrices",
                        lambda *args, **kwargs: built.append(build(*args, **kwargs)) or built[-1])
    shapes = []
    for m in (30, 300):
        spec = default_spec(seed=9, n_units=40, n_obs=m)
        ds, truth = generate_dataset(spec)
        fit_em(ds, replace(spec.config, include_latent=latent), scores=truth.scores,
               max_iter=3, tol=0.0)
        dm = built[-1]
        arrays = _design_arrays(dm)
        assert dm.n_obs == ds.n_obs == 40 * m
        assert all(a.shape[0] != ds.n_obs for a in arrays.values())
        assert all(getattr(dm, f.name).shape[0] == 40 for f in fields(dm) if f.name in arrays)
        shapes.append({name: a.shape for name, a in arrays.items()})
    assert shapes[0] == shapes[1]
