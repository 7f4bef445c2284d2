import numpy as np
import pytest

from degramix.data import BasisFamily
from degramix.estimator import Parameters, LatentPosterior, FitResult, fit_em
from degramix.evaluation import predict_unit
from degramix.simulate import (
    SyntheticSpec,
    default_spec,
    generate_dataset,
    generate_functional_covariates,
)
from _oracles import coefficient_levels


class TestFunctionalCovariates:
    def test_zero_variances_give_mean_curve(self):
        spec = default_spec(score_variances=np.array([0.0, 0.0]))
        curves, scores = generate_functional_covariates(spec, np.random.default_rng(0))
        assert np.array_equal(scores, np.zeros_like(scores))
        assert np.allclose(curves, spec.mean_curve[None, None, :])

    def test_same_seed_identical(self):
        spec = default_spec(seed=5)
        a, _ = generate_functional_covariates(spec, np.random.default_rng(5))
        b, _ = generate_functional_covariates(spec, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_score_variances_close_to_targets(self):
        spec = default_spec(n_units=500)
        _, scores = generate_functional_covariates(spec, np.random.default_rng(1))
        sample_var = scores[:, 0, :].var(axis=0)
        assert np.allclose(sample_var, spec.score_variances, rtol=0.1)

    def test_non_orthonormal_modes_rejected(self):
        spec = default_spec()
        with pytest.raises(ValueError, match="orthonormal"):
            default_spec(modes=spec.modes * 1.5)


class TestGenerateDataset:
    def test_noiseless_lies_on_coefficient_surface(self):
        spec = default_spec(seed=2, n_units=6, n_obs=7, sigma_eps2=0.0,
                            sigma_gamma=np.zeros((1, 1)))
        ds, truth = generate_dataset(spec)
        for i, u in enumerate(ds.units):
            expected = truth.eta[i, 0] * u.times  # single slope level
            assert np.max(np.abs(u.responses - expected)) <= 1e-12

    def test_same_seed_bit_identical(self):
        a, _ = generate_dataset(default_spec(seed=9))
        b, _ = generate_dataset(default_spec(seed=9))
        for ua, ub in zip(a.units, b.units):
            assert np.array_equal(ua.responses, ub.responses)
            assert np.array_equal(ua.scalars, ub.scalars)
            assert np.array_equal(ua.curves, ub.curves)

    def test_different_seed_differs(self):
        a, _ = generate_dataset(default_spec(seed=1))
        b, _ = generate_dataset(default_spec(seed=2))
        assert not np.array_equal(a.units[0].responses, b.units[0].responses)

    def test_variance_decomposition_single_time(self):
        # m = 1 at t = 1: Var(y - mean path) = sigma_eps2 + slope variance
        spec = default_spec(seed=3, n_units=1000, n_obs=1, times=np.array([1.0]),
                            sigma_eps2=0.04, sigma_gamma=np.array([[0.09]]))
        ds, truth = generate_dataset(spec)
        fixed = truth.eta[:, 0] - truth.gamma[:, 0]
        resid = np.array([u.responses[0] for u in ds.units]) - fixed
        assert resid.var() == pytest.approx(0.04 + 0.09, rel=0.1)

    def test_truth_record_consistent_with_layout(self):
        spec = default_spec(seed=4)
        _, truth = generate_dataset(spec)
        assert truth.zeta.shape == (truth.layout.size,)
        assert truth.gamma.shape == (spec.n_units, truth.layout.n_levels)
        assert truth.scores.shape == (spec.n_units, 1, spec.n_components)


def order2_spec(seed):
    """Two scalars, a quadratic basis (levels 1 and 2) and correlated latent
    levels: P > 1 interaction terms at every level."""
    return default_spec(
        seed=seed, n_units=25, n_obs=8,
        basis=BasisFamily("polynomial", 2),
        scalar_ranges=((0.5, 3.0), (-1.0, 2.0)),
        zeta=np.linspace(-0.2, 0.3, 18),
        sigma_gamma=np.array([[0.04, 0.01], [0.01, 0.02]]),
    )


class TestGeneratorMatchesTermByTermOracle:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_eta_is_the_sum_of_each_term(self, seed):
        spec = order2_spec(seed)
        ds, truth = generate_dataset(spec)
        assert truth.layout.levels == (1, 2) and truth.layout.n_scalars == 2
        fit = FitResult(
            params=Parameters(truth.zeta, spec.sigma_eps2, truth.sigma_gamma),
            posterior=LatentPosterior(truth.gamma, np.zeros((spec.n_units, 2, 2))),
            loglik_trace=np.zeros(1), iterations=0, converged=True, config=spec.config,
            layout=truth.layout, unit_ids=ds.unit_ids, r_support=truth.r_support,
            scores=truth.scores, fpca_models=None,
        )
        expected = np.array([coefficient_levels(fit, u) for u in ds.units])
        assert np.max(np.abs(truth.eta - expected)) <= 1e-12


class TestGeneratorPredictorAgreement:
    def test_true_parameters_reproduce_noise_free_responses(self):
        spec = default_spec(seed=6, n_units=8, n_obs=9, sigma_eps2=0.0)
        ds, truth = generate_dataset(spec)
        params = Parameters(truth.zeta, 1.0, truth.sigma_gamma)
        posterior = LatentPosterior(
            truth.gamma, np.zeros((spec.n_units, truth.layout.n_levels,
                                   truth.layout.n_levels)))
        fit = FitResult(
            params=params, posterior=posterior, loglik_trace=np.zeros(1),
            iterations=0, converged=True, config=spec.config, layout=truth.layout,
            unit_ids=ds.unit_ids, r_support=truth.r_support,
            scores=truth.scores, fpca_models=None,
        )
        pred = predict_unit(fit, ds, use_latent=True)
        assert np.max(np.abs(pred - ds.responses)) <= 1e-12

    def test_recovery_improves_with_size(self):
        errs = []
        for n_units, n_obs in ((15, 8), (60, 30)):
            spec = default_spec(seed=7, n_units=n_units, n_obs=n_obs)
            ds, truth = generate_dataset(spec)
            fit = fit_em(ds, spec.config, scores=truth.scores)
            errs.append(np.linalg.norm(fit.params.zeta - truth.zeta)
                        / np.linalg.norm(truth.zeta))
        assert errs[1] < errs[0]


class TestSpecValidation:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="zeta"):
            default_spec(zeta=np.zeros(3))

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            default_spec(sigma_eps2=-0.1)

    def test_times_length_enforced(self):
        with pytest.raises(ValueError, match="time grid"):
            default_spec(times=np.linspace(0, 1, 5))

    @pytest.mark.parametrize("overrides,message", [
        ({"seed": -1}, "seed must be nonnegative, got -1"),
        ({"score_variances": np.array([1.0, -0.5])}, "score_variances must be nonempty and nonnegative"),
        ({"n_obs": 3, "times": np.array([0.0, 1.0, 1.0])}, "times must rise strictly"),
        ({"r_grid": np.linspace(10.0, 0.0, 101)}, "r_grid must rise strictly"),
    ])
    def test_bad_field_rejected_when_built(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            default_spec(**overrides)
