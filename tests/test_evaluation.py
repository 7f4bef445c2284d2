import math
from dataclasses import fields, replace

import numpy as np
import pytest
from _oracles import coefficient_levels, compare_models_per_variant, stack_units
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from degramix import estimator, evaluation
from degramix.data import BasisFamily, DatasetRuleError, DegradationDataset, ModelConfig
from degramix.estimator import fit_em
from degramix.evaluation import (
    compare_models,
    effect_decomposition,
    fit_and_score,
    information_criteria,
    kfold_cv,
    predict_unit,
    residual_metrics,
    table1_variants,
    temporal_split,
)
from degramix.simulate import default_spec, generate_dataset


def fitted_instance(seed=0, n_units=25, n_obs=12, **spec_overrides):
    spec = default_spec(seed=seed, n_units=n_units, n_obs=n_obs, **spec_overrides)
    ds, truth = generate_dataset(spec)
    fit = fit_em(ds, spec.config, scores=truth.scores)
    return spec, ds, truth, fit


def renamed(ds, index):
    """The one-unit dataset of unit ``index`` under an id no fit has seen."""
    return stack_units((replace(ds.units[index], unit_id="stranger"),), ds.r_grid)


class TestPredictUnit:
    def test_zero_parameters_predict_zero(self):
        spec, ds, truth, fit = fitted_instance(seed=1, n_units=8, n_obs=5)
        from degramix.estimator import Parameters, LatentPosterior
        zero = replace(
            fit,
            params=Parameters(np.zeros_like(fit.params.zeta), 1.0, fit.params.sigma_gamma),
            posterior=LatentPosterior(np.zeros_like(fit.posterior.mu), fit.posterior.v),
        )
        assert np.array_equal(predict_unit(zero, ds), np.zeros(ds.n_obs))

    def test_noiseless_training_points_recovered(self):
        spec, ds, truth, fit = fitted_instance(seed=2, n_units=20, n_obs=10,
                                               sigma_eps2=1e-12)
        pred = predict_unit(fit, ds, use_latent=True)
        assert pred.shape == ds.responses.shape
        assert np.max(np.abs(pred - ds.responses)) <= 1e-4

    def test_latent_toggle_adds_exactly_latent_path(self):
        spec, ds, truth, fit = fitted_instance(seed=3, n_units=10, n_obs=6)
        with_lat = predict_unit(fit, ds, use_latent=True)
        without = predict_unit(fit, ds, use_latent=False)
        phi = ds.times[:, None] ** np.array(fit.layout.levels, dtype=float)[None, :]
        mu = fit.posterior.mu[[fit.unit_index(uid) for uid in ds.unit_ids]]
        latent = np.sum(phi * mu[ds.unit_rows], axis=1)
        assert np.allclose(with_lat - without, latent, atol=1e-12)

    def test_unseen_unit_gets_no_latent_term(self):
        spec = default_spec(seed=4, n_units=8, n_obs=5)
        ds, _ = generate_dataset(spec)
        fit = fit_em(ds, spec.config)
        mixed = stack_units((ds.units[1], replace(ds.units[0], unit_id="stranger")), ds.r_grid)
        with_lat = predict_unit(fit, mixed, use_latent=True)
        without = predict_unit(fit, mixed, use_latent=False)
        seen = mixed.unit_rows == 0
        assert np.array_equal(with_lat[~seen], without[~seen])
        assert not np.array_equal(with_lat[seen], without[seen])

    def test_scores_unavailable_without_fpca_basis(self):
        spec, ds, truth, fit = fitted_instance(seed=4, n_units=6, n_obs=5)
        with pytest.raises(ValueError, match="missing scores for unit stranger"):
            predict_unit(fit, renamed(ds, 0), use_latent=False)

    def test_wrong_scalar_count_rejected(self):
        spec, ds, truth, fit = fitted_instance(seed=4, n_units=6, n_obs=5)
        extra = replace(ds, scalars=np.column_stack([ds.scalars, np.ones(ds.n_units)]))
        with pytest.raises(DatasetRuleError, match="scalars shape") as err:
            predict_unit(fit, extra)
        assert err.value.source == "scalars"

    def test_unseen_unit_projects_scores(self):
        spec = default_spec(seed=5, n_units=12, n_obs=6)
        ds, _ = generate_dataset(spec)
        fit = fit_em(ds, spec.config)  # internal FPCA keeps the basis
        stranger = renamed(ds, 3)
        pred = predict_unit(fit, stranger, use_latent=False)
        assert pred.shape == stranger.times.shape
        assert np.all(np.isfinite(pred))
        # curves on another grid of the same length are not projected
        grid = replace(stranger, r_grid=stranger.r_grid ** 2 / 7.0)
        moved = r"curve grid differs from the fit's FPCA grid: r\[1\] = 0\.00142857\d* against"
        with pytest.raises(DatasetRuleError, match=moved + r" the fit's 0\.1$") as err:
            predict_unit(fit, grid)
        assert err.value.source == "curves"
        # nor curves of another number of covariates, whose first matches
        twice = replace(stranger, curves=np.concatenate([stranger.curves] * 2, axis=1))
        with pytest.raises(DatasetRuleError, match="^the dataset holds S = 2 functional "
                                                   "covariates against the fit's S = 1$") as err:
            predict_unit(fit, twice)
        assert err.value.source == "curves"

    @pytest.mark.parametrize("name", ["Model5", "Model7"])
    def test_batch_matches_each_unit_alone(self, name):
        # a unit's predictions do not depend on the units predicted with it,
        # whether the fit saw the unit or projects its curves afresh
        config = table1_variants(k=2)[name].config
        spec = default_spec(seed=6, n_units=9, n_obs=7)
        ds, _ = generate_dataset(spec)
        fit = fit_em(ds, config)
        pred = predict_unit(fit, ds)
        alone = [predict_unit(fit, ds.select(np.arange(ds.n_units) == i))
                 for i in range(ds.n_units)]
        assert pred.tobytes() == np.concatenate(alone).tobytes()

        ds, _ = generate_dataset(default_spec(seed=6, n_units=120, n_obs=7))
        first_half = np.arange(ds.n_units) < ds.n_units // 2
        fit = fit_em(ds.select(first_half), config)
        unseen = ds.select(~first_half)
        pred = predict_unit(fit, unseen)
        alone = [predict_unit(fit, unseen.select(np.arange(unseen.n_units) == i))
                 for i in range(unseen.n_units)]
        assert pred.tobytes() == np.concatenate(alone).tobytes()


class TestResidualMetrics:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0])
        r2, mse = residual_metrics(y, y)
        assert r2 == 1.0 and mse == 0.0

    def test_mean_prediction_gives_zero_r2(self):
        y = np.array([1.0, 2.0, 3.0])
        r2, _ = residual_metrics(y, np.full(3, y.mean()))
        assert r2 == pytest.approx(0.0)

    def test_two_point_hand_case(self):
        r2, mse = residual_metrics([0.0, 2.0], [1.0, 1.0])
        assert mse == 1.0
        assert r2 == 0.0

    def test_constant_responses_rejected(self):
        with pytest.raises(ValueError, match="zero total sum of squares"):
            residual_metrics([2.0, 2.0], [1.0, 3.0])


class TestInformationCriteria:
    def test_no_parameters(self):
        aic, bic = information_criteria(-10.0, 0, 5)
        assert aic == bic == 20.0

    def test_k_coincide_at_n_e_squared(self):
        n = int(np.e ** 2)  # floor, so ln n slightly below 2
        aic, bic = information_criteria(-50.0, 3, n)
        assert bic == pytest.approx(aic, rel=0.01)

    def test_hand_arithmetic(self):
        aic, bic = information_criteria(-100.0, 5, 12)
        assert aic == 210.0
        assert bic == pytest.approx(200.0 + 5 * np.log(12), abs=1e-12)
        assert bic == pytest.approx(212.4245, abs=1e-3)

    def test_ordering_invariant_to_common_shift(self):
        lls = np.array([-120.0, -100.0, -90.0])
        ps = np.array([3, 5, 9])
        base = [information_criteria(ll, p, 20)[0] for ll, p in zip(lls, ps)]
        shifted = [information_criteria(ll + 37.5, p, 20)[0] for ll, p in zip(lls, ps)]
        assert np.argsort(base).tolist() == np.argsort(shifted).tolist()


class TestTemporalSplit:
    def test_case_study_shape(self):
        spec = default_spec(seed=6, n_units=12, n_obs=20)
        ds, _ = generate_dataset(spec)
        train, test = temporal_split(ds, 0.8)
        assert all(u.n_obs == 16 for u in train.units)
        assert all(u.n_obs == 4 for u in test.units)

    @pytest.mark.parametrize("m,fraction,expect_train", [(5, 0.8, 4), (3, 0.99, 2)])
    def test_floor_arithmetic(self, m, fraction, expect_train):
        spec = default_spec(seed=7, n_units=3, n_obs=m)
        ds, _ = generate_dataset(spec)
        train, test = temporal_split(ds, fraction)
        assert train.units[0].n_obs == expect_train
        assert test.units[0].n_obs == m - expect_train

    def test_partition_preserves_everything_once(self):
        spec = default_spec(seed=8, n_units=5, n_obs=9)
        ds, _ = generate_dataset(spec)
        train, test = temporal_split(ds, 0.7)
        for u, tr, te in zip(ds.units, train.units, test.units):
            assert np.array_equal(np.concatenate([tr.times, te.times]), u.times)
            assert np.array_equal(np.concatenate([tr.responses, te.responses]), u.responses)

    def test_empty_train_rejected(self):
        spec = default_spec(seed=9, n_units=3, n_obs=2)
        ds, _ = generate_dataset(spec)
        with pytest.raises(ValueError, match="empty train split"):
            temporal_split(ds, 0.3)

    @given(st.floats(0.01, 1.0, exclude_max=True),
           st.lists(st.integers(0, 30), min_size=1, max_size=6), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_unit_lands_in_both_halves(self, fraction, extra, seed):
        # counts from the smallest m with floor(fraction * m) >= 1 upward
        counts = np.array([math.ceil(1.0 / fraction) + e for e in extra])
        assume(np.all(np.floor(fraction * counts) >= 1))
        rng = np.random.default_rng(seed)
        n = counts.size
        times = np.concatenate([np.cumsum(rng.uniform(0.1, 1.0, m)) for m in counts])
        ds = DegradationDataset([f"u{i}" for i in range(n)], counts, times,
                                rng.normal(size=times.size), rng.normal(size=(n, 2)),
                                rng.normal(size=(n, 1, 3)), np.arange(3.0))
        train, test = temporal_split(ds, fraction)
        assert train.unit_ids == test.unit_ids == ds.unit_ids
        assert np.array_equal(train.counts, np.floor(fraction * counts))
        assert np.all(test.counts >= 1)
        for half in (train, test):
            assert np.array_equal(half.scalars, ds.scalars)
            assert np.array_equal(half.curves, ds.curves)
            assert np.array_equal(half.r_grid, ds.r_grid)
        for u, tr, te in zip(ds.units, train.units, test.units):
            assert np.array_equal(np.concatenate([tr.times, te.times]), u.times)
            assert np.array_equal(np.concatenate([tr.responses, te.responses]), u.responses)


class TestKfoldCv:
    def test_same_seed_same_error(self):
        spec = default_spec(seed=10, n_units=12, n_obs=8)
        ds, _ = generate_dataset(spec)
        cfg = spec.config
        a = kfold_cv(ds, cfg, k=3, seed=4)
        b = kfold_cv(ds, cfg, k=3, seed=4)
        assert a == b

    def test_leave_one_out_limit(self):
        spec = default_spec(seed=11, n_units=9, n_obs=6)
        ds, _ = generate_dataset(spec)
        err = kfold_cv(ds, spec.config, k=9, seed=0)
        assert np.isfinite(err) and err > 0

    def test_identical_units_make_folds_exchangeable(self):
        spec = default_spec(seed=12, n_units=2, n_obs=8)
        ds, _ = generate_dataset(spec)
        clones_ds = stack_units((replace(ds.units[0], unit_id=f"c{i}") for i in range(8)),
                                ds.r_grid)
        # identical curves degenerate FPCA and identical scalars collapse the
        # scalar block, so keep only the latent component
        cfg = ModelConfig(include_scalar=False, include_functional=False,
                          include_interaction=False, include_latent=True,
                          center_baseline=False)
        a = kfold_cv(clones_ds, cfg, k=4, seed=1)
        b = kfold_cv(clones_ds, cfg, k=4, seed=99)
        assert a == pytest.approx(b, abs=1e-10)

    def test_bad_fold_count(self):
        spec = default_spec(seed=13, n_units=4, n_obs=5)
        ds, _ = generate_dataset(spec)
        with pytest.raises(ValueError):
            kfold_cv(ds, spec.config, k=1, seed=0)
        with pytest.raises(ValueError):
            kfold_cv(ds, spec.config, k=9, seed=0)


class TestCompareModels:
    def test_nested_dominance_on_training_r2(self):
        spec = default_spec(seed=14, n_units=30, n_obs=15)
        ds, truth = generate_dataset(spec)
        registry = table1_variants(k=2)
        rows = compare_models(ds, [registry[n] for n in ("Model1", "Model2", "Model3")])
        by_name = {r.model: r for r in rows}
        assert by_name["Model3"].r2 >= by_name["Model1"].r2
        assert by_name["Model3"].r2 >= by_name["Model2"].r2

    def test_single_variant_single_row(self):
        spec = default_spec(seed=15, n_units=15, n_obs=10)
        ds, _ = generate_dataset(spec)
        rows = compare_models(ds, [table1_variants(k=2)["Model4"]])
        assert len(rows) == 1 and rows[0].model == "Model4"
        assert rows[0].error is None

    def test_model6_needs_micro_scalar(self):
        spec = default_spec(seed=16, n_units=10, n_obs=8)
        ds, _ = generate_dataset(spec)
        rows = compare_models(ds, [table1_variants(k=2)["Model6"]])
        assert rows[0].error is not None

    def test_model6_runs_with_micro_scalar(self):
        spec = default_spec(seed=17, n_units=20, n_obs=10)
        ds, truth = generate_dataset(spec)
        micro = truth.scores[:, 0, 0]
        rows = compare_models(ds, [table1_variants(k=2)["Model6"]], micro_scalar=micro)
        assert rows[0].error is None
        assert np.isfinite(rows[0].aic)

    def test_failing_variant_does_not_abort_others(self):
        spec = default_spec(seed=18, n_units=12, n_obs=8)
        ds, _ = generate_dataset(spec)
        registry = table1_variants(k=2)
        rows = compare_models(ds, [registry["Model6"], registry["Model1"]])
        assert rows[0].error is not None
        assert rows[1].error is None


def same_rows(got, want) -> bool:
    """Comparison rows equal field for field, a NaN matching only a NaN."""
    def same(a, b):
        return a == b or (isinstance(a, float) and isinstance(b, float)
                          and math.isnan(a) and math.isnan(b))
    return len(got) == len(want) and all(
        same(getattr(g, f.name), getattr(w, f.name))
        for g, w in zip(got, want) for f in fields(g))


def micro_column(ds):
    """The data and micro scalar of ``compare --micro-column 1``."""
    return replace(ds, scalars=ds.scalars[:, 1:]), ds.scalars[:, 0].copy()


def one_observation_unit(ds):
    """``ds`` with its first unit cut to its first observation."""
    keep = np.ones(ds.n_obs, dtype=bool)
    keep[1:ds.counts[0]] = False
    return DegradationDataset(ds.unit_ids, np.r_[1, ds.counts[1:]], ds.times[keep],
                              ds.responses[keep], ds.scalars, ds.curves, ds.r_grid)


class TestCompareModelsSharesSplitAndFpca:
    """``compare_models`` makes one split (plus one for the micro-scalar data)
    and one FPCA per (k, fve_threshold), yet gives each variant the row that
    fitting it alone gives, error for error."""

    @pytest.fixture(scope="class")
    def data(self):
        spec = default_spec(seed=24, n_units=30, n_obs=12)
        return micro_column(generate_dataset(spec)[0])

    @staticmethod
    def counted(monkeypatch):
        calls = {"split": 0, "fpca": 0, "fit_em_fpca": 0, "scores": []}

        def count(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def fit_em(*args, scores=None, **kwargs):
            calls["scores"].append(scores)
            return estimator.fit_em(*args, scores=scores, **kwargs)

        monkeypatch.setattr(evaluation, "temporal_split", count("split", evaluation.temporal_split))
        monkeypatch.setattr(evaluation, "fit_scores", count("fpca", evaluation.fit_scores))
        monkeypatch.setattr(estimator, "fit_scores", count("fit_em_fpca", estimator.fit_scores))
        monkeypatch.setattr(evaluation, "fit_em", fit_em)
        return calls

    def check(self, monkeypatch, ds, variants, micro=None, splits=1, fpcas=1):
        want = compare_models_per_variant(ds, variants, micro_scalar=micro)
        calls = self.counted(monkeypatch)
        got = compare_models(ds, variants, micro_scalar=micro)
        assert same_rows(got, want), (got, want)
        assert calls["split"] == splits
        assert (calls["fpca"], calls["fit_em_fpca"]) == (fpcas, 0)
        shared = [s for s in calls["scores"] if s is not None]
        assert all(not s.flags.writeable for s in shared)
        assert len({id(s) for s in shared}) == min(fpcas, len(shared))
        return got

    def test_default_variants(self, monkeypatch, data):
        ds, _ = data
        registry = table1_variants(k=2)
        rows = self.check(monkeypatch, ds, [v for n, v in registry.items() if n != "Model6"])
        assert all(r.error is None for r in rows)

    def test_all_seven_variants_with_a_micro_scalar(self, monkeypatch, data):
        ds, micro = data
        rows = self.check(monkeypatch, ds, list(table1_variants(k=2).values()), micro, splits=2)
        assert all(r.error is None for r in rows)

    def test_one_fpca_per_truncation(self, monkeypatch, data):
        ds, _ = data
        k2, k1, fve = table1_variants(k=2), table1_variants(k=1), table1_variants(fve_threshold=0.9)
        variants = [k2["Model2"], k1["Model3"], k2["Model7"], fve["Model4"], k1["Model1"]]
        self.check(monkeypatch, ds, variants, fpcas=3)

    def test_identical_curves_fail_every_functional_variant(self, monkeypatch, data):
        ds, micro = data
        flat = replace(ds, curves=np.broadcast_to(ds.curves[:1], ds.curves.shape).copy())
        rows = self.check(monkeypatch, flat, list(table1_variants(k=2).values()), micro,
                          splits=2)
        failed = {r.model for r in rows if r.error is not None}
        assert failed == {"Model2", "Model3", "Model4", "Model5", "Model7"}
        assert all("degenerate covariance" in r.error for r in rows if r.error is not None)

    def test_one_observation_unit_fails_every_variant(self, monkeypatch, data):
        ds, micro = data
        variants = list(table1_variants(k=2).values())
        rows = self.check(monkeypatch, one_observation_unit(ds), variants, micro, splits=2, fpcas=0)
        uid = ds.unit_ids[0]
        assert {r.error for r in rows} == {f"unit {uid}: empty train split at fraction 0.8"}

    def test_no_functional_covariate_keeps_fit_em_error(self, monkeypatch, data):
        ds, _ = data
        bare = replace(ds, curves=ds.curves[:, :0])
        rows = self.check(monkeypatch, bare, [table1_variants(k=2)["Model7"]], fpcas=0)
        assert rows[0].error == "config includes functional covariates but dataset has none"


class TestEffectDecomposition:
    def test_zero_functional_coefficients_zero_marginal(self):
        spec, ds, truth, fit = fitted_instance(seed=19, n_units=8, n_obs=6)
        from degramix.estimator import Parameters
        zeta = fit.params.zeta.copy()
        off = fit.layout.offsets["b"]
        zeta[off[0]:off[1]] = 0.0
        zeroed = replace(fit, params=Parameters(zeta, fit.params.sigma_eps2,
                                                fit.params.sigma_gamma))
        effects = effect_decomposition(zeroed, ds)
        assert np.all(effects["marginal_effect"] == 0.0)

    def test_doubling_scalar_doubles_interaction(self):
        spec, ds, truth, fit = fitted_instance(seed=20, n_units=8, n_obs=6)
        u = ds.units[0]
        doubled = replace(u, scalars=u.scalars * 2.0)
        base, twice = (effect_decomposition(fit, stack_units((v,), ds.r_grid))
                       ["interaction_effect"][0] for v in (u, doubled))
        assert twice == pytest.approx(2.0 * base, rel=1e-12)

    def test_hand_marginal_effect(self):
        # b = [0.1, -0.2], c = [1, 0.5], R = 10 -> marginal 10*(0.1 - 0.1) = 0
        spec, ds, truth, fit = fitted_instance(seed=21, n_units=8, n_obs=6)
        from degramix.estimator import Parameters
        zeta = fit.params.zeta.copy()
        off = fit.layout.offsets["b"]
        zeta[off[0]:off[1]] = [0.1, -0.2]
        forced = replace(fit, params=Parameters(zeta, fit.params.sigma_eps2,
                                                fit.params.sigma_gamma),
                         scores=np.full_like(fit.scores, 0.0))
        forced = replace(forced, scores=np.tile(np.array([[[1.0, 0.5]]]),
                                                (ds.n_units, 1, 1)))
        effects = effect_decomposition(forced, ds)
        assert effects["marginal_effect"][0] == pytest.approx(0.0, abs=1e-15)

    @staticmethod
    def summed(effects, n_units):
        """Each unit's per-level sum of the five effect columns, (N, L)."""
        return sum(effects[name] for name in ("population", "scalar_effect", "marginal_effect",
                                              "interaction_effect", "latent_effect")
                   ).reshape(n_units, -1)

    def test_components_reconstruct_coefficients_exactly(self):
        spec, ds, truth, fit = fitted_instance(seed=22, n_units=15, n_obs=8)
        eta = self.summed(effect_decomposition(fit, ds), ds.n_units)
        for i, u in enumerate(ds.units):
            assert np.max(np.abs(eta[i] - coefficient_levels(fit, u))) <= 1e-12

    def test_order_two_columns_are_unit_major(self):
        spec = default_spec(seed=25, n_units=15, n_obs=8)
        ds, _ = generate_dataset(spec)
        fit = fit_em(ds, ModelConfig(k=2, basis=BasisFamily("polynomial", 2)))
        effects = effect_decomposition(fit, ds)
        assert fit.layout.levels == (1, 2)
        assert effects["unit_id"].tolist() == [u for u in ds.unit_ids for _ in (1, 2)]
        assert effects["level"].tolist() == [1, 2] * ds.n_units
        assert len({len(column) for column in effects.values()}) == 1
        assert np.any(effects["latent_effect"] != 0.0)
        eta = self.summed(effects, ds.n_units)
        for i, u in enumerate(ds.units):
            assert np.max(np.abs(eta[i] - coefficient_levels(fit, u))) <= 1e-12


class TestFitAndScore:
    def test_metrics_finite_and_consistent(self):
        spec = default_spec(seed=23, n_units=20, n_obs=10)
        ds, _ = generate_dataset(spec)
        metrics, fit = fit_and_score(*temporal_split(ds, 0.8), spec.config)
        assert np.isfinite(metrics.r2) and metrics.r2 <= 1.0
        assert np.isfinite(metrics.mse_test)
        aic, bic = information_criteria(metrics.loglik, 8, 20)
        assert metrics.aic == pytest.approx(aic)
