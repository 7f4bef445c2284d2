import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degramix import cli, data, estimator
from degramix.fpca import (
    fit_fpca,
    project_scores,
    reconstruct,
    select_k_by_fve,
    trapezoid_weights,
    with_k,
)
from degramix.simulate import default_spec, generate_dataset
from _oracles import fine_grid_quadrature

R_GRID = np.linspace(0.0, 10.0, 81)


def unit_norm_modes(r_grid, count=3):
    """Trig modes orthonormal under the (1/R) trapezoid inner product."""
    r = r_grid / r_grid[-1]
    rows = [np.sqrt(2.0) * np.sin(2.0 * np.pi * r),
            np.sqrt(2.0) * np.cos(2.0 * np.pi * r),
            np.sqrt(2.0) * np.sin(4.0 * np.pi * r)]
    return np.vstack(rows[:count])


def weighted_norm(values, r_grid):
    w = trapezoid_weights(r_grid) / (r_grid[-1] - r_grid[0])
    return float(values @ (w * values))


class TestFit:
    def test_single_mode_recovery(self):
        rng = np.random.default_rng(0)
        psi = unit_norm_modes(R_GRID, 1)[0]
        amps = rng.normal(size=40)
        curves = 2.0 + amps[:, None] * psi[None, :]
        model = fit_fpca(curves, R_GRID)
        assert model.eigenvalues[0] > 0
        assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-10)
        dev = min(np.max(np.abs(model.eigenfunctions[0] - psi)),
                  np.max(np.abs(model.eigenfunctions[0] + psi)))
        assert dev <= 1e-8

    def test_identical_curves_degenerate(self):
        curves = np.tile(np.sin(R_GRID), (5, 1))
        with pytest.raises(ValueError, match="degenerate covariance"):
            fit_fpca(curves, R_GRID)

    def test_two_mode_variance_ratio(self):
        rng = np.random.default_rng(1)
        modes = unit_norm_modes(R_GRID, 2)
        n = 4000
        scores = rng.normal(size=(n, 2)) * np.array([2.0, 1.0])
        curves = scores @ modes
        model = fit_fpca(curves, R_GRID)
        assert model.eigenvalues[0] / model.eigenvalues[1] == pytest.approx(4.0, rel=0.15)

    def test_orthonormality_weighted_inner_product(self):
        rng = np.random.default_rng(2)
        curves = rng.normal(size=(12, R_GRID.size))
        model = fit_fpca(curves, R_GRID)
        w = trapezoid_weights(R_GRID) / (R_GRID[-1] - R_GRID[0])
        gram = model.eigenfunctions @ (w[:, None] * model.eigenfunctions.T)
        k = min(11, gram.shape[0])  # sample rank bounds the usable block
        assert np.max(np.abs(gram[:k, :k] - np.eye(k))) <= 1e-10

    def test_mean_is_pointwise_average(self):
        rng = np.random.default_rng(3)
        curves = rng.normal(size=(7, R_GRID.size))
        model = fit_fpca(curves, R_GRID)
        assert np.allclose(model.mean_curve, curves.mean(axis=0))

    def test_eigenvalues_descending_nonnegative(self):
        rng = np.random.default_rng(4)
        curves = rng.normal(size=(9, R_GRID.size))
        model = fit_fpca(curves, R_GRID)
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)
        assert np.all(model.eigenvalues >= 0.0)
        assert model.fve_trace[-1] == pytest.approx(1.0)


class TestSelectK:
    def _model_with_spectrum(self, evals):
        rng = np.random.default_rng(5)
        model = fit_fpca(rng.normal(size=(8, R_GRID.size)), R_GRID)
        evals = np.asarray(evals, dtype=float)
        from dataclasses import replace
        return replace(model, eigenvalues=evals,
                       fve_trace=np.cumsum(evals) / evals.sum())

    def test_fraction_arithmetic(self):
        model = self._model_with_spectrum([4.0, 1.0, 0.0, 0.0])
        assert select_k_by_fve(model, 0.79) == 1

    def test_full_threshold_counts_nonzero(self):
        model = self._model_with_spectrum([4.0, 1.0, 0.0, 0.0])
        assert select_k_by_fve(model, 1.0) == 2

    def test_single_mode(self):
        model = self._model_with_spectrum([1.0, 0.0, 0.0])
        assert select_k_by_fve(model, 0.3) == 1
        assert select_k_by_fve(model, 1.0) == 1

    @pytest.mark.parametrize("threshold", [0.0, 1.5, float("nan")])
    def test_threshold_outside_0_1_is_model_configs_rule(self, threshold):
        model = self._model_with_spectrum([4.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError) as err:
            select_k_by_fve(model, threshold)
        assert str(err.value) == "fve_threshold must lie in (0, 1]"

    @given(st.integers(0, 10 ** 6), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_threshold(self, seed, t1, t2):
        rng = np.random.default_rng(seed)
        model = self._model_with_spectrum(np.sort(rng.uniform(0.0, 5.0, size=6))[::-1] + 1e-3)
        lo, hi = sorted((t1, t2))
        assert select_k_by_fve(model, lo) <= select_k_by_fve(model, hi)


class TestScores:
    def _fitted(self, seed=6, n=30):
        rng = np.random.default_rng(seed)
        modes = unit_norm_modes(R_GRID, 3)
        scores = rng.normal(size=(n, 3)) * np.array([2.0, 1.2, 0.7])
        curves = 1.0 + scores @ modes + 0.01 * rng.normal(size=(n, R_GRID.size))
        model = fit_fpca(curves, R_GRID)
        return with_k(model, 3), curves

    def test_mean_curve_projects_to_zero(self):
        model, _ = self._fitted()
        assert np.allclose(project_scores(model, model.mean_curve), 0.0, atol=1e-12)

    def test_mean_plus_eigenfunction_gives_unit_score(self):
        model, _ = self._fitted()
        curve = model.mean_curve + model.eigenfunctions[0]
        scores = project_scores(model, curve)[0]
        assert scores[0] == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(scores[1:], 0.0, atol=1e-10)

    def test_scores_match_fine_grid_quadrature(self):
        model, curves = self._fitted()
        r_support = R_GRID[-1] - R_GRID[0]
        got = project_scores(model, curves[:5])
        for i in range(5):
            centered = curves[i] - model.mean_curve
            for k in range(3):
                expected = fine_grid_quadrature(centered * model.eigenfunctions[k], R_GRID)
                assert got[i, k] == pytest.approx(expected / r_support, abs=1e-8)

    def test_sample_mean_of_scores_is_zero(self):
        model, curves = self._fitted()
        scores = project_scores(model, curves)
        assert np.allclose(scores.mean(axis=0), 0.0, atol=1e-10)

    def test_grid_mismatch(self):
        model, _ = self._fitted()
        with pytest.raises(ValueError, match="grid mismatch"):
            project_scores(model, np.zeros(R_GRID.size + 1))


class TestReconstruct:
    def _low_rank(self, seed=7, n=25):
        rng = np.random.default_rng(seed)
        modes = unit_norm_modes(R_GRID, 3)
        scores = rng.normal(size=(n, 3)) * np.array([2.0, 1.0, 0.5])
        curves = 0.5 + scores @ modes
        return fit_fpca(curves, R_GRID), curves

    def test_full_rank_round_trip(self):
        model, curves = self._low_rank()
        model = with_k(model, 3)
        recon = reconstruct(model, project_scores(model, curves))
        assert np.max(np.abs(recon - curves)) <= 1e-8

    def test_k_zero_returns_mean(self):
        model, curves = self._low_rank()
        recon = reconstruct(model, np.zeros((curves.shape[0], 0)), k=0)
        assert np.allclose(recon, np.tile(model.mean_curve, (curves.shape[0], 1)))

    def test_project_reconstruct_identity_on_scores(self):
        model, curves = self._low_rank()
        for k in (1, 2, 3):
            mk = with_k(model, k)
            scores = project_scores(mk, curves)
            again = project_scores(mk, reconstruct(mk, scores))
            assert np.max(np.abs(again - scores)) <= 1e-10

    def test_truncation_error_equals_tail_eigenvalues(self):
        model, curves = self._low_rank()
        n = curves.shape[0]
        for k in (0, 1, 2):
            mk = with_k(model, max(k, 1))
            scores = project_scores(with_k(model, 3), curves)
            recon = reconstruct(model, scores[:, :k] if k else np.zeros((n, 0)), k=k)
            err = sum(weighted_norm(curves[i] - recon[i], R_GRID) for i in range(n)) / (n - 1)
            tail = model.eigenvalues[k:].sum()
            assert err == pytest.approx(tail, rel=1e-6)

    def test_dropping_smallest_mode_adds_its_eigenvalue(self):
        model, curves = self._low_rank()
        n = curves.shape[0]
        scores = project_scores(with_k(model, 3), curves)
        full = reconstruct(model, scores, k=3)
        dropped = reconstruct(model, scores[:, :2], k=2)
        err_full = sum(weighted_norm(curves[i] - full[i], R_GRID) for i in range(n)) / (n - 1)
        err_drop = sum(weighted_norm(curves[i] - dropped[i], R_GRID) for i in range(n)) / (n - 1)
        assert err_drop - err_full == pytest.approx(model.eigenvalues[2], rel=1e-6)


class TestModelReadBack:
    def test_k_is_bounded_by_the_eigenfunctions_the_model_holds(self, tmp_path):
        # fit_report.json keeps every eigenvalue of each model but only its
        # k eigenfunctions
        ds, _ = generate_dataset(default_spec(n_units=12, n_obs=6, seed=4))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", estimator.ConvergenceWarning)
            fit = estimator.fit_em(ds, data.ModelConfig(k=2), max_iter=20)
        data.write_json(tmp_path / "fit_report.json", cli._report(cli._FIT_REPORT, fit))
        model = cli._load_fit(tmp_path / "fit_report.json").fpca_models[0]
        assert model.eigenfunctions.shape[0] == 2 < model.eigenvalues.size
        scores = project_scores(model, ds.curves[:, 0])
        assert reconstruct(with_k(model, 2), scores).shape == ds.curves[:, 0].shape
        with pytest.raises(ValueError, match=r"k must lie in 1\.\.2, the eigenfunctions"):
            with_k(model, 3)
        with pytest.raises(ValueError, match=r"k must lie in 0\.\.2, the eigenfunctions"):
            reconstruct(model, np.ones((12, 3)), k=3)
