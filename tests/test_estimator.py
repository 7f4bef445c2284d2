import numpy as np
import pytest

import degramix.estimator as estimator
from degramix.data import ModelConfig
from degramix.design import ZetaLayout, build_design_matrices
from degramix.estimator import (
    ConvergenceWarning,
    LatentPosterior,
    Parameters,
    e_step,
    fit_em,
    init_params,
    marginal_loglik,
    update_sigma_eps,
    update_sigma_gamma,
    update_zeta,
)
from degramix.evaluation import table1_variants
from degramix.simulate import default_spec, generate_dataset
from _oracles import (
    central_difference,
    cholesky_loglik,
    compound_symmetry_loglik,
    gaussian_conditioning,
    golden_section_max,
    lemma_loglik,
    noise_variance_q_profile,
    plain_em,
    profiled_fit,
    profiled_loglik,
    profiled_max,
    q_value,
    ridge_normal_equations,
    split_units,
    stack_population,
    stacked_design_matrices,
)

CONFIG = ModelConfig(k=2)


def make_dm(omegas, lambdas, ys, latent_dim=None):
    """Hand-assembled DesignMatrices with an anonymous layout."""
    d = lambdas[0].shape[1] if latent_dim is None else latent_dim
    u = omegas[0].shape[1]
    layout = ZetaLayout(levels=tuple(range(d)), n_scalars=u - d, n_functional=0,
                        n_components=0, include_scalar=u > d,
                        include_functional=False, include_interaction=False)
    return stack_population(layout, [f"u{i}" for i in range(len(omegas))],
                            omegas, lambdas, ys)


def synthetic_dm(seed=0, n_units=20, n_obs=10):
    spec = default_spec(seed=seed, n_units=n_units, n_obs=n_obs)
    ds, truth = generate_dataset(spec)
    dm = build_design_matrices(ds, spec.config, scores=truth.scores)
    return dm, truth, spec


def synthetic_pair(seed=0, n_units=20, n_obs=10):
    """The compressed design of ``synthetic_dm`` and the stacked one, one
    row per observation, that the oracles read."""
    spec = default_spec(seed=seed, n_units=n_units, n_obs=n_obs)
    ds, truth = generate_dataset(spec)
    return (build_design_matrices(ds, spec.config, scores=truth.scores),
            stacked_design_matrices(ds, spec.config, truth.scores))


def random_params(rng, dm):
    d = dm.layout.n_levels
    a = rng.normal(size=(d, d))
    return Parameters(
        zeta=rng.normal(size=dm.layout.size),
        sigma_eps2=float(rng.uniform(0.05, 0.5)),
        sigma_gamma=a @ a.T + 0.1 * np.eye(d),
    )


class TestInitParams:
    def test_matches_normal_equation_oracle(self):
        dm, st = synthetic_pair(seed=1)
        params = init_params(dm)
        gram = st.rows("omega").T @ st.rows("omega")
        expected = np.linalg.solve(gram, st.rows("omega").T @ st.rows("y"))
        assert np.max(np.abs(params.zeta - expected)) <= 1e-10

    def test_noiseless_data_recovers_exactly(self):
        spec = default_spec(seed=2, n_units=15, n_obs=8, sigma_eps2=0.0,
                            sigma_gamma=np.zeros((1, 1)))
        ds, truth = generate_dataset(spec)
        dm = build_design_matrices(ds, spec.config, scores=truth.scores)
        params = init_params(dm)
        assert np.max(np.abs(params.zeta - truth.zeta)) <= 1e-10
        assert params.sigma_eps2 <= 1e-16

    def test_prior_scaled_by_residual_variance(self):
        dm, st = synthetic_pair(seed=3)
        params = init_params(dm)
        resid = st.rows("y") - st.rows("omega") @ params.zeta
        expected = 0.1 * float(resid @ resid) / st.n_obs
        assert np.allclose(np.diag(params.sigma_gamma), expected)


class TestEStep:
    def test_vanishing_prior_collapses_posterior(self):
        dm, _, _ = synthetic_dm(seed=4, n_units=6, n_obs=5)
        params = Parameters(np.zeros(dm.layout.size), 1.0, 1e-12 * np.eye(dm.layout.n_levels))
        post = e_step(params, dm)
        assert np.max(np.abs(post.mu)) <= 1e-6

    def test_scalar_hand_case(self):
        # one unit, one observation, Lambda = 1, residual = 2, unit variances
        omega = np.array([[0.0]])
        lam = np.array([[1.0]])
        dm = make_dm([omega], [lam], [np.array([2.0])])
        params = Parameters(np.zeros(1), 1.0, np.eye(1))
        post = e_step(params, dm)
        assert post.v[0, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert post.mu[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_matches_joint_gaussian_conditioning(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            omegas, lambdas, ys = [], [], []
            for _ in range(4):
                m = int(rng.integers(1, 7))
                omegas.append(rng.normal(size=(m, 3)))
                lambdas.append(rng.normal(size=(m, d)))
                ys.append(rng.normal(size=m))
            dm = make_dm(omegas, lambdas, ys, latent_dim=d)
            a = rng.normal(size=(d, d))
            params = Parameters(rng.normal(size=3), float(rng.uniform(0.2, 2.0)),
                                a @ a.T + 0.3 * np.eye(d))
            post = e_step(params, dm)
            for i in range(4):
                resid = ys[i] - omegas[i] @ params.zeta
                mu, v = gaussian_conditioning(lambdas[i], params.sigma_gamma,
                                              params.sigma_eps2, resid)
                assert np.max(np.abs(post.mu[i] - mu)) <= 1e-10
                assert np.max(np.abs(post.v[i] - v)) <= 1e-10


class TestZetaUpdate:
    def test_zero_latent_mean_gives_ols(self):
        dm, st = synthetic_pair(seed=6)
        d = dm.layout.n_levels
        post = LatentPosterior(np.zeros((dm.n_units, d)),
                               np.tile(np.eye(d), (dm.n_units, 1, 1)))
        zeta = update_zeta(post, dm)
        ols = np.linalg.lstsq(st.rows("omega"), st.rows("y"), rcond=None)[0]
        assert np.allclose(zeta, ols, atol=1e-12)

    def test_q_gradient_vanishes(self):
        rng = np.random.default_rng(7)
        dm, _, _ = synthetic_dm(seed=7, n_units=12, n_obs=6)
        params = random_params(rng, dm)
        post = e_step(params, dm)
        zeta_hat = update_zeta(post, dm)
        base = Parameters(zeta_hat, params.sigma_eps2, params.sigma_gamma)

        def q_of_zeta(j, val):
            z = base.zeta.copy()
            z[j] = val
            return q_value(Parameters(z, base.sigma_eps2, base.sigma_gamma), post, dm)

        grad = np.array([
            central_difference(lambda v: q_of_zeta(j, v), zeta_hat[j],
                               1e-4 * (abs(zeta_hat[j]) + 1.0))
            for j in range(zeta_hat.size)
        ])
        assert np.max(np.abs(grad)) <= 1e-6

    def test_linearity_in_adjusted_response(self):
        dm, st = synthetic_pair(seed=8, n_units=10, n_obs=5)
        rng = np.random.default_rng(8)
        params = random_params(rng, dm)
        post = e_step(params, dm)
        zeta = update_zeta(post, dm)
        omegas, lambdas, ys = split_units(st)
        shifted_y = [y + lam @ mu for y, lam, mu in zip(ys, lambdas, post.mu)]
        dm_shifted = make_dm(omegas, lambdas, shifted_y, latent_dim=dm.layout.n_levels)
        zeta_shifted = update_zeta(post, dm_shifted)
        ols_on_y = np.linalg.lstsq(st.rows("omega"), st.rows("y"), rcond=None)[0]
        assert np.allclose(zeta_shifted, ols_on_y, atol=1e-10)
        adjusted = np.linalg.lstsq(st.rows("omega"), st.rows("y") - np.concatenate(
            [lam @ mu for lam, mu in zip(lambdas, post.mu)]), rcond=None)[0]
        assert np.allclose(zeta, adjusted, atol=1e-12)


class TestSigmaGammaUpdate:
    def test_averages_constant_moments(self):
        c = np.array([[2.0, 0.3], [0.3, 1.0]])
        post = LatentPosterior(np.zeros((5, 2)), np.tile(c, (5, 1, 1)))
        assert np.allclose(update_sigma_gamma(post), c)

    def test_data_dominant_limit(self):
        rng = np.random.default_rng(9)
        mu = rng.normal(size=(6, 2))
        post = LatentPosterior(mu, np.zeros((6, 2, 2)))
        expected = sum(np.outer(m, m) for m in mu) / 6
        assert np.allclose(update_sigma_gamma(post), expected)

    def test_hand_two_unit_case(self):
        mu = np.array([[1.0], [3.0]])
        v = np.array([[[0.5]], [[0.25]]])
        post = LatentPosterior(mu, v)
        expected = ((0.5 + 1.0) + (0.25 + 9.0)) / 2.0
        assert update_sigma_gamma(post)[0, 0] == pytest.approx(expected, abs=1e-14)

    def test_diagonal_constraint(self):
        rng = np.random.default_rng(10)
        mu = rng.normal(size=(4, 3))
        a = rng.normal(size=(3, 3))
        v = np.tile(a @ a.T, (4, 1, 1))
        sg = update_sigma_gamma(LatentPosterior(mu, v), constrain_diagonal=True)
        assert np.allclose(sg, np.diag(np.diag(sg)))


class TestSigmaEpsUpdate:
    def test_perfect_fit_floors(self):
        dm, truth, _ = synthetic_dm(seed=11, n_units=8, n_obs=6)
        # exact response surface with no latent contribution
        omegas, lambdas, _ = split_units(dm)
        ys = [om @ truth.zeta for om in omegas]
        dm2 = make_dm(omegas, lambdas, ys, latent_dim=dm.layout.n_levels)
        d = dm.layout.n_levels
        post = LatentPosterior(np.zeros((dm.n_units, d)), np.zeros((dm.n_units, d, d)))
        assert update_sigma_eps(post, truth.zeta, dm2) == pytest.approx(1e-16)

    def test_degenerate_latent_gives_residual_mean_square(self):
        dm, st = synthetic_pair(seed=12, n_units=8, n_obs=6)
        rng = np.random.default_rng(12)
        zeta = rng.normal(size=dm.layout.size)
        d = dm.layout.n_levels
        post = LatentPosterior(np.zeros((dm.n_units, d)), np.zeros((dm.n_units, d, d)))
        resid = st.rows("y") - st.rows("omega") @ zeta
        assert update_sigma_eps(post, zeta, dm) == pytest.approx(
            float(resid @ resid) / st.n_obs, rel=1e-12)

    def test_matches_golden_section_maximizer(self):
        rng = np.random.default_rng(13)
        dm, st = synthetic_pair(seed=13, n_units=10, n_obs=6)
        params = random_params(rng, dm)
        post = e_step(params, dm)
        zeta_hat = update_zeta(post, dm)
        s_hat = update_sigma_eps(post, zeta_hat, dm)
        omegas, lambdas, ys = split_units(st)
        profile = noise_variance_q_profile(lambdas, omegas, ys,
                                           post.mu, post.second_moments, zeta_hat,
                                           s_ref=s_hat * 1.7)
        s_star = golden_section_max(profile, s_hat / 10.0, s_hat * 10.0)
        assert s_hat == pytest.approx(s_star, rel=1e-8)


class TestMarginalLoglik:
    def test_zero_latent_variance_is_iid_normal(self):
        dm, st = synthetic_pair(seed=14, n_units=6, n_obs=5)
        rng = np.random.default_rng(14)
        zeta = rng.normal(size=dm.layout.size)
        sigma2 = 0.7
        params = Parameters(zeta, sigma2, np.zeros((dm.layout.n_levels,) * 2))
        resid = st.rows("y") - st.rows("omega") @ zeta
        expected = float(np.sum(
            -0.5 * (np.log(2 * np.pi * sigma2) + resid ** 2 / sigma2)))
        assert marginal_loglik(params, dm) == pytest.approx(expected, rel=1e-12)

    def test_compound_symmetry_closed_form(self):
        # intercept-only latent: order-0 basis, no covariate blocks
        rng = np.random.default_rng(15)
        omegas, lambdas, ys = [], [], []
        for _ in range(5):
            m = int(rng.integers(2, 7))
            omegas.append(np.ones((m, 1)))
            lambdas.append(np.ones((m, 1)))
            ys.append(rng.normal(size=m))
        dm = make_dm(omegas, lambdas, ys)
        params = Parameters(np.array([0.4]), 0.6, np.array([[0.9]]))
        expected = sum(
            compound_symmetry_loglik(y - om @ params.zeta, 0.9, 0.6)
            for y, om in zip(ys, omegas)
        )
        assert marginal_loglik(params, dm) == pytest.approx(expected, rel=1e-12)

    def test_unit_permutation_invariance(self):
        dm, st = synthetic_pair(seed=16, n_units=7, n_obs=4)
        rng = np.random.default_rng(16)
        params = random_params(rng, dm)
        perm = rng.permutation(dm.n_units)
        omegas, lambdas, ys = split_units(st)
        dm_p = make_dm([omegas[i] for i in perm],
                       [lambdas[i] for i in perm],
                       [ys[i] for i in perm],
                       latent_dim=dm.layout.n_levels)
        assert marginal_loglik(params, dm) == pytest.approx(
            marginal_loglik(params, dm_p), rel=1e-13)


    def test_matches_cholesky_oracle(self):
        # full-rank, zero and rank-one latent covariances on random unit designs
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            d = int(rng.integers(2, 4))
            omegas, lambdas, ys = [], [], []
            for _ in range(int(rng.integers(2, 7))):
                m = int(rng.integers(1, 8))
                omegas.append(rng.normal(size=(m, 3)))
                lambdas.append(rng.normal(size=(m, d)))
                ys.append(rng.normal(size=m))
            dm = make_dm(omegas, lambdas, ys, latent_dim=d)
            a = rng.normal(size=(d, d))
            v = rng.normal(size=(d, 1))
            for sg in (a @ a.T + 0.1 * np.eye(d), np.zeros((d, d)), v @ v.T):
                params = Parameters(rng.normal(size=3), float(rng.uniform(0.05, 2.0)), sg)
                assert marginal_loglik(params, dm) == pytest.approx(
                    cholesky_loglik(params, dm), rel=1e-10)

    def test_cholesky_route_matches_determinant_lemma(self):
        # positive semidefinite sigma_gamma: full rank, zero, rank one, and fitted
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            d = int(rng.integers(1, 4))
            omegas, lambdas, ys = [], [], []
            for _ in range(int(rng.integers(2, 9))):
                m = int(rng.integers(1, 8))
                omegas.append(rng.normal(size=(m, 3)))
                lambdas.append(rng.normal(size=(m, d)))
                ys.append(rng.normal(size=m))
            dm = make_dm(omegas, lambdas, ys, latent_dim=d)
            a = rng.normal(size=(d, d))
            for sg in (a @ a.T + 0.1 * np.eye(d), np.zeros((d, d)), np.diag(np.arange(d) * 0.5)):
                params = Parameters(rng.normal(size=3), float(rng.uniform(0.05, 2.0)), sg)
                assert marginal_loglik(params, dm) == pytest.approx(
                    lemma_loglik(params, dm), rel=1e-12)
        spec = default_spec(seed=27, n_units=40, n_obs=10)
        ds, truth = generate_dataset(spec)
        fit = fit_em(ds, spec.config, scores=truth.scores)
        st = stacked_design_matrices(ds, spec.config, truth.scores)
        assert fit.loglik == pytest.approx(lemma_loglik(fit.params, st), rel=1e-12)

    def test_non_psd_covariance_names_unit(self):
        from degramix.estimator import NumericalError
        dm = make_dm([np.zeros((1, 1)), np.zeros((1, 1))], [np.zeros((1, 1)), np.full((1, 1), 2.0)],
                     [np.zeros(1), np.zeros(1)])
        params = Parameters(np.zeros(1), 1.0, -np.eye(1))
        with pytest.raises(NumericalError, match="unit u1"):
            marginal_loglik(params, dm)
        with pytest.raises(NumericalError, match="unit u1"):
            cholesky_loglik(params, dm)
        # two negative directions leave det(A_i) positive; still not a covariance
        dm2 = make_dm([np.zeros((2, 1))], [np.eye(2)], [np.zeros(2)], latent_dim=2)
        params2 = Parameters(np.zeros(1), 1.0, -10.0 * np.eye(2))
        with pytest.raises(NumericalError, match="unit u0"):
            marginal_loglik(params2, dm2)


class TestQValue:
    def test_em_step_ascends_q(self):
        rng = np.random.default_rng(17)
        dm, _, _ = synthetic_dm(seed=17, n_units=12, n_obs=6)
        params = random_params(rng, dm)
        post = e_step(params, dm)
        zeta = update_zeta(post, dm)
        sg = update_sigma_gamma(post)
        se = update_sigma_eps(post, zeta, dm)
        updated = Parameters(zeta, se, sg)
        assert q_value(updated, post, dm) >= q_value(params, post, dm) - 1e-10

    def test_latent_block_algebraic_identity(self):
        # mu = 0, V = sigma_gamma makes the latent block -N/2 (log|S| + tr I)
        rng = np.random.default_rng(18)
        d, n = 2, 5
        a = rng.normal(size=(d, d))
        sg = a @ a.T + 0.5 * np.eye(d)
        omegas = [np.zeros((1, 1)) for _ in range(n)]
        lambdas = [np.zeros((1, d)) for _ in range(n)]
        ys = [np.zeros(1) for _ in range(n)]
        dm = make_dm(omegas, lambdas, ys, latent_dim=d)
        post = LatentPosterior(np.zeros((n, d)), np.tile(sg, (n, 1, 1)))
        params = Parameters(np.zeros(1), 1.0, sg)
        got = q_value(params, post, dm)
        sign, logdet = np.linalg.slogdet(sg)
        expected = -0.5 * n * logdet - 0.5 * n * d  # data block vanishes at sigma=1
        assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_data_depends_only_on_variances(self):
        d = 1
        dm = make_dm([np.zeros((1, 1))], [np.zeros((1, d))], [np.zeros(1)], latent_dim=d)
        post = LatentPosterior(np.zeros((1, d)), np.ones((1, d, d)))
        q1 = q_value(Parameters(np.zeros(1), 0.5, np.eye(d)), post, dm)
        q2 = q_value(Parameters(np.ones(1) * 5.0, 0.5, np.eye(d)), post, dm)
        assert q1 == pytest.approx(q2)  # zero design: zeta cannot matter


class TestSigmaGammaStationarity:
    def test_q_gradient_vanishes_in_scaled_entries(self):
        rng = np.random.default_rng(19)
        dm, _, _ = synthetic_dm(seed=19, n_units=12, n_obs=6)
        params = random_params(rng, dm)
        post = e_step(params, dm)
        sg_hat = update_sigma_gamma(post)
        d = sg_hat.shape[0]
        scale = np.trace(sg_hat) / d
        zeta = update_zeta(post, dm)

        def q_perturbed(a, b, t):
            sg = sg_hat.copy()
            sg[a, b] += t * scale
            if a != b:
                sg[b, a] += t * scale
            return q_value(Parameters(zeta, params.sigma_eps2, sg), post, dm)

        for a in range(d):
            for b in range(a, d):
                g = central_difference(lambda t: q_perturbed(a, b, t), 0.0, 1e-5)
                assert abs(g) <= 1e-6


class TestFitEm:
    def test_loglik_trace_monotone(self):
        spec = default_spec(seed=20, n_units=25, n_obs=12)
        ds, truth = generate_dataset(spec)
        fit = fit_em(ds, spec.config, scores=truth.scores)
        diffs = np.diff(fit.loglik_trace)
        assert diffs.min() >= -1e-8

    def test_noiseless_no_latent_exact(self):
        spec = default_spec(seed=21, n_units=15, n_obs=8, sigma_eps2=0.0,
                            sigma_gamma=np.zeros((1, 1)))
        ds, truth = generate_dataset(spec)
        from dataclasses import replace
        config = replace(spec.config, include_latent=False)
        fit = fit_em(ds, config, scores=truth.scores)
        assert fit.converged
        assert np.max(np.abs(fit.params.zeta - truth.zeta)) <= 1e-8
        assert fit.params.sigma_eps2 <= 1e-12
        assert fit.params.latent_dim == 0

    def test_multi_start_agreement(self):
        spec = default_spec(seed=22, n_units=30, n_obs=12)
        ds, truth = generate_dataset(spec)
        rng = np.random.default_rng(22)
        dm = build_design_matrices(ds, spec.config, scores=truth.scores)
        ols = init_params(dm)
        lls = []
        for _ in range(2):
            # moderate random perturbations of a sane start; wild starts can
            # park EM on the flat large-sigma_gamma ridge
            init = Parameters(
                ols.zeta * rng.uniform(0.5, 1.5, size=ols.zeta.size),
                ols.sigma_eps2 * float(rng.uniform(0.3, 3.0)),
                float(rng.uniform(0.02, 1.0)) * ols.sigma_eps2 * np.eye(dm.layout.n_levels),
            )
            fit = fit_em(ds, spec.config, scores=truth.scores, init=init,
                         tol=1e-10, max_iter=5000)
            assert fit.converged
            lls.append(fit.loglik)
        assert abs(lls[0] - lls[1]) <= 1e-6

    def test_fixed_point_consistency(self):
        spec = default_spec(seed=23, n_units=20, n_obs=10)
        ds, truth = generate_dataset(spec)
        fit = fit_em(ds, spec.config, scores=truth.scores, tol=1e-12)
        dm = build_design_matrices(ds, spec.config, scores=truth.scores)
        post = e_step(fit.params, dm)
        zeta_again = update_zeta(post, dm)
        assert np.max(np.abs(zeta_again - fit.params.zeta)) <= 1e-6

    def test_scale_covariance_exact(self):
        from dataclasses import replace as dc_replace
        spec = default_spec(seed=24, n_units=12, n_obs=8)
        ds, truth = generate_dataset(spec)
        c = 2.0
        ds_scaled = dc_replace(ds, responses=ds.responses * c)
        fit = fit_em(ds, spec.config, scores=truth.scores, max_iter=25, tol=0.0)
        fit_scaled = fit_em(ds_scaled, spec.config, scores=truth.scores, max_iter=25, tol=0.0)
        assert fit_scaled.iterations == fit.iterations
        assert np.array_equal(fit_scaled.params.zeta, fit.params.zeta * c)
        assert fit_scaled.params.sigma_eps2 == fit.params.sigma_eps2 * c ** 2
        assert np.array_equal(fit_scaled.params.sigma_gamma, fit.params.sigma_gamma * c ** 2)

    def test_trace_records_every_iteration(self):
        spec = default_spec(seed=25, n_units=10, n_obs=6)
        ds, truth = generate_dataset(spec)
        fit = fit_em(ds, spec.config, scores=truth.scores, max_iter=7, tol=0.0)
        assert fit.iterations == 7
        assert fit.loglik_trace.size == 8  # initialization plus each iteration
        assert not fit.converged

    def test_unit_index(self):
        spec = default_spec(seed=26, n_units=12, n_obs=5)
        ds, truth = generate_dataset(spec)
        fit = fit_em(ds, spec.config, scores=truth.scores)
        assert [fit.unit_index(uid) for uid in ds.unit_ids] == list(range(ds.n_units))
        assert fit.unit_index("stranger") is None


    def test_ridge_path_fits_a_rank_deficient_design(self):
        # a duplicated scalar column: the ridge path's working-parameter
        # solve projects on Omega through the jittered normal matrix
        from dataclasses import replace as dc_replace
        spec = default_spec(seed=32, n_units=30, n_obs=10)
        ds, truth = generate_dataset(spec)
        config = dc_replace(spec.config, include_functional=False, include_interaction=False)
        ridge = dc_replace(config, ridge_jitter=True)
        doubled = dc_replace(ds, scalars=np.column_stack([ds.scalars, ds.scalars]))
        with pytest.raises(ValueError, match="rank-deficient.*dependent columns: beta_l1_p2$"):
            fit_em(doubled, config)
        fit = fit_em(doubled, ridge)
        full = fit_em(ds, config)
        assert fit.converged and np.diff(fit.loglik_trace).min() >= -1e-8
        assert fit.loglik == pytest.approx(full.loglik, rel=1e-8)
        assert fit.params.sigma_gamma[0, 0] == pytest.approx(
            full.params.sigma_gamma[0, 0], rel=1e-4)

    def test_ridge_fit_builds_its_gram_once(self, monkeypatch):
        # every zeta update and the working-parameter sums read one factorisation
        from dataclasses import replace as dc_replace
        from functools import cached_property

        from degramix.design import DesignMatrices
        built = []
        factor = DesignMatrices.omega_factor.func
        counted = cached_property(lambda dm: built.append(dm) or factor(dm))
        counted.__set_name__(DesignMatrices, "omega_factor")
        monkeypatch.setattr(DesignMatrices, "omega_factor", counted)
        spec = default_spec(seed=32, n_units=30, n_obs=10)
        ds, truth = generate_dataset(spec)
        fit = fit_em(ds, dc_replace(spec.config, ridge_jitter=True), scores=truth.scores)
        assert fit.iterations > 1
        assert len(built) == 1 and built[0].unit_ids == fit.unit_ids

    @staticmethod
    def _ridge_update(doubled):
        """A ridge design without functional terms (its scalar column
        duplicated when ``doubled``), the zeta update on it and its rhs."""
        from dataclasses import replace as dc_replace
        spec = default_spec(seed=34, n_units=30, n_obs=10)
        ds, _ = generate_dataset(spec)
        config = dc_replace(spec.config, include_functional=False, include_interaction=False,
                            ridge_jitter=True)
        if doubled:
            ds = dc_replace(ds, scalars=np.column_stack([ds.scalars, ds.scalars]))
        dm = build_design_matrices(ds, config)
        posterior = e_step(init_params(dm), dm)
        return dm, update_zeta(posterior, dm), dm.y - dm.latent_mean(posterior.mu)

    @pytest.mark.parametrize("doubled", [False, True])
    def test_ridge_zeta_matches_jittered_normal_equations(self, doubled):
        # on the duplicated column the jittered normal matrix has condition
        # ~1e8, where a solve by another route would move zeta by ~1e-6
        dm, zeta, rhs = self._ridge_update(doubled)
        expected = ridge_normal_equations(dm.omega.reshape(rhs.size, -1), rhs.reshape(-1))
        assert np.max(np.abs(zeta - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_hand_built_design_factors_omega_once(self, monkeypatch):
        from degramix import design
        dm, _, _ = synthetic_dm(seed=33, n_units=10, n_obs=6)
        dm = stack_population(dm.layout, dm.unit_ids, *split_units(dm))
        factored = []
        qr = design._pivoted_qr
        monkeypatch.setattr(design, "_pivoted_qr", lambda omega: factored.append(1) or qr(omega))
        posterior = e_step(init_params(dm), dm)
        first = update_zeta(posterior, dm)
        assert np.array_equal(update_zeta(posterior, dm), first)
        assert len(factored) == 1


class TestErrorPaths:
    def test_singular_sigma_gamma_after_flooring(self):
        dm, _, _ = synthetic_dm(seed=30, n_units=8, n_obs=4)
        params = Parameters(np.zeros(dm.layout.size), 1.0,
                            np.zeros((dm.layout.n_levels,) * 2))
        from degramix.estimator import NumericalError
        with pytest.raises(NumericalError, match="singular sigma_gamma"):
            e_step(params, dm)

    @pytest.mark.parametrize("variant", ["Model7", "Model1"])
    def test_non_finite_start_fails_before_any_step(self, monkeypatch, variant):
        # Model1 has no latent term: its one log-likelihood is the start's
        spec = default_spec(seed=29, n_units=12, n_obs=6)
        ds, truth = generate_dataset(spec)
        config = table1_variants(k=2)[variant].config

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran from a non-finite start")

        monkeypatch.setattr(estimator, "marginal_loglik", lambda params, dm: float("nan"))
        monkeypatch.setattr(estimator, "_px_step", no_step)
        with pytest.raises(estimator.NumericalError,
                           match="^non-finite log-likelihood at iteration 0$"):
            fit_em(ds, config, scores=truth.scores)

    @pytest.mark.parametrize("wrong", ["zeta", "sigma_gamma"])
    def test_init_of_the_wrong_shape_is_rejected(self, wrong):
        # numpy would fail inside the first E-step, naming neither
        spec = default_spec(seed=29, n_units=12, n_obs=6)
        ds, truth = generate_dataset(spec)
        ols = init_params(build_design_matrices(ds, spec.config, scores=truth.scores))
        p, d = ols.zeta.size, ols.sigma_gamma.shape[0]
        init = Parameters(np.append(ols.zeta, 0.0) if wrong == "zeta" else ols.zeta,
                          ols.sigma_eps2, np.eye(d + (wrong == "sigma_gamma")))
        with pytest.raises(ValueError, match=rf"^init must have zeta of length {p} and "
                                             rf"a {d} x {d} sigma_gamma, got"):
            fit_em(ds, spec.config, scores=truth.scores, init=init)


BOUNDARY_CONFIG = table1_variants(k=2)["Model7"].config


def boundary_dataset(seed):
    """A desk-scale dataset whose latent variance is zero."""
    return generate_dataset(default_spec(seed=seed, n_units=60, sigma_gamma=np.zeros((1, 1))))[0]


def boundary_stacked(ds, fit):
    """The stacked design, one row per observation, of a boundary fit."""
    return stacked_design_matrices(ds, BOUNDARY_CONFIG, fit.scores)


class TestVarianceBoundary:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_profiled_likelihood_oracle(self, seed):
        # seed 0 has an interior maximum at a tiny sigma_gamma^2, seed 1 its
        # maximum on the zero boundary
        ds = boundary_dataset(seed)
        fit = fit_em(ds, BOUNDARY_CONFIG)
        assert fit.converged and fit.stop_reason == "converged"
        assert fit.iterations <= 40
        ll_star, sg_star = profiled_max(boundary_stacked(ds, fit))
        assert fit.loglik >= ll_star - 1e-8 * abs(ll_star)
        if seed == 0:
            assert fit.params.sigma_gamma[0, 0] == pytest.approx(sg_star, rel=1e-3)

    def test_profiled_oracle_is_the_marginal_likelihood(self):
        # at its GLS zeta and profiled noise variance, the dense per-unit
        # profile equals the library's marginal log-likelihood
        ds = boundary_dataset(0)
        fit = fit_em(ds, BOUNDARY_CONFIG)
        st = boundary_stacked(ds, fit)
        dm = build_design_matrices(ds, BOUNDARY_CONFIG, scores=fit.scores)
        for theta in (0.0, 1e-3, 0.5):
            ll, sigma2, zeta = profiled_fit(st, theta)
            params = Parameters(zeta, sigma2, theta * sigma2 * np.eye(1))
            assert marginal_loglik(params, dm) == pytest.approx(ll, rel=1e-12)
            assert profiled_loglik(st, theta) == ll

    def test_collapsing_variance_returns_a_fit(self):
        # noiseless responses with no latent term: the latent variance
        # collapses in one step, and stays on the noise-scale floor
        for seed in range(4):
            spec = default_spec(seed=seed, n_units=15, n_obs=8, sigma_eps2=0.0,
                                sigma_gamma=np.zeros((1, 1)))
            ds, truth = generate_dataset(spec)
            fit = fit_em(ds, spec.config, scores=truth.scores)
            assert fit.converged
            assert np.max(np.abs(fit.params.zeta - truth.zeta)) <= 1e-8
            assert 0.0 < fit.params.sigma_gamma[0, 0] <= 1e-12 * fit.params.sigma_eps2


class TestTwoLevel:
    @pytest.mark.parametrize("diagonal", [False, True])
    def test_converges_above_plain_em(self, diagonal, monkeypatch):
        config = ModelConfig(k=2, center_baseline=False, constrain_sigma_gamma_diagonal=diagonal)
        visited = []

        def recording_e_step(params, dm):
            visited.append(params.sigma_gamma)
            return e_step(params, dm)

        monkeypatch.setattr(estimator, "e_step", recording_e_step)
        for seed in range(4):
            ds, _ = generate_dataset(default_spec(seed=seed, n_units=60, n_obs=20))
            fit = fit_em(ds, config)
            assert fit.converged and fit.iterations < 500
            dm = build_design_matrices(ds, config, scores=fit.scores)
            plain = plain_em(dm, init_params(dm), 500, diagonal)
            assert fit.loglik >= marginal_loglik(plain, dm)
        assert len(visited) > 8
        if diagonal:
            assert all(sg[0, 1] == sg[1, 0] == 0.0 for sg in visited)


class TestStopping:
    def test_stop_reason_and_warning(self):
        spec = default_spec(seed=28, n_units=12, n_obs=6)
        ds, truth = generate_dataset(spec)
        fit = fit_em(ds, spec.config, scores=truth.scores)
        assert fit.converged and fit.stop_reason == "converged"
        with pytest.warns(ConvergenceWarning, match="EM stopped at max_iter=1 without converging"):
            capped = fit_em(ds, spec.config, scores=truth.scores, max_iter=1)
        assert not capped.converged and capped.stop_reason == "max_iter"
        # tol=0 asks for exactly max_iter iterations: no warning
        fixed = fit_em(ds, spec.config, scores=truth.scores, max_iter=2, tol=0.0)
        assert fixed.stop_reason == "max_iter" and fixed.iterations == 2

    @pytest.mark.parametrize("max_iter", [2.5, True, False, -1, "3", None])
    def test_max_iter_must_be_a_whole_number(self, max_iter):
        spec = default_spec(seed=28, n_units=12, n_obs=6)
        ds, truth = generate_dataset(spec)
        with pytest.raises(ValueError, match="max_iter must be an integer >= 0"):
            fit_em(ds, spec.config, scores=truth.scores, max_iter=max_iter)
        estimator.check_stopping(np.int64(3), 1e-8)  # a numpy integer is one
        assert fit_em(ds, spec.config, scores=truth.scores, max_iter=np.int32(2),
                      tol=0.0).iterations == 2

    def test_flat_loglik_stops_only_when_parameters_stop(self, monkeypatch):
        # the log-likelihood test alone would stop after the first iteration
        spec = default_spec(seed=29, n_units=30, n_obs=10)
        ds, truth = generate_dataset(spec)
        monkeypatch.setattr(estimator, "marginal_loglik", lambda params, dm: -1.0)
        fit = fit_em(ds, spec.config, scores=truth.scores)
        assert fit.converged and fit.iterations > 1
        step = fit_em(ds, spec.config, scores=truth.scores, init=fit.params, max_iter=1, tol=0.0)
        assert np.linalg.norm(step.params.zeta - fit.params.zeta) <= 1e-4 * np.linalg.norm(
            fit.params.zeta)
        assert step.params.sigma_eps2 == pytest.approx(fit.params.sigma_eps2, rel=1e-4)

    def test_shrinking_component_counts_as_stopped(self):
        # on the zero boundary sigma_gamma^2 shrinks by a steady factor per
        # iteration; measured on the response scale the change is below the
        # bound long before the component reaches the noise-scale floor
        ds = boundary_dataset(1)
        fit = fit_em(ds, BOUNDARY_CONFIG)
        dm = build_design_matrices(ds, BOUNDARY_CONFIG, scores=fit.scores)
        g_bar = np.trace(dm.lam_gram.sum(axis=0)) / dm.n_obs
        floor = 1e-12 * fit.params.sigma_eps2 / g_bar
        assert fit.converged
        assert fit.params.sigma_gamma[0, 0] > 1e3 * floor

    def test_converged_fit_has_stopped_moving(self):
        # twenty more iterations from a converged fit's estimates move
        # sigma_gamma^2 by under 0.1% and zeta by under 1e-4 relative
        ds = boundary_dataset(0)
        fit = fit_em(ds, BOUNDARY_CONFIG)
        again = fit_em(ds, BOUNDARY_CONFIG, init=fit.params, max_iter=20, tol=0.0)
        sg, sg2 = fit.params.sigma_gamma[0, 0], again.params.sigma_gamma[0, 0]
        assert abs(sg2 - sg) <= 1e-3 * sg
        assert np.linalg.norm(again.params.zeta - fit.params.zeta) <= 1e-4 * np.linalg.norm(
            fit.params.zeta)
