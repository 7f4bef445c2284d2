"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import time

import numpy as np
import pytest

from degramix.cli import run as cli_run
from degramix.descriptors import MicrostructureImage, ParticleSet, compute_rdf, compute_tpc
from degramix.design import ZetaLayout, build_design_matrices
from degramix.estimator import (
    Parameters,
    e_step,
    fit_em,
    update_sigma_eps,
    update_sigma_gamma,
    update_zeta,
)
from degramix.evaluation import compare_models, effect_decomposition, table1_variants
from degramix.fpca import fit_fpca, project_scores, reconstruct, select_k_by_fve, with_k
from degramix.simulate import default_spec, generate_dataset
from _oracles import (
    build_observed_design,
    central_difference,
    coefficient_levels,
    gaussian_conditioning,
    golden_section_max,
    noise_variance_q_profile,
    q_value,
    split_units,
    stack_population,
    stacked_design_matrices,
    tpc_pair_enumeration,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}" + (f" - {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def _assemble(omegas, lambdas, ys, d):
    u = omegas[0].shape[1]
    layout = ZetaLayout(levels=tuple(range(d)), n_scalars=u - d, n_functional=0,
                        n_components=0, include_scalar=u > d,
                        include_functional=False, include_interaction=False)
    return stack_population(layout, [f"u{i}" for i in range(len(omegas))],
                            omegas, lambdas, ys)


def test_criterion_1_em_monotonicity():
    start = time.perf_counter()
    worst = np.inf
    for seed in range(20):
        spec = default_spec(seed=seed)
        ds, _ = generate_dataset(spec)
        fit = fit_em(ds, spec.config)
        worst = min(worst, float(np.diff(fit.loglik_trace).min()))
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-8 and elapsed < 30.0
    _report("criterion 1: EM monotonicity",
            ok, f"min increment {worst:.3e}, runtime {elapsed:.1f}s")


def test_criterion_2_e_step_oracle():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))  # latent dimension up to 3 levels
        n_units = int(rng.integers(2, 6))
        omegas, lambdas, ys = [], [], []
        for _ in range(n_units):
            m = int(rng.integers(1, 7))
            omegas.append(rng.normal(size=(m, 2)))
            lambdas.append(rng.normal(size=(m, d)))
            ys.append(rng.normal(size=m))
        dm = _assemble(omegas, lambdas, ys, d)
        a = rng.normal(size=(d, d))
        params = Parameters(rng.normal(size=2), float(rng.uniform(0.2, 2.0)),
                            a @ a.T + 0.4 * np.eye(d))
        post = e_step(params, dm)
        for i in range(n_units):
            resid = ys[i] - omegas[i] @ params.zeta
            mu, v = gaussian_conditioning(lambdas[i], params.sigma_gamma,
                                          params.sigma_eps2, resid)
            worst = max(worst, float(np.max(np.abs(post.mu[i] - mu))),
                        float(np.max(np.abs(post.v[i] - v))))
    _report("criterion 2: E-step vs joint-Gaussian conditioning",
            worst <= 1e-10, f"max abs deviation {worst:.3e} over 50 instances")


def test_criterion_3_m_step_stationarity():
    rng = np.random.default_rng(77)
    worst_grad = 0.0
    worst_gs = 0.0
    for trial in range(20):
        spec = default_spec(seed=300 + trial, n_units=12, n_obs=6,
                            sigma_eps2=float(rng.uniform(0.02, 0.2)))
        ds, truth = generate_dataset(spec)
        dm = build_design_matrices(ds, spec.config, scores=truth.scores)
        st = stacked_design_matrices(ds, spec.config, truth.scores)  # what the oracles read
        d = dm.layout.n_levels
        a = rng.normal(size=(d, d))
        params = Parameters(truth.zeta + 0.3 * rng.normal(size=dm.layout.size),
                            float(rng.uniform(0.05, 0.5)),
                            a @ a.T + 0.2 * np.eye(d))
        post = e_step(params, dm)
        zeta_hat = update_zeta(post, dm)
        sg_hat = update_sigma_gamma(post)
        se_hat = update_sigma_eps(post, zeta_hat, dm)

        # zeta block: Q is quadratic, central differences are exact
        for j in range(zeta_hat.size):
            def q_zeta(v, j=j):
                z = zeta_hat.copy()
                z[j] = v
                return q_value(Parameters(z, params.sigma_eps2, params.sigma_gamma),
                               post, st)
            g = central_difference(q_zeta, float(zeta_hat[j]),
                                   1e-2 * (abs(float(zeta_hat[j])) + 1.0))
            worst_grad = max(worst_grad, abs(g))

        # sigma_gamma block: perturb symmetric entries in trace-scaled units
        scale = float(np.trace(sg_hat)) / d
        for p in range(d):
            for q in range(p, d):
                def q_sg(t, p=p, q=q):
                    sg = sg_hat.copy()
                    sg[p, q] += t * scale
                    if p != q:
                        sg[q, p] += t * scale
                    return q_value(Parameters(zeta_hat, params.sigma_eps2, sg), post, st)
                worst_grad = max(worst_grad, abs(central_difference(q_sg, 0.0, 1e-5)))

        # noise block: gradient in log-variance, plus the golden-section oracle
        def q_log_sigma(u):
            return q_value(Parameters(zeta_hat, float(np.exp(u)), sg_hat), post, st)
        worst_grad = max(worst_grad, abs(central_difference(
            q_log_sigma, float(np.log(se_hat)), 1e-5)))

        omegas, lambdas, ys = split_units(st)
        profile = noise_variance_q_profile(lambdas, omegas, ys,
                                           post.mu, post.second_moments, zeta_hat,
                                           s_ref=se_hat)
        s_star = golden_section_max(profile, se_hat / 10.0, se_hat * 10.0)
        worst_gs = max(worst_gs, abs(se_hat - s_star) / s_star)

    ok = worst_grad <= 1e-6 and worst_gs <= 1e-8
    _report("criterion 3: M-step stationarity",
            ok, f"max |grad Q| {worst_grad:.3e}, max golden-section mismatch {worst_gs:.3e}")


def test_criterion_4_parameter_recovery():
    start = time.perf_counter()
    zeta_errs, se_errs, sg_errs = [], [], []
    for seed in range(20):
        spec = default_spec(seed=1000 + seed)
        ds, truth = generate_dataset(spec)
        fit = fit_em(ds, spec.config, scores=truth.scores)
        zeta_errs.append(np.linalg.norm(fit.params.zeta - truth.zeta)
                         / np.linalg.norm(truth.zeta))
        se_errs.append(abs(fit.params.sigma_eps2 / truth.sigma_eps2 - 1.0))
        sg_errs.append(float(np.max(np.abs(
            np.diag(fit.params.sigma_gamma) / np.diag(truth.sigma_gamma) - 1.0))))
    elapsed = time.perf_counter() - start
    med_zeta = float(np.median(zeta_errs))
    med_se = float(np.median(se_errs))
    med_sg = float(np.median(sg_errs))
    ok = med_zeta <= 0.05 and med_se <= 0.10 and med_sg <= 0.25 and elapsed < 20.0
    _report("criterion 4: parameter recovery", ok,
            f"median zeta {med_zeta:.3%}, sigma_eps2 {med_se:.3%}, "
            f"sigma_gamma diag {med_sg:.3%}, runtime {elapsed:.1f}s")


def test_criterion_5_descriptor_oracles():
    rng = np.random.default_rng(55)

    bitwise_ok = True
    zero_lag_ok = True
    for i in range(20):
        h, w = rng.integers(8, 33, size=2)
        mask = rng.random((h, w)) < rng.uniform(0.2, 0.8)
        periodic = bool(i % 2)
        r_max = max(1, int(min(h, w) // 2 - 1))
        img = MicrostructureImage(mask.astype(float), phase_mask=mask)
        got = compute_tpc(img, r_max, periodic=periodic).values
        oracle = tpc_pair_enumeration(mask, r_max, periodic=periodic)
        bitwise_ok &= bool(np.array_equal(got, oracle))
        zero_lag_ok &= bool(got[0] == mask.sum() / mask.size)

    big = rng.random((512, 512)) < 0.3
    tpc = compute_tpc(MicrostructureImage(big.astype(float), phase_mask=big), 20).values
    band_ok = bool(np.all(np.abs(tpc[5:21] - 0.09) <= 0.005))

    pts = np.random.default_rng(4242).random((2000, 2))
    rdf = compute_rdf(ParticleSet(pts, (1.0, 1.0)), 0.1, 0.01)
    band = rdf.values[2:10]  # bins covering [0.02, 0.1)
    rdf_ok = bool(np.all((band >= 0.9) & (band <= 1.1)))

    ok = bitwise_ok and zero_lag_ok and band_ok and rdf_ok
    _report("criterion 5: descriptor oracles", ok,
            f"bitwise {bitwise_ok}, TPC(0) {zero_lag_ok}, "
            f"iid band {band_ok}, RDF band {rdf_ok}")


def test_criterion_6_fpca_recovery():
    r_grid = np.linspace(0.0, 10.0, 81)
    r = r_grid / r_grid[-1]
    modes = np.vstack([
        np.sqrt(2.0) * np.sin(2.0 * np.pi * r),
        np.sqrt(2.0) * np.cos(2.0 * np.pi * r),
        np.sqrt(2.0) * np.sin(4.0 * np.pi * r),
    ])
    lam = np.array([9.0, 3.0, 1.0])
    noise_sd = 0.03
    n = 200

    k_hits = 0
    mse_ok = True
    worst_dev = 0.0
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        raw = rng.normal(size=(n, 3))
        raw -= raw.mean(axis=0)
        # exact sample decorrelation: mode recovery is then noise-limited,
        # not limited by score sampling error
        chol = np.linalg.cholesky(raw.T @ raw / (n - 1))
        scores = (raw @ np.linalg.inv(chol).T) * np.sqrt(lam)
        curves = 1.0 + scores @ modes + noise_sd * rng.normal(size=(n, r_grid.size))

        model = fit_fpca(curves, r_grid)
        if select_k_by_fve(model, 0.95) == 3:
            k_hits += 1

        model3 = with_k(model, 3)
        recon = reconstruct(model3, project_scores(model3, curves))
        mse = float(np.mean((curves - recon) ** 2))
        mse_ok &= mse <= 1.1 * noise_sd ** 2

        for j in range(3):
            est = model.eigenfunctions[j]
            dev = min(float(np.max(np.abs(est - modes[j]))),
                      float(np.max(np.abs(est + modes[j]))))
            worst_dev = max(worst_dev, dev)

    ok = k_hits >= 19 and mse_ok and worst_dev <= 1e-2
    _report("criterion 6: FPCA selection and recovery", ok,
            f"K=3 in {k_hits}/20 seeds, reconstruction MSE ok {mse_ok}, "
            f"max eigenfunction deviation {worst_dev:.3e}")


def test_criterion_7_model_family_ordering():
    registry = table1_variants(k=2)
    names = ["Model1", "Model2", "Model3", "Model4", "Model5", "Model6", "Model7"]
    aic_wins = 0
    nested_wins = 0
    for seed in range(20):
        spec = default_spec(seed=2000 + seed)
        ds, truth = generate_dataset(spec)
        rows = compare_models(ds, [registry[n] for n in names],
                              micro_scalar=truth.scores[:, 0, 0])
        by_name = {r.model: r for r in rows}
        assert all(r.error is None for r in rows), [r.error for r in rows]
        best = min(rows, key=lambda r: r.aic)
        if best.model == "Model7":
            aic_wins += 1
        if (by_name["Model3"].r2 >= by_name["Model1"].r2
                and by_name["Model3"].r2 >= by_name["Model2"].r2):
            nested_wins += 1
    ok = aic_wins >= 18 and nested_wins == 20
    _report("criterion 7: model-family ordering", ok,
            f"Model7 best AIC in {aic_wins}/20, nested R2 dominance in {nested_wins}/20")


def test_criterion_8_effect_decomposition_identity():
    worst = 0.0
    for seed in range(5):
        spec = default_spec(seed=3000 + seed, n_units=25, n_obs=12)
        ds, truth = generate_dataset(spec)
        fit = fit_em(ds, spec.config)
        effects = effect_decomposition(fit, ds)
        n_levels = len(fit.layout.levels)
        assert effects["unit_id"].tolist() == [u for u in ds.unit_ids for _ in range(n_levels)]
        eta_rows = (effects["population"] + effects["scalar_effect"] + effects["marginal_effect"]
                    + effects["interaction_effect"] + effects["latent_effect"])
        for i, u in enumerate(ds.units):
            eta = eta_rows.reshape(ds.n_units, n_levels)[i]
            # independent route: the per-unit column-block design applied to the estimates
            omega = build_observed_design(u, spec.config.basis, fit.scores[i], ds.r_support,
                                          fit.layout)
            phi = u.times[:, None] ** np.array(fit.layout.levels, float)[None, :]
            direct = omega @ fit.params.zeta + phi @ fit.posterior.mu[i]
            worst = max(worst, float(np.max(np.abs(phi @ eta - direct))))
            worst = max(worst, float(np.max(np.abs(
                eta - coefficient_levels(fit, u)))))
    _report("criterion 8: effect decomposition identity",
            worst <= 1e-12, f"max abs deviation {worst:.3e}")


def test_criterion_9_cli_determinism(tmp_path):
    spec = {"n_units": 14, "n_obs": 8, "seed": 42,
            "times": list(np.linspace(0.0, 3.0, 8))}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))

    blobs = []
    for tag in ("a", "b"):
        data = tmp_path / f"data_{tag}"
        fit = tmp_path / f"fit_{tag}"
        ev = tmp_path / f"eval_{tag}"
        assert cli_run(["simulate", "--spec", str(spec_path), "--out", str(data)]) == 0
        assert cli_run(["fit", "--data", str(data), "--variant", "Model7", "--k", "2",
                        "--out", str(fit)]) == 0
        assert cli_run(["evaluate", "--data", str(data), "--variant", "Model7",
                        "--k", "2", "--folds", "2", "--seed", "5",
                        "--out", str(ev)]) == 0
        blobs.append(tuple(
            (data / n).read_bytes() for n in ("responses.csv", "scalars.csv",
                                              "curves.csv", "truth.json")
        ) + ((fit / "fit_report.json").read_bytes(),
             (ev / "metrics.json").read_bytes(),
             (ev / "effects.csv").read_bytes()))
    _report("criterion 9: CLI determinism", blobs[0] == blobs[1],
            "byte-identical outputs across reruns")
