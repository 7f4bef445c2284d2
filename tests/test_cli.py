import ast
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degramix import cli, data, design, estimator, evaluation
from degramix.cli import run
from degramix.data import load_dataset, save_dataset
from degramix.fpca import fit_fpca, select_k_by_fve
from degramix.simulate import default_spec


def write_pgm(path, values, maxval=255):
    values = np.asarray(values)
    h, w = values.shape
    path.write_bytes(f"P5\n{w} {h}\n{maxval}\n".encode() + values.astype("u1").tobytes())


def simulate_into(tmp_path, name="data", seed=3, n_units=12, n_obs=10):
    out = tmp_path / name
    spec = {"n_units": n_units, "n_obs": n_obs, "seed": seed,
            "times": list(np.linspace(0.0, 3.0, n_obs))}
    spec_path = tmp_path / f"{name}_spec.json"
    spec_path.write_text(json.dumps(spec))
    assert run(["simulate", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


class TestUsageAndErrors:
    def test_no_arguments_exits_one(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_exits_one(self, capsys):
        assert run(["simulate", "--nope", "x", "--out", "d"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_exits_one(self):
        assert run(["frobnicate"]) == 1

    def test_missing_data_dir_exits_one(self, tmp_path):
        assert run(["fit", "--data", str(tmp_path / "absent"), "--out", str(tmp_path)]) == 1

    def test_unwritable_out_exits_one_naming_path(self, tmp_path, capsys):
        data = simulate_into(tmp_path)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "fit"
        assert run(["fit", "--data", str(data), "--variant", "Model1",
                    "--out", str(out)]) == 1
        assert str(out) in capsys.readouterr().err

    def test_linear_algebra_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        data = simulate_into(tmp_path)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(estimator.np.linalg, "inv", singular)
        assert run(["fit", "--data", str(data), "--variant", "Model7", "--k", "2",
                    "--out", str(tmp_path / "fit")]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_zero_fve_exits_one(self, tmp_path, capsys):
        data = simulate_into(tmp_path)
        for command in ("fit", "fpca", "compare"):
            assert run([command, "--data", str(data), "--fve", "0",
                        "--out", str(tmp_path / command)]) == 1
            assert "fve_threshold must lie in (0, 1]" in capsys.readouterr().err

    def test_short_response_row_exits_one(self, tmp_path, capsys):
        data = simulate_into(tmp_path)
        with open(data / "responses.csv", "a") as fh:
            fh.write("u1,2.0\n")
        assert run(["fit", "--data", str(data), "--out", str(tmp_path / "fit")]) == 1
        assert f"{data / 'responses.csv'}: line 122:" in capsys.readouterr().err


def assert_fpca_matches_fit(tmp_path, data, fpca_report):
    """Each covariate's K, eigenfunctions and scores in ``fpca_report`` are
    those of a Model7 fit at the same FVE threshold."""
    out = tmp_path / "fit_for_fpca"
    assert run(["fit", "--data", str(data), "--variant", "Model7", "--fve", "0.95",
                "--out", str(out)]) == 0
    fit = json.loads((out / "fit_report.json").read_text())
    assert len(fpca_report["covariates"]) == len(fit["fpca"])
    for s, (cov, model) in enumerate(zip(fpca_report["covariates"], fit["fpca"])):
        assert cov["k"] == model["k"]
        assert cov["eigenfunctions"] == model["eigenfunctions"]
        assert cov["scores"]["unit_ids"] == fit["scores"]["unit_ids"]
        assert cov["scores"]["values"] == [unit[s] for unit in fit["scores"]["values"]]


class TestSimulateFitPipeline:
    def test_end_to_end_fit_report(self, tmp_path):
        data = simulate_into(tmp_path)
        out = tmp_path / "fit"
        code = run(["fit", "--data", str(data), "--variant", "Model7", "--k", "2",
                    "--out", str(out)])
        assert code == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["converged"] is True
        assert len(report["zeta"]["values"]) == report["layout"]["size"]
        assert len(report["latent_posterior"]["mu"]) == 12
        trace = np.asarray(report["loglik_trace"])
        assert np.all(np.diff(trace) >= -1e-8)

    def test_fit_then_predict(self, tmp_path):
        data = simulate_into(tmp_path, seed=4)
        fit_dir = tmp_path / "fit"
        assert run(["fit", "--data", str(data), "--variant", "Model7", "--k", "2",
                    "--out", str(fit_dir)]) == 0
        pred_dir = tmp_path / "pred"
        assert run(["predict", "--fit", str(fit_dir / "fit_report.json"),
                    "--data", str(data), "--out", str(pred_dir)]) == 0
        lines = (pred_dir / "predictions.csv").read_text().splitlines()
        assert lines[0] == "unit_id,time,y,y_hat"
        assert len(lines) == 1 + 12 * 10

    def test_dump_design(self, tmp_path):
        data = simulate_into(tmp_path, seed=5)
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(data), "--variant", "Model4", "--k", "2",
                    "--dump-design", "--out", str(out)]) == 0
        omega_lines = (out / "design_omega.csv").read_text().splitlines()
        lam_lines = (out / "design_lambda.csv").read_text().splitlines()
        # compact latent design: one row per observation, in design_omega.csv's row order
        assert lam_lines[0] == "unit_id,gamma_l1"
        assert len(lam_lines) == len(omega_lines) == 1 + 12 * 10
        rows = [ln.split(",") for ln in lam_lines[1:]]
        assert all(len(r) == 2 for r in rows)
        response_ids = [ln.split(",")[0] for ln in (data / "responses.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == response_ids
        omega_first = [ln.split(",")[0] for ln in omega_lines[1:]]
        assert [float(r[1]) for r in rows] == [float(v) for v in omega_first]

    def test_dump_design_builds_design_once(self, tmp_path, monkeypatch):
        data = simulate_into(tmp_path, seed=5)
        calls = []
        build = design.build_design_matrices

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        # every binding a caller could reach, so a second build by any route counts
        monkeypatch.setattr(design, "build_design_matrices", counted)
        monkeypatch.setattr(estimator, "build_design_matrices", counted)
        assert run(["fit", "--data", str(data), "--variant", "Model7", "--k", "2",
                    "--dump-design", "--out", str(tmp_path / "fit")]) == 0
        assert len(calls) == 1

    def test_dump_design_quotes_ids_and_reloads_bits(self, tmp_path, monkeypatch):
        ds = load_dataset(*(simulate_into(tmp_path, seed=5) / name for name in cli._DATA_FILES))
        data = tmp_path / "quoted"
        data.mkdir()
        save_dataset(replace(ds, unit_ids=("a,b", *ds.unit_ids[1:])),
                     *(data / name for name in cli._DATA_FILES))
        built = []
        build = design.build_design_matrices

        def kept(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(estimator, "build_design_matrices", kept)
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(data), "--variant", "Model7", "--k", "2",
                    "--dump-design", "--out", str(out)]) == 0
        dm, = built
        for name, want in (("design_omega.csv", dm.omega), ("design_lambda.csv", dm.lam)):
            with open(out / name, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert {len(row) for row in rows} == {len(header)}, name
            if name == "design_lambda.csv":
                assert [row[0] for row in rows] == list(np.repeat(dm.unit_ids, dm.counts))
                assert rows[0][0] == "a,b"
                rows = [row[1:] for row in rows]
            assert np.array(rows, dtype=float).tobytes() == want.tobytes(), name

    def test_evaluate_writes_metrics_and_effects(self, tmp_path):
        data = simulate_into(tmp_path, seed=6, n_units=14)
        out = tmp_path / "eval"
        assert run(["evaluate", "--data", str(data), "--variant", "Model7", "--k", "2",
                    "--split", "0.8", "--folds", "3", "--seed", "1",
                    "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        for key in ("r2", "loglik", "aic", "bic", "mse_train", "mse_test", "cv_error", "p"):
            assert key in metrics
        header = (out / "effects.csv").read_text().splitlines()[0]
        assert header == "unit_id,level,marginal_effect,interaction_effect,latent_effect"

    def test_evaluate_splits_once(self, tmp_path, monkeypatch):
        data = simulate_into(tmp_path, seed=6, n_units=14)
        calls = []
        split = evaluation.temporal_split

        def counted(*args, **kwargs):
            calls.append(1)
            return split(*args, **kwargs)

        # every binding a caller could reach, so a second split by any route counts
        monkeypatch.setattr(evaluation, "temporal_split", counted)
        monkeypatch.setattr(cli, "temporal_split", counted, raising=False)
        assert run(["evaluate", "--data", str(data), "--variant", "Model7", "--k", "2",
                    "--split", "0.8", "--folds", "0", "--out", str(tmp_path / "eval")]) == 0
        assert len(calls) == 1

    def test_compare_writes_table(self, tmp_path):
        data = simulate_into(tmp_path, seed=7, n_units=16)
        out = tmp_path / "cmp"
        assert run(["compare", "--data", str(data), "--k", "2",
                    "--variant", "Model1", "--variant", "Model3", "--variant", "Model7",
                    "--out", str(out)]) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "model,r2,loglik,aic,bic,mse_train,mse_test"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["Model1", "Model3", "Model7"]

    def test_fpca_report(self, tmp_path):
        data = simulate_into(tmp_path, seed=8)
        out = tmp_path / "fp"
        assert run(["fpca", "--data", str(data), "--fve", "0.95", "--out", str(out)]) == 0
        report = json.loads((out / "fpca_report.json").read_text())
        cov = report["covariates"][0]
        assert cov["k"] >= 1
        assert len(cov["scores"]["values"]) == 12
        assert_fpca_matches_fit(tmp_path, data, report)

    def test_fpca_shares_the_fits_truncation(self, tmp_path):
        """The second covariate alone would stop at K=1; the fit keeps the
        first covariate's K=2 for both, and so does the fpca report."""
        data = simulate_into(tmp_path, seed=8, n_units=20)
        ds = load_dataset(*(data / n for n in cli._DATA_FILES))
        rng = np.random.default_rng(5)
        r = ds.r_grid / ds.r_grid[-1]
        second = (1.0 + np.outer(rng.normal(size=ds.n_units), np.sin(2.0 * np.pi * r))
                  + 0.01 * np.outer(rng.normal(size=ds.n_units), np.cos(2.0 * np.pi * r)))
        ds = replace(ds, curves=np.stack([ds.curves[:, 0], second], axis=1))
        save_dataset(ds, *(data / n for n in cli._DATA_FILES))
        second_alone = fit_fpca(second, ds.r_grid)
        assert select_k_by_fve(second_alone, 0.95) == 1

        out = tmp_path / "fp"
        assert run(["fpca", "--data", str(data), "--fve", "0.95", "--out", str(out)]) == 0
        report = json.loads((out / "fpca_report.json").read_text())
        assert [c["k"] for c in report["covariates"]] == [2, 2]
        assert [c["s"] for c in report["covariates"]] == [1, 2]
        assert_fpca_matches_fit(tmp_path, data, report)


class TestStopReason:
    def test_report_records_and_reloads_stop_reason(self, tmp_path, capsys):
        data = simulate_into(tmp_path, seed=9)
        for name, extra, reason in (("done", [], "converged"),
                                    ("capped", ["--max-iter", "1"], "max_iter")):
            out = tmp_path / name
            assert run(["fit", "--data", str(data), "--variant", "Model7", "--k", "2",
                        *extra, "--out", str(out)]) == 0
            report = json.loads((out / "fit_report.json").read_text())
            assert report["stop_reason"] == reason
            assert report["converged"] is (reason == "converged")
            assert cli._load_fit(out / "fit_report.json").stop_reason == reason
            # a report written before the field existed derives it from converged
            del report["stop_reason"]
            (out / "old.json").write_text(json.dumps(report))
            assert cli._load_fit(out / "old.json").stop_reason == reason
        assert capsys.readouterr().out == ""

    def test_each_capped_fit_warns_on_stderr(self, tmp_path, capsys):
        data = simulate_into(tmp_path, seed=10, n_units=14)
        line = "EM stopped at max_iter=1 without converging"
        assert run(["fit", "--data", str(data), "--variant", "Model7", "--k", "2",
                    "--max-iter", "1", "--out", str(tmp_path / "fit")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err.count(f"[degramix fit] {line}") == 1
        # the temporal-split fit and one per fold
        assert run(["evaluate", "--data", str(data), "--variant", "Model7", "--k", "2",
                    "--max-iter", "1", "--folds", "3", "--out", str(tmp_path / "eval")]) == 0
        assert capsys.readouterr().err.splitlines().count(f"[degramix evaluate] {line}") == 4
        # only the latent variant iterates
        assert run(["compare", "--data", str(data), "--k", "2", "--variant", "Model1",
                    "--variant", "Model7", "--max-iter", "1", "--out", str(tmp_path / "cmp")]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines().count(f"[degramix compare] {line}") == 1
        assert captured.out == ""
        assert run(["fit", "--data", str(data), "--variant", "Model7", "--k", "2",
                    "--out", str(tmp_path / "fit2")]) == 0
        assert "max_iter" not in capsys.readouterr().err


class TestDescriptor:
    def test_tpc_row_count(self, tmp_path):
        rng = np.random.default_rng(0)
        img = tmp_path / "a.pgm"
        write_pgm(img, rng.integers(0, 256, size=(130, 130)))
        out = tmp_path / "tpc"
        code = run(["descriptor", "tpc", "--image", str(img), "--threshold", "0.5",
                    "--r-max", "64", "--out", str(out)])
        assert code == 0
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0] == "unit_id,s,r,z"
        assert len(lines) == 1 + 65

    def test_rdf_from_particles(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.random((400, 2))
        pfile = tmp_path / "p.csv"
        pfile.write_text("# window 1.0 1.0\nx,y\n" + "\n".join(
            f"{float(x)!r},{float(y)!r}" for x, y in pts) + "\n")
        out = tmp_path / "rdf"
        code = run(["descriptor", "rdf", "--particles", str(pfile),
                    "--r-max", "0.1", "--dr", "0.02", "--out", str(out)])
        assert code == 0
        lines = (out / "curves.csv").read_text().splitlines()
        assert len(lines) == 1 + 5

    def test_tpc_rejects_fractional_r_max(self, tmp_path, capsys):
        img = tmp_path / "a.pgm"
        write_pgm(img, np.random.default_rng(3).integers(0, 256, size=(20, 20)))
        out = tmp_path / "tpc"
        assert run(["descriptor", "tpc", "--image", str(img), "--r-max", "2.5",
                    "--out", str(out)]) == 1
        assert "--r-max" in capsys.readouterr().err
        assert not (out / "curves.csv").exists()

    def test_rdf_requires_dr(self, tmp_path):
        assert run(["descriptor", "rdf", "--r-max", "0.1", "--out", str(tmp_path)]) == 1

    def test_rejects_covariate_index_below_one(self, tmp_path, capsys):
        img = tmp_path / "a.pgm"
        write_pgm(img, np.random.default_rng(3).integers(0, 256, size=(20, 20)))
        out = tmp_path / "tpc"
        assert run(["descriptor", "tpc", "--image", str(img), "--r-max", "4", "--s", "0",
                    "--out", str(out)]) == 1
        assert "--s" in capsys.readouterr().err
        assert not (out / "curves.csv").exists()

    def test_image_names_that_need_quoting(self, tmp_path):
        rng = np.random.default_rng(4)
        images = [tmp_path / "a,b.pgm", tmp_path / 'say "hi".pgm']
        for img in images:
            write_pgm(img, rng.integers(0, 256, size=(20, 20)))
        out = tmp_path / "tpc"
        assert run(["descriptor", "tpc", *(f"--image={img}" for img in images), "--r-max", "4",
                    "--out", str(out)]) == 0
        text = (out / "curves.csv").read_text()
        assert '\n"a,b",1,0.0,' in text and '\n"say ""hi""",1,0.0,' in text
        with open(out / "curves.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[0] for row in rows] == ["a,b"] * 5 + ['say "hi"'] * 5
        assert all(len(row) == 4 for row in rows)


class TestDeterminism:
    def test_simulate_reruns_byte_identical(self, tmp_path):
        a = simulate_into(tmp_path, name="a", seed=11)
        b = simulate_into(tmp_path, name="b", seed=11)
        for name in ("responses.csv", "scalars.csv", "curves.csv", "truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_full_pipeline_byte_identical(self, tmp_path):
        data = simulate_into(tmp_path, seed=12)
        outs = []
        for name in ("f1", "f2"):
            out = tmp_path / name
            assert run(["fit", "--data", str(data), "--variant", "Model7", "--k", "2",
                        "--out", str(out)]) == 0
            outs.append((out / "fit_report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_descriptor_rerun_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        img = tmp_path / "a.pgm"
        write_pgm(img, rng.integers(0, 256, size=(40, 40)))
        blobs = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            assert run(["descriptor", "tpc", "--image", str(img),
                        "--r-max", "12", "--out", str(out)]) == 0
            blobs.append((out / "curves.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestConfigFile:
    def test_fit_with_config_json(self, tmp_path):
        data = simulate_into(tmp_path, seed=21)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "basis_order": 1, "k": 2, "include_scalar": True,
            "include_functional": True, "include_interaction": True,
            "include_latent": True, "center_baseline": True,
        }))
        out = tmp_path / "fit"
        assert run(["fit", "--data", str(data), "--config", str(cfg),
                    "--out", str(out)]) == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["config"]["k"] == 2

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        data = simulate_into(tmp_path, seed=23)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"k": 2, "bogus": 1}))
        assert run(["fit", "--data", str(data), "--config", str(cfg),
                    "--out", str(tmp_path / "fit")]) == 1
        err = capsys.readouterr().err
        assert "'bogus'" in err and str(cfg) in err
        assert not (tmp_path / "fit").exists()

    def test_missing_config_exits_one(self, tmp_path, capsys):
        data = simulate_into(tmp_path, seed=23)
        cfg = tmp_path / "absent.json"
        assert run(["fit", "--data", str(data), "--config", str(cfg),
                    "--out", str(tmp_path / "fit")]) == 1
        assert str(cfg) in capsys.readouterr().err

    def test_unknown_variant_exits_one(self, tmp_path, capsys):
        data = simulate_into(tmp_path, seed=22)
        assert run(["fit", "--data", str(data), "--variant", "Model99",
                    "--out", str(tmp_path / "x")]) == 1
        assert "Model1..Model7" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_variant_with_config_exits_one(self, tmp_path, capsys, command):
        data = simulate_into(tmp_path, seed=22)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"include_latent": False}))
        assert run([command, "--data", str(data), "--variant", "Model7", "--config", str(cfg),
                    "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "--variant" in err and "--config" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("payload,message", [
        ({"include_latent": "no"}, "'include_latent' must be true or false"),
        ({"k": 2.7}, "'k' must be an integer"),
        ({"k": True}, "'k' must be an integer"),
        ({"basis_order": 1.0}, "'basis_order' must be an integer"),
        ({"fve_threshold": "0.9"}, "'fve_threshold' must be a number"),
    ])
    def test_value_of_wrong_type_exits_one(self, tmp_path, capsys, payload, message):
        data = simulate_into(tmp_path, seed=23)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(payload))
        assert run(["fit", "--data", str(data), "--config", str(cfg),
                    "--out", str(tmp_path / "fit")]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}: config key {message}" in err
        assert not (tmp_path / "fit").exists()

    def test_ridge_config_fits_a_duplicated_scalar_column(self, tmp_path, capsys):
        data = simulate_into(tmp_path, seed=24)
        scalars = data / "scalars.csv"
        scalars.write_text("".join(f"{line},{line.rsplit(',', 1)[1].replace('x1', 'x2')}\n"
                                   for line in scalars.read_text().splitlines()))
        ridge, plain = tmp_path / "ridge.json", tmp_path / "plain.json"
        ridge.write_text(json.dumps({"ridge_jitter": True}))
        plain.write_text(json.dumps({"ridge_jitter": False}))
        assert run(["fit", "--data", str(data), "--config", str(ridge), "--k", "2",
                    "--out", str(tmp_path / "ridge")]) == 0
        report = json.loads((tmp_path / "ridge" / "fit_report.json").read_text())
        assert "beta_l1_p2" in report["layout"]["names"]
        capsys.readouterr()
        assert run(["fit", "--data", str(data), "--config", str(plain), "--k", "2",
                    "--out", str(tmp_path / "plain")]) == 1
        err = capsys.readouterr().err
        assert "rank-deficient" in err and "beta_l1_p2" in err


class TestSimulateSpec:
    @pytest.mark.parametrize("text,key", [
        ('{"n_units": "x"}', "'n_units' must be an integer"),
        ('{"n_units": true}', "'n_units' must be an integer"),
        ('{"sigma_eps2": "0.1"}', "'sigma_eps2' must be a number"),
        ('{"zeta": [1, "a"]}', "'zeta' must be an array of numbers"),
        ('{"times": [[0.0], [1.0, 2.0]]}', "'times' must be an array of numbers"),
        ('{"scalar_ranges": [0.5, 3.0]}', "'scalar_ranges' has shape (2,), expected (None, 2)"),
        ('{"n_units": 8,', "invalid JSON"),
        ('{"zeta": [0.8, true, 0.1, 0.1, 0.1, 0.1]}', "'zeta' must be an array of numbers"),
        ('{"times": [0.0, 1.0]}', "time grid length must equal n_obs"),
        ('{"mean_curve": [1.0, 2.0]}', "mean_curve must have len(r_grid) values"),
        ('{"score_variances": [[1.0, 0.5]]}', "'score_variances' has shape (1, 2), expected (None,)"),
        # non-finite numbers, which RFC 8259 does not allow but Python's json reads
        ('{"scalar_ranges": [[0.5, NaN]]}', "'scalar_ranges' holds a non-finite value"),
        ('{"sigma_eps2": NaN}', "'sigma_eps2' must be a number, got NaN"),
        ('{"zeta": [0.8, 0.5, NaN, -0.08, 0.06, 0.05]}', "'zeta' holds a non-finite value"),
    ])
    def test_bad_value_exits_one_naming_file_and_key(self, tmp_path, capsys, text, key):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        assert run(["simulate", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert f"{spec}: " in err and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "d").exists()

    def test_unknown_spec_key_exits_one(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_units": 8, "n_unit": 4, "n_obs": 6}))
        assert run(["simulate", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert str(spec) in err and "'n_unit'" in err
        assert not (tmp_path / "d").exists()

    def test_non_object_spec_exits_one(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([8, 6]))
        assert run(["simulate", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert str(spec) in err and "JSON object" in err
        assert not (tmp_path / "d").exists()


class TestPredictChecksReport:
    @pytest.fixture(scope="class")
    def fitted(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("report")
        data = simulate_into(tmp, seed=6)
        assert run(["fit", "--data", str(data), "--variant", "Model7", "--k", "2",
                    "--out", str(tmp / "fit")]) == 0
        return data, json.loads((tmp / "fit" / "fit_report.json").read_text())

    @pytest.mark.parametrize("edit,message", [
        (lambda r: r.pop("zeta"), "fit report has no 'zeta' entry"),
        (lambda r: r["zeta"]["values"].pop(), "zeta has shape (5,), expected (6,)"),
        (lambda r: r.update(sigma_gamma=[[1.0, 0.0], [0.0, 1.0]]),
         "sigma_gamma has shape (2, 2), expected (1, 1)"),
        (lambda r: r["latent_posterior"]["mu"].pop(),
         "latent_posterior mu has shape (11, 1), expected (12, 1)"),
        (lambda r: r["scores"]["values"][0][0].pop(), "scores must be an array of numbers"),
        (lambda r: r["scores"]["values"].pop(), "scores has shape (11, 1, 2), expected (12, 1, 2)"),
        (lambda r: r["fpca"][0]["eigenfunctions"].pop(),
         "fpca eigenfunctions has shape (1, 101), expected (2, 101)"),
        (lambda r: r["config"].update(k=2.5), "config key 'k' must be an integer"),
        # a non-finite or non-covariance parameter, which predict would use as read
        (lambda r: r.update(sigma_eps2=float("nan")),
         "sigma_eps2 must be a number, got NaN"),
        (lambda r: r.update(sigma_eps2=float("inf")),
         "sigma_eps2 must be a number, got Infinity"),
        (lambda r: r.update(sigma_eps2=0.0), "sigma_eps2 must be finite and positive, got 0.0"),
        (lambda r: r.update(sigma_gamma=[[-1.0]]), "sigma_gamma is not positive semidefinite"),
        (lambda r: r.update(sigma_gamma=[[float("nan")]]), "sigma_gamma holds a non-finite value"),
        (lambda r: r["zeta"]["values"].__setitem__(0, float("nan")),
         "zeta holds a non-finite value"),
        (lambda r: r["latent_posterior"]["mu"][3].__setitem__(0, float("inf")),
         "latent_posterior mu holds a non-finite value"),
        (lambda r: r["scores"]["values"][0][0].__setitem__(1, float("-inf")),
         "scores holds a non-finite value"),
        # an entry of another JSON type, which numpy or Python would take
        (lambda r: r["latent_posterior"]["mu"][3].__setitem__(0, True),
         "latent_posterior mu must be an array of numbers"),
        (lambda r: r["layout"].update(n_functional=True),
         "layout n_functional must be an integer, got true"),
        (lambda r: r["layout"].update(n_functional=-1),
         "layout sizes must be nonnegative, got [1, -1, 2]"),
        (lambda r: r["latent_posterior"]["unit_ids"].__setitem__(0, 7),
         "latent_posterior unit_ids is not an array of strings"),
        (lambda r: r.update(r_support=[10.0]), "r_support must be a number, got [10.0]"),
        # the FPCA basis and the fit trace
        (lambda r: r["fpca"][0]["r_grid"].__setitem__(5, float("nan")),
         "fpca r_grid holds a non-finite value"),
        (lambda r: r["fpca"][0]["r_grid"].__setitem__(5, True),
         "fpca r_grid must be an array of numbers"),
        (lambda r: r["fpca"][0]["r_grid"].reverse(),
         "fpca r_grid must rise strictly through at least two points"),
        (lambda r: r["fpca"][0].update(fve_trace=r["fpca"][0]["fve_trace"][:1]),
         "fpca fve_trace has shape (1,), expected (101,)"),
        (lambda r: r["fpca"][0]["eigenvalues"].__setitem__(0, "x"),
         "fpca eigenvalues must be an array of numbers"),
        (lambda r: r["loglik_trace"].__setitem__(0, "x"), "loglik_trace must be an array of numbers"),
        (lambda r: r.update(iterations="many"), 'iterations must be an integer, got "many"'),
        (lambda r: r.update(converged="yes"), 'converged must be true or false, got "yes"'),
        # an entry under a missing entry, or under one of another JSON type
        (lambda r: r["scores"].pop("values"), "fit report has no 'scores.values' entry"),
        (lambda r: r["zeta"].pop("values"), "fit report has no 'zeta.values' entry"),
        (lambda r: r.update(scores=[1]), "scores must be a JSON object, got list"),
        (lambda r: r.update(fpca={"a": 1}), "fpca must be a JSON array, got dict"),
    ])
    def test_malformed_report_exits_one_naming_it(self, tmp_path, capsys, fitted, edit, message):
        data, report = fitted
        report = json.loads(json.dumps(report))
        edit(report)
        path = tmp_path / "fit_report.json"
        path.write_text(json.dumps(report))
        assert run(["predict", "--fit", str(path), "--data", str(data),
                    "--out", str(tmp_path / "pred")]) == 1
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "pred").exists()


    @pytest.mark.parametrize("matrix,message", [
        ([[1.0, 0.5], [0.0, 1.0]], "sigma_gamma is not symmetric"),
        ([[1.0, 2.0], [2.0, 1.0]], "sigma_gamma is not positive semidefinite"),
        ([[1.0, 1.0], [1.0, 1.0]], None),   # singular: semidefinite within the tolerance
        ([[0.0, 0.0], [0.0, 0.0]], None),   # the latent variance at its zero boundary
        ([[1.0, 1e-12], [0.0, 1.0]], None),  # symmetric within the tolerance
    ])
    def test_covariance_check(self, matrix, message):
        matrix = np.array(matrix)
        if message is None:
            assert cli._covariance("sigma_gamma", matrix) is matrix
        else:
            with pytest.raises(ValueError, match=f"^{message}$"):
                cli._covariance("sigma_gamma", matrix)


# one value of each JSON type; an edit swaps an entry for one of another type
JSON_VALUES = {"object": {"a": 1}, "array": [1.0], "string": "x", "number": 2.5,
               "boolean": True, "null": None}


def json_type(value) -> str:
    for name, types in (("boolean", bool), ("number", (int, float)), ("string", str),
                        ("array", list), ("object", dict), ("null", type(None))):
        if isinstance(value, types):
            return name


@st.composite
def json_edits(draw, payload):
    """(kind, path, type) of one edit of ``payload``: drop the entry at
    path from its object ("drop"), cut the array there short by its last
    item ("cut"), or replace the entry by a value of JSON type ``type``
    ("retype").  Drops of array items and cuts of non-arrays are retypes.
    The path descends one random key at a time and stops at each level with
    even odds, so a top-level number is drawn as often as a whole array."""
    path, value = (), payload
    while not path or (isinstance(value, (dict, list)) and value and draw(st.booleans())):
        parent = value
        path += (draw(st.sampled_from(list(value) if isinstance(value, dict)
                                      else range(len(value)))),)
        value = value[path[-1]]
    kind = draw(st.sampled_from(["drop", "cut", "retype"]))
    if kind == "drop" and isinstance(parent, dict):
        return kind, path, None
    if kind == "cut" and isinstance(value, list) and value:
        return kind, path, None
    return "retype", path, draw(st.sampled_from(
        [t for t in JSON_VALUES if t != json_type(value)]))


def edited(payload, edit):
    """A copy of ``payload`` with one ``json_edits`` edit applied."""
    kind, (*head, last), new_type = edit
    payload = json.loads(json.dumps(payload))
    parent = payload
    for key in head:
        parent = parent[key]
    if kind == "drop":
        del parent[last]
    elif kind == "cut":
        parent[last].pop()
    else:
        parent[last] = JSON_VALUES[new_type]
    return payload


def run_quietly(argv) -> tuple:
    """run(argv)'s exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


class Fitted:
    """A fitted dataset: its directory, report and predictions."""

    def __init__(self, root, data, report, predictions):
        self.root, self.data, self.report, self.predictions = root, data, report, predictions

    def __repr__(self):  # falsifying examples print it
        return f"Fitted({self.root})"


class TestEditedInputsNameTheFile:
    # every edited input either exits 1 with its path in the message or,
    # when the edit touches nothing the command reads, gives the unedited
    # result; no edit escapes as an exception or another exit code
    @pytest.fixture(scope="class")
    def fitted(self, tmp_path_factory):
        # the fit sees 8 of the 12 units, so predict also projects the
        # curves of 4 units on the report's FPCA basis
        tmp = tmp_path_factory.mktemp("edits")
        data, train = simulate_into(tmp, seed=6), tmp / "train"
        train.mkdir()
        ds = load_dataset(*(data / name for name in cli._DATA_FILES))
        save_dataset(ds.select(np.arange(ds.n_units) % 3 != 1),
                     *(train / name for name in cli._DATA_FILES))
        assert run(["fit", "--data", str(train), "--variant", "Model7", "--k", "2",
                    "--out", str(tmp / "fit")]) == 0
        assert run(["predict", "--fit", str(tmp / "fit" / "fit_report.json"),
                    "--data", str(data), "--out", str(tmp / "pred")]) == 0
        return Fitted(tmp, data, json.loads((tmp / "fit" / "fit_report.json").read_text()),
                      (tmp / "pred" / "predictions.csv").read_bytes())

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_edited_fit_report(self, fitted, draws):
        edit = draws.draw(json_edits(fitted.report))
        with tempfile.TemporaryDirectory(dir=fitted.root) as work:
            path, out = Path(work) / "fit_report.json", Path(work) / "pred"
            path.write_text(json.dumps(edited(fitted.report, edit)))
            code, err = run_quietly(["predict", "--fit", str(path), "--data", str(fitted.data),
                                     "--out", str(out)])
            if code == 0:
                assert (out / "predictions.csv").read_bytes() == fitted.predictions
            else:
                assert code == 1 and f"error: {path}: " in err, err

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_edited_config(self, fitted, draws):
        edit = draws.draw(json_edits(fitted.report["config"]))
        with tempfile.TemporaryDirectory(dir=fitted.root) as work:
            path = Path(work) / "config.json"
            path.write_text(json.dumps(edited(fitted.report["config"], edit)))
            code, err = run_quietly(["fit", "--data", str(fitted.data), "--config", str(path),
                                     "--max-iter", "3", "--out", str(Path(work) / "fit")])
            # a dropped key takes its default; every key is read, so a
            # retyped one is rejected unless it is k set to null (K then
            # comes from the FVE threshold)
            if code != 0 or (edit[0] == "retype" and edit[1:] != (("k",), "null")):
                assert code == 1 and f"error: {path}: " in err, err

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_edited_spec(self, draws):
        spec = default_spec(n_units=8, n_obs=6)
        full = {"n_units": 8, "n_obs": 6, "seed": 2, "sigma_eps2": spec.sigma_eps2,
                **{key: np.asarray(getattr(spec, key)).tolist() for key in cli._SPEC_TYPES
                   if isinstance(cli._SPEC_TYPES[key], tuple)}}
        edit = draws.draw(json_edits(full))
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "spec.json"
            path.write_text(json.dumps(edited(full, edit)))
            code, err = run_quietly(["simulate", "--spec", str(path), "--out",
                                     str(Path(work) / "data")])
            # a dropped key takes its default, and a shorter array may
            # still make a valid spec; every key is read
            if code != 0 or edit[0] == "retype":
                assert code == 1 and f"error: {path}: " in err, err


COLD_START = """
import json, sys
from pathlib import Path

import numpy as np

from degramix.cli import run


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


assert not scipy_modules(), f"import degramix.cli loaded {scipy_modules()[:3]}"
root = Path(sys.argv[1])
spec = root / "spec.json"
spec.write_text(json.dumps({"n_units": 20, "n_obs": 10, "times": list(np.linspace(0, 3, 10))}))
data, fit = str(root / "data"), str(root / "fit")
for argv in (
    ["simulate", "--spec", str(spec), "--seed", "4", "--out", data],
    ["fpca", "--data", data, "--out", str(root / "fpca")],
    ["fit", "--data", data, "--variant", "Model7", "--k", "2", "--out", fit],
    ["predict", "--fit", fit + "/fit_report.json", "--data", data, "--out", str(root / "pred")],
    ["evaluate", "--data", data, "--variant", "Model7", "--k", "2", "--folds", "3",
     "--out", str(root / "eval")],
    ["compare", "--data", data, "--k", "2", "--out", str(root / "cmp")],
):
    assert run(argv) == 0, argv
    assert not scipy_modules(), f"{argv[0]} loaded {scipy_modules()[:3]}"
pgm = root / "img.pgm"
checkers = (np.add.outer(np.arange(64) // 8, np.arange(64) // 8) % 2 * 255).astype(np.uint8)
pgm.write_bytes(b"P5\\n64 64\\n255\\n" + checkers.tobytes())
particles = root / "particles.csv"
points = np.random.default_rng(0).random((300, 2)) * 10.0
particles.write_text("# window 10.0 10.0\\nx,y\\n"
                     + "".join(f"{x!r},{y!r}\\n" for x, y in points.tolist()))
for argv in (
    ["descriptor", "tpc", "--image", str(pgm), "--r-max", "3", "--out", str(root / "tpc")],
    ["descriptor", "tpc", "--image", str(pgm), "--r-max", "3", "--periodic",
     "--out", str(root / "tpc_periodic")],
    ["descriptor", "rdf", "--image", str(pgm), "--r-max", "12", "--dr", "1",
     "--out", str(root / "rdf_image")],
    ["descriptor", "rdf", "--particles", str(particles), "--r-max", "2", "--dr", "0.25",
     "--out", str(root / "rdf_particles")],
):
    assert run(argv) == 0, argv
    assert not scipy_modules(), f"{argv[:2]} loaded {scipy_modules()[:3]}"
"""


class TestColdStart:
    def test_model_commands_load_no_scipy(self, tmp_path):
        # one fresh interpreter: no command, model or descriptor, leaves a
        # scipy module in sys.modules
        path = [str(Path(__file__).resolve().parents[1] / "src"),
                *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        done = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        # both RDFs have interior references, so their pair search ran
        assert "degenerate" not in done.stderr
        for out in ("tpc", "tpc_periodic", "rdf_image", "rdf_particles"):
            assert (tmp_path / out / "curves.csv").exists()

    def test_no_module_imports_scipy(self):
        # covers imports on branches the subprocess above never reaches
        package = Path(__file__).resolve().parents[1] / "src" / "degramix"
        modules, found = sorted(package.rglob("*.py")), []
        assert modules
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}" for name in names
                          if name == "scipy" or name.startswith("scipy.")]
        assert not found, found


class TestNoPerUnitRecords:
    def test_commands_never_build_unit_records(self, tmp_path, monkeypatch):
        # every command works on the dataset's stacked arrays: building a
        # UnitRecord or reading ds.units anywhere on these paths fails the run
        def forbidden(*args, **kwargs):
            raise AssertionError("per-unit record built on a CLI path")

        monkeypatch.setattr(data.UnitRecord, "__init__", forbidden)
        monkeypatch.setattr(data.DegradationDataset, "units", property(forbidden), raising=False)
        d = str(simulate_into(tmp_path, n_units=15, n_obs=8))
        out = str(tmp_path)
        commands = [
            ["fit", "--data", d, "--variant", "Model7", "--k", "2", "--out", out + "/fit"],
            ["predict", "--fit", out + "/fit/fit_report.json", "--data", d, "--out", out + "/p"],
            ["evaluate", "--data", d, "--variant", "Model7", "--k", "2", "--folds", "3",
             "--out", out + "/ev"],
            ["compare", "--data", d, "--k", "2", "--out", out + "/cmp",
             *(a for v in ("Model1", "Model2", "Model3", "Model4", "Model5", "Model7")
               for a in ("--variant", v))],
            ["compare", "--data", d, "--k", "2", "--variant", "Model6", "--micro-column", "1",
             "--out", out + "/cmp6"],
            ["fpca", "--data", d, "--out", out + "/fpca"],
        ]
        for argv in commands:
            assert run(argv) == 0, argv[0]
