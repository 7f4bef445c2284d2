import json

import numpy as np

from degramix import cli, design, estimator, evaluation
from degramix.cli import run


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

    def test_linear_algebra_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        data = simulate_into(tmp_path)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(estimator.np.linalg, "inv", singular)
        assert run(["fit", "--data", str(data), "--variant", "Model7", "--k", "2",
                    "--out", str(tmp_path / "fit")]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_short_response_row_exits_one(self, tmp_path, capsys):
        data = simulate_into(tmp_path)
        with open(data / "responses.csv", "a") as fh:
            fh.write("u1,2.0\n")
        assert run(["fit", "--data", str(data), "--out", str(tmp_path / "fit")]) == 1
        assert f"{data / 'responses.csv'}: line 122:" in capsys.readouterr().err


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

    def test_unknown_variant_exits_one(self, tmp_path, capsys):
        data = simulate_into(tmp_path, seed=22)
        assert run(["fit", "--data", str(data), "--variant", "Model99",
                    "--out", str(tmp_path / "x")]) == 1
        assert "Model1..Model7" in capsys.readouterr().err
