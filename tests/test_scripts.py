"""The experiment scripts run end to end at toy size; same_outputs compares trees."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("name, extra, marker", [
    ("run_model_comparison.py", [], "best by AIC: "),
    ("run_parameter_recovery.py", ["--replicates", "2"], "median "),
])
def test_script_runs(name, extra, marker):
    lines = run_script(name, "--n-units", "20", "--n-obs", "10", *extra)
    assert any(line.startswith(marker) for line in lines), lines


def test_same_outputs_lists_files_that_differ_or_exist_on_one_side(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from same_outputs import differing

    a, b = tmp_path / "a", tmp_path / "b"
    for tree in (a, b):
        (tree / "w" / "fit").mkdir(parents=True)
        (tree / "w" / "fit" / "report.json").write_bytes(b'{"loglik": 1.5}\n')
        (tree / "exit_codes.txt").write_bytes(b"fit 0\n")
    assert differing(a, b) == []
    (b / "w" / "fit" / "report.json").write_bytes(b'{"loglik": 1.6}\n')
    (a / "w" / "only_parent.csv").write_bytes(b"")
    (b / "only_change.txt").write_bytes(b"x")
    assert differing(a, b) == ["only_change.txt", "w/fit/report.json", "w/only_parent.csv"]
    assert differing(b, a) == differing(a, b)


def test_same_outputs_says_how_far_a_file_moved(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from same_outputs import drift

    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "r.json").write_text('{"zeta": [1.0, -2.0], "iterations": 5, "ids": ["u1"]}')
    (b / "r.json").write_text('{"zeta": [1.0, -2.000002], "iterations": 6, "ids": ["u1"]}')
    assert drift(a / "r.json", b / "r.json") == (
        "largest relative difference 1e-06 over 2 numbers; other entries differ: iterations")
    # rounding noise next to zero, relative to the largest entry of its
    # array; a nested array is one
    (a / "e.json").write_text('{"eigenvalues": [1.25, 9.1e-19], "sigma_eps2": 0.5}')
    (b / "e.json").write_text('{"eigenvalues": [1.25, 0.0], "sigma_eps2": 0.5}')
    assert drift(a / "e.json", b / "e.json") == "largest relative difference 7.3e-19 over 3 numbers"
    (a / "f.json").write_text('{"phi": [[4.0, 1.0], [3e-17, 0.5]]}')
    (b / "f.json").write_text('{"phi": [[4.0, 1.0], [0.0, 0.5]]}')
    assert drift(a / "f.json", b / "f.json") == "largest relative difference 7.5e-18 over 4 numbers"
    (a / "t.csv").write_text("unit_id,level,y\nu1,1,0.5\nu2,1,4.0\n")
    (b / "t.csv").write_text("unit_id,level,y\nu1,1,0.5000005\nu3,2,4.0\n")
    # each difference is relative to the largest magnitude in its column
    assert drift(a / "t.csv", b / "t.csv") == (
        "largest relative difference 1.2e-07 over 2 numbers; "
        "other entries differ: line 3 column 1, line 3 column 2")
    (b / "t.csv").write_text("unit_id,lvl,y\nu1,1,0.5\n")
    assert drift(a / "t.csv", b / "t.csv") == (
        "largest relative difference 0 over 1 numbers; "
        "other entries differ: line 1 column 2, line 3 column 1, line 3 column 2 and 1 more")
    (a / "x.txt").write_text("a"), (b / "x.txt").write_text("b")
    assert drift(a / "x.txt", b / "x.txt") == ""


def test_same_outputs_runs_the_ragged_paths(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from degramix.cli import run
    from degramix.data import load_dataset
    from same_outputs import run_all_variants, run_predict, run_ragged

    base = tmp_path / "ragged"
    run_ragged(base, 3, run)
    assert (base / "exit_codes.txt").read_text().split() == [
        "simulate", "0", "fit_dump", "0", "fit_order2", "0", "compare", "0"]
    truth = json.loads((base / "simulate_order2" / "truth.json").read_text())
    # two coefficient levels (linear and quadratic), each with a latent part
    assert [len(truth["eta"]), len(truth["eta"][0]), len(truth["gamma"][0])] == [60, 2, 2]
    # unit u01 keeps one response, so every variant gets an error row
    assert (base / "compare" / "comparison.csv").read_text().splitlines()[1:] == [
        f"{model},,,,,," for model in ("Model1", "Model6", "Model7")]
    run_all_variants(tmp_path / "all", base / "full", run)
    assert (tmp_path / "all" / "exit_codes.txt").read_text() == "compare 0\nevaluate_order2 0\n"
    rows = (tmp_path / "all" / "compare" / "comparison.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [f"Model{i}" for i in range(1, 8)]
    assert all(",," not in row for row in rows)
    effects = (tmp_path / "all" / "evaluate_order2" / "effects.csv").read_text().splitlines()
    assert [row.split(",")[1] for row in effects[1:]] == ["1", "2"] * 60
    metrics = json.loads((tmp_path / "all" / "evaluate_order2" / "metrics.json").read_text())
    assert "cv_error" in metrics
    ds = load_dataset(*(base / "data" / name for name in ("responses.csv", "scalars.csv",
                                                           "curves.csv")))
    assert ds.counts.tolist() == [1 + i % 12 for i in range(60)]
    for name in ("design_omega.csv", "design_lambda.csv"):
        assert len((base / "fit_dump" / name).read_text().splitlines()) == 1 + ds.n_obs
    report = json.loads((base / "fit_order2" / "fit_report.json").read_text())
    assert report["layout"]["levels"] == [1, 2] and report["config"]["basis_order"] == 2
    # fits on 40 of the 60 units, predicts from each fit every unit
    run_predict(tmp_path / "predict", base / "full", run)
    fits = ["Model7", "Model1", "Model2", "Model3", "Model4", "Model5", "Model6",
            "order2_diagonal_ridge"]
    assert (tmp_path / "predict" / "exit_codes.txt").read_text() == "".join(
        f"fit_{name} 0\npredict_{name} 0\n" for name in fits)
    train = load_dataset(*(tmp_path / "predict" / "train" / name
                           for name in ("responses.csv", "scalars.csv", "curves.csv")))
    full = load_dataset(*(base / "full" / name
                          for name in ("responses.csv", "scalars.csv", "curves.csv")))
    assert train.n_units == 40
    assert set(train.unit_ids) == {u for i, u in enumerate(sorted(full.unit_ids)) if i % 3 != 1}
    for name in fits:
        rows = (tmp_path / "predict" / f"predict_{name}" / "predictions.csv").read_text()
        assert len(rows.splitlines()) == 1 + full.n_obs
    # every report layout: with and without scores and FPCA records, latent
    # and not, one and two coefficient levels
    reports = {name: json.loads((tmp_path / "predict" / f"fit_{name}" / "fit_report.json")
                                .read_text()) for name in fits}
    assert {name for name, r in reports.items() if "fpca" in r} == {
        "Model2", "Model3", "Model4", "Model5", "Model7", "order2_diagonal_ridge"}
    assert {name for name, r in reports.items() if r["sigma_gamma"]} == {
        "Model7", "order2_diagonal_ridge"}
    order2 = reports["order2_diagonal_ridge"]
    assert order2["layout"]["levels"] == [1, 2] and order2["sigma_gamma"][0][1] == 0.0
    assert order2["config"]["ridge_jitter"] is True


def test_same_outputs_runs_the_cli_unpinned(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from degramix.cli import run
    from degramix.data import load_dataset
    from same_outputs import _THREADS, run_unpinned

    assert run(["simulate", "--seed", "3", "--out", str(tmp_path / "data")]) == 0
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(path))
    for name in _THREADS:
        monkeypatch.setenv(name, "3")
    envs, spawn = [], subprocess.run

    def spy(args, **kwargs):
        envs.append(kwargs["env"])
        return spawn(args, **kwargs)

    monkeypatch.setattr(subprocess, "run", spy)
    base = tmp_path / "unpinned"
    run_unpinned(base, tmp_path / "data")
    assert (base / "exit_codes.txt").read_text() == "fit_Model7 0\npredict_Model7 0\n"
    # each child gets the environment less the BLAS variables: the CLI pins
    assert [env["PYTHONPATH"] for env in envs] == [os.environ["PYTHONPATH"]] * 2
    assert not any(name in env for env in envs for name in _THREADS)
    report = json.loads((base / "fit_Model7" / "fit_report.json").read_text())
    assert report["config"]["k"] == 2 and report["sigma_gamma"]
    ds = load_dataset(*(tmp_path / "data" / name
                        for name in ("responses.csv", "scalars.csv", "curves.csv")))
    rows = (base / "predict_Model7" / "predictions.csv").read_text().splitlines()
    assert len(rows) == 1 + ds.n_obs


def test_same_outputs_runs_the_escaped_ids(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from degramix.cli import run
    from same_outputs import ESCAPED_IDS, run_escaped_ids

    base = tmp_path / "escaped_ids"
    run_escaped_ids(base, 3, run)
    assert (base / "exit_codes.txt").read_text() == (
        "fit_Model7 0\npredict_Model7 0\nfit_Model1 0\npredict_Model1 0\n")
    text = (base / "fit_Model7" / "fit_report.json").read_text(encoding="ascii")
    assert '"\\u00fc1"' in text and '"q\\"2"' in text and '"\\ud83d\\ude0011"' in text
    report = json.loads(text)
    assert sorted(report["latent_posterior"]["unit_ids"]) == sorted(ESCAPED_IDS)
    rows = (base / "predict_Model1" / "predictions.csv").read_text(encoding="utf-8")
    assert '\n"q""2",' in rows and '\n"a,b3",' in rows and "\n日5," in rows


def test_same_outputs_runs_the_load_errors(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from degramix.cli import run
    from same_outputs import LOAD_FAULTS, run_load_errors

    base = tmp_path / "load_errors"
    run_load_errors(base, 3, run)
    assert (base / "exit_codes.txt").read_text() == "".join(f"{f} 1\n" for f in LOAD_FAULTS)
    # each copy's first broken rule, by the loader's order of units and rules
    assert {f: (base / f"{f}.stderr.txt").read_text() for f in LOAD_FAULTS} == {
        "ragged_nan": f"error: {base / 'ragged_nan' / 'curves.csv'}: unit u4: "
                      "ragged functional grid for covariate s=1\n",
        "earlier_times": f"error: {base / 'earlier_times' / 'responses.csv'}: "
                         "non-increasing times for unit u2\n",
        "missing_curve": f"error: {base / 'missing_curve' / 'curves.csv'}: unit u4: "
                         "ragged functional grid (missing covariate s=2)\n",
        "malformed_last_row": f"error: {base / 'malformed_last_row' / 'responses.csv'}: "
                              "line 181: non-numeric field in 'u6,3.0,abc'\n"}
    assert not any(base.glob("fit_*"))


def test_same_outputs_runs_the_predict_errors(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from degramix.cli import run
    from same_outputs import PREDICT_FAULTS, run_predict_errors

    base = tmp_path / "predict_errors"
    run_predict_errors(base, 3, run)
    assert (base / "exit_codes.txt").read_text() == "fit 0\n" + "".join(
        f"{f} 1\n" for f in PREDICT_FAULTS)
    report = base / "fit" / "fit_report.json"
    # each copy holds the six units the fit saw and one it did not
    for fault in PREDICT_FAULTS:
        ids = {line.split(",")[0] for line in
               (base / fault / "responses.csv").read_text().splitlines()[1:]}
        assert len(ids) == 7 and ids - set(json.loads(report.read_text())["scores"]["unit_ids"])
    errors = {f: (base / f"{f}.stderr.txt").read_text().splitlines()[-1] for f in PREDICT_FAULTS}
    assert errors == {
        "second_scalar": f"error: {base / 'second_scalar' / 'scalars.csv'}: scalars shape (7, 2) "
                         f"does not match layout (P=1) (fit report {report})",
        "second_covariate": f"error: {base / 'second_covariate' / 'curves.csv'}: the dataset "
                            f"holds S = 2 functional covariates against the fit's S = 1 "
                            f"(fit report {report})",
        "shifted_grid": f"error: {base / 'shifted_grid' / 'curves.csv'}: the dataset's curve "
                        f"grid differs from the fit's FPCA grid: r[0] = 0.25 against the fit's "
                        f"0.0 (fit report {report})"}
    assert not any(base.glob("predict_*"))


def test_same_outputs_runs_the_descriptor_paths(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from degramix.cli import run
    from degramix.descriptors import load_particles_csv, load_pgm
    from same_outputs import (_EDGE_PARTICLES, _MALFORMED_PARTICLES, _PARTICLE_FORMS,
                              run_descriptors)

    base = tmp_path / "descriptors"
    run_descriptors(base, 3, run)
    codes = dict(line.split() for line in (base / "exit_codes.txt").read_text().splitlines())
    assert codes == {"tpc": "0", "tpc_periodic": "0", "rdf_particles": "0",
                     **{f"rdf_{name}": "1" for name in _MALFORMED_PARTICLES},
                     **{f"rdf_{name}": "0" for name in _EDGE_PARTICLES},
                     "rdf_three_fields_after_whitespace": "1"}
    for name in _MALFORMED_PARTICLES:
        err = (base / f"rdf_{name}.stderr.txt").read_text()
        assert f"\nerror: {base / f'bad_{name}.csv'}: " in err, err
    err = (base / "rdf_three_fields_after_whitespace.stderr.txt").read_text()
    assert err.endswith(f"\nerror: {base / 'edge_three_fields_after_whitespace.csv'}: "
                        "line 5: expected 2 fields 'x,y', got 3\n"), err
    err = (base / "rdf_particles.stderr.txt").read_text()
    assert "header_only: degenerate particle set" in err
    # one tpc call takes turns between two shapes, then a P2 image
    images = ("a0", "b0", "a1", "p2")
    assert [load_pgm(base / f"{n}.pgm").pixels.shape for n in images] == [
        (48, 40), (36, 52), (48, 40), (44, 44)]
    assert (base / "p2.pgm").read_bytes().startswith(b"P2")
    for out in ("tpc", "tpc_periodic"):
        rows = (base / out / "curves.csv").read_text().splitlines()[1:]
        assert list(dict.fromkeys(row.split(",")[0] for row in rows)) == list(images)
    # every accepted form holds the same 300 points
    coords = [load_particles_csv(base / f"{name}.csv").coordinates for name in _PARTICLE_FORMS]
    assert coords[0].shape == (300, 2)
    assert all(c.tobytes() == coords[0].tobytes() for c in coords)


def _runs(workload, parent, change, failed=0):
    """Hand-made bench_pairs runs: one pair per seed, the pass time as given,
    one CPU busy on the parent's side and two on the change's, a tenth of
    that time in the kernel."""
    return [{"workload": workload, "seed": seed, "side": side, "cpu_s": busy * 15.0,
             "sys_s": busy * 1.5, "wall_s": 15.0,
             "result": {"failed": failed, "metrics": {"pass_s_p50": {"value": value}}}}
            for seed, pair in enumerate(zip(parent, change))
            for side, value, busy in zip(("parent", "change"), pair, (1.0, 2.0))]


def test_bench_pairs_states_a_verdict_per_metric_and_workload(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from bench_pairs import summarize

    steady = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    runs = [
        *_runs("faster", steady, [v * 0.8 for v in steady]),
        # nine wins of ten, but the gap is within the parent's quartiles
        *_runs("noisy_win", [1.0, 1.2] * 5, [0.95, 1.15] * 4 + [0.99, 1.25]),
        *_runs("slower", steady, [v * 1.3 for v in steady]),
        *_runs("wide", [0.6, 1.4] * 5, [1.0] * 10),
        # every change run beats every parent run, by less than the quartiles' distance
        *_runs("wide_but_every_run_better", [0.6, 1.4] * 5, [0.5] * 10),
        *_runs("same", steady, steady[1:] + steady[:1]),
        *_runs("slower_within_bound", steady, [v * 1.2 for v in steady]),
    ]
    metric = {"name": "pass_s_p50", "unit": "s", "better": "lower", "bound": 0.25}
    summary = summarize(runs, [metric])
    assert {w: s["pass_s_p50"]["verdict"] for w, s in summary.items()} == {
        "faster": "gain", "noisy_win": "no regression", "slower": "regression",
        "wide": "unresolved", "wide_but_every_run_better": "no regression", "same": "no regression",
        "slower_within_bound": "no regression"}
    # higher-is-better metrics read the other way round
    higher = summarize(_runs("w", steady, [v * 0.7 for v in steady]),
                       [{**metric, "better": "higher"}])
    assert higher["w"]["pass_s_p50"]["verdict"] == "regression"
    assert higher["w"]["pass_s_p50"]["change_wins"] == 0


def test_bench_pairs_gives_each_sides_cpu_and_sys_per_wall(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from bench_pairs import summarize

    runs = _runs("w", [1.0] * 2, [0.6] * 2)
    runs[0].update(cpu_s=9.0, sys_s=3.0, wall_s=10.0)  # the parent of seed 0
    runs[3].update(cpu_s=30.0, sys_s=9.0, wall_s=10.0, result=None)  # a crashed change run
    metric = {"name": "pass_s_p50", "unit": "s", "better": "lower", "bound": 0.25}
    summary = summarize(runs, [metric])["w"]
    assert summary["cpu_per_wall"] == {"parent": pytest.approx(0.95), "change": 2.0}
    assert summary["sys_per_wall"] == {"parent": pytest.approx(0.2), "change": 0.2}
    crashed = [{**r, "result": None} if r["side"] == "change" else r for r in runs]
    summary = summarize(crashed, [metric])["w"]
    assert summary["cpu_per_wall"] == {"parent": pytest.approx(0.95), "change": None}
    assert summary["sys_per_wall"] == {"parent": pytest.approx(0.2), "change": None}


def test_bench_pairs_times_each_run(tmp_path, monkeypatch):
    # a stand-in benchmark that keeps a CPU busy for about 0.3 s, at least
    # 0.1 s of it in the kernel copying zeros out of /dev/zero
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from bench_pairs import run_once

    (tmp_path / "benchmark").mkdir()
    (tmp_path / "benchmark" / "run.py").write_text(
        "import os, time\n"
        "with open('/dev/zero', 'rb', buffering=0) as zero:\n"
        "    while os.times().system < 0.1:\n"
        "        zero.read(2 ** 20)\n"
        "end = time.process_time() + 0.2\n"
        "while time.process_time() < end:\n"
        "    pass\n"
        "print('{\"details\": 1}')\n"
        "print('{\"failed\": 0}')\n")
    run = run_once(tmp_path, "w", 0, 1.0)
    assert run["returncode"] == 0 and run["result"] == {"failed": 0}
    assert 0.3 <= run["cpu_s"] <= run["wall_s"] * 1.05
    assert 0.1 <= run["sys_s"] < run["cpu_s"]
