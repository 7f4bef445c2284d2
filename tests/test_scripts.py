"""The experiment scripts run end to end at toy size; same_outputs compares trees."""

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
