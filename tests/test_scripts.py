"""The experiment scripts run end to end at toy size."""

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
