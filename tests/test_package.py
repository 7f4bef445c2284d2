"""The package's public names load on first use; the command-line entry pins
BLAS to one thread before numpy loads, unless the user chose a count."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import degramix
from degramix.__main__ import BLAS_THREADS, pin_blas

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = {
    "BasisFamily", "ConvergenceWarning", "DegradationDataset", "DescriptorCurve",
    "DesignMatrices", "FitResult", "FpcaModel", "LatentPosterior", "Metrics",
    "MicrostructureImage", "ModelConfig", "ModelVariant", "NumericalError", "Parameters",
    "ParticleSet", "SyntheticSpec", "UnitRecord", "ZetaLayout", "binarize_image",
    "build_design_matrices", "center_baseline", "compare_models", "compute_rdf", "compute_tpc",
    "default_spec", "effect_decomposition", "extract_particles", "fit_em", "fit_fpca",
    "fit_scores", "generate_dataset", "information_criteria", "kfold_cv", "load_dataset",
    "predict_unit", "project_scores", "reconstruct", "residual_metrics", "save_dataset",
    "select_k_by_fve", "table1_variants", "temporal_split",
}


def child_env(**changes):
    """This process's environment with ``src`` on the path, each of
    ``changes`` set, and the BLAS variables not in ``changes`` removed."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    return {**env, "PYTHONPATH": os.pathsep.join(path), **changes}


class TestLazyNames:
    def test_import_loads_neither_numpy_nor_a_submodule(self):
        script = ("import sys, degramix; print(sorted(m for m in sys.modules "
                  "if m.split('.')[0] == 'numpy' or m.startswith('degramix.')))")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=child_env(), timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_all_names_the_public_names(self):
        assert len(PUBLIC) == 42
        assert degramix.__all__ == sorted(PUBLIC)
        assert set(degramix.__all__) <= set(dir(degramix))

    @pytest.mark.parametrize("name", sorted(PUBLIC))
    def test_each_name_is_its_modules_object(self, name):
        value = getattr(degramix, name)
        assert value.__module__.startswith("degramix.")
        assert value is getattr(importlib.import_module(value.__module__), name)
        namespace = {}
        exec(f"from degramix import {name}", namespace)
        assert namespace[name] is value

    def test_star_import_and_submodule_import(self):
        namespace = {}
        exec("from degramix import *", namespace)
        assert set(namespace) - {"__builtins__"} == PUBLIC
        exec("from degramix import cli", namespace)
        assert namespace["cli"] is importlib.import_module("degramix.cli")

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="has no attribute 'fit_everything'"):
            degramix.fit_everything
        with pytest.raises(ImportError, match="fit_everything"):
            exec("from degramix import fit_everything", {})


class TestBlasPin:
    def test_pins_all_three_when_none_is_set(self):
        environ = {"PATH": "/bin"}
        pin_blas(environ)
        assert environ == {"PATH": "/bin", **dict.fromkeys(BLAS_THREADS, "1")}

    @pytest.mark.parametrize("name", BLAS_THREADS)
    def test_a_user_setting_leaves_every_variable_as_it_was(self, name):
        environ = {name: "3"}
        pin_blas(environ)
        assert environ == {name: "3"}

    def test_cli_outputs_are_the_same_bytes_unset_and_pinned(self, tmp_path):
        # simulate -> fit -> predict on the 60-unit default dataset, in fresh
        # processes; unpinned, a host with 2+ CPUs would run BLAS threaded
        for name, env in (("unset", child_env()),
                          ("pinned", child_env(**dict.fromkeys(BLAS_THREADS, "1")))):
            out = tmp_path / name
            for argv in (["simulate", "--seed", "0", "--out", str(out / "data")],
                         ["fit", "--data", str(out / "data"), "--variant", "Model7", "--k", "2",
                          "--out", str(out / "fit")],
                         ["predict", "--fit", str(out / "fit" / "fit_report.json"),
                          "--data", str(out / "data"), "--out", str(out / "predict")]):
                done = subprocess.run([sys.executable, "-m", "degramix", *argv],
                                      capture_output=True, text=True, env=env, timeout=120)
                assert done.returncode == 0, done.stderr
        files = sorted(p.relative_to(tmp_path / "pinned")
                       for p in (tmp_path / "pinned").rglob("*") if p.is_file())
        assert {"fit/fit_report.json", "predict/predictions.csv"} <= {str(f) for f in files}
        for rel in files:
            assert (tmp_path / "unset" / rel).read_bytes() == \
                (tmp_path / "pinned" / rel).read_bytes(), rel
