"""The benchmark's traced run expects a span from every function that
``benchmark/layers.json`` names; each must stay a public function of its
``degramix.<layer>`` module, or the traced run fails."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

LAYERS_JSON = Path(__file__).resolve().parents[1] / "benchmark" / "layers.json"
# spans the tracer renames after the call: compute_tpc by image size
ALIASES = {"descriptors.tpc_tile": "descriptors.compute_tpc",
           "descriptors.tpc_large": "descriptors.compute_tpc"}


def expected_spans():
    workloads = json.loads(LAYERS_JSON.read_text(encoding="utf-8"))["workloads"]
    return sorted({span for w in workloads.values() for span in w["expected_spans"]})


@pytest.mark.parametrize("span", expected_spans())
def test_span_names_public_function(span):
    layer, name = ALIASES.get(span, span).split(".")
    module = importlib.import_module(f"degramix.{layer}")
    fn = getattr(module, name, None)
    assert not name.startswith("_")
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__, span
