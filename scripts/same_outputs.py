#!/usr/bin/env python3
"""Byte-compare every CLI output of the benchmark workloads: a parent revision
against the working tree.

    python3 scripts/same_outputs.py --parent HEAD~

Exports ``--parent`` with ``git archive`` into a temporary directory.  For
each side, one child process imports that checkout's ``degramix`` and
``benchmark/workloads.py`` and, per workload, runs its ``setup`` and then
every CLI invocation of its ``commands`` at seed 3 and full size, with BLAS
pinned to one thread.  Then it runs ``run_all_variants`` on compare_cv's data
and ``run_ragged``, which cover paths no workload takes: all seven ``compare``
variants with a micro scalar, an order-2 ``evaluate`` (two effect levels
per unit), a simulated dataset with two scalars and an order-2 basis,
units with no more observations than latent levels, ``fit
--dump-design``, an order-2 latent fit and a ``compare`` whose split fails
for every variant.  Last, ``run_predict`` fits each of Model1-Model7, and
an order-2 config with a diagonal Sigma_gamma and the ridge on, on two
thirds of compare_cv's units and predicts all of them from each fit, so
every layout of ``fit_report.json`` is written and read back: a functional
fit's ``predict`` projects the curves of units it did not see, Model1's and
Model6's read no curves (the workloads predict only units their fit saw).
``run_unpinned`` fits Model7 on compare_cv's data and predicts its units
through ``python -m degramix`` with no BLAS variable set, so the CLI's own
pin decides the thread count: a revision that loses it differs there.
``run_escaped_ids`` fits Model7 and Model1 on all of 12 units whose ids JSON
writes with ``\\u`` escapes and CSV quotes, and predicts them.
``run_load_errors`` fits copies of one small dataset that break the
loader's rules, so a change of which error ``fit`` prints shows too, and
``run_predict_errors`` predicts, from a fit on another, copies that break
the fit's rules (scalar count, functional count, curve grid).  Then
``run_descriptors`` runs the descriptor paths the micrograph workload
skips: ``descriptor tpc --periodic``, one ``descriptor tpc`` call whose
images take turns between two shapes, a P2 image, and ``descriptor rdf
--particles`` on particle CSVs of every accepted form, on malformed
ones and on ones at the edges of the accepted grammar.  Both sides write
under the same path, so a path echoed into an output cannot differ between
them.  The exit code of each invocation and the child's stderr (for
``run_descriptors``, ``run_load_errors`` and ``run_predict_errors``, each
invocation's) are kept as files beside the outputs.  Every file that
differs, or exists on one side only, is printed; the exit code is 1 if any
does, else 0.  For a ``.json`` or ``.csv`` file on both sides, the line also
says how far it moved: the largest difference over its numeric entries,
each relative to the largest magnitude in its JSON array or CSV column, and
the entries that differ otherwise (a header, an id, an integer such as an
iteration count).  Nothing under ``benchmark/`` is written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export

SEED = 3
# the BLAS thread variables: run_side pins each to 1, run_unpinned removes them
_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# the child: argv is checkout, output root, seed
_SIDE = """
import sys
from pathlib import Path

import degramix
from degramix.cli import run
from same_outputs import (run_all_variants, run_descriptors, run_escaped_ids, run_load_errors,
                          run_predict, run_predict_errors, run_ragged, run_unpinned)
from workloads import SIZES, WORKLOADS

checkout, root, seed = Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3])
if not Path(degramix.__file__).resolve().is_relative_to(checkout.resolve()):
    sys.exit(f"imported {degramix.__file__}, not the package of {checkout}")
for name, work in WORKLOADS.items():
    dims = SIZES["full"][name]
    base = root / name
    base.mkdir(parents=True)
    work.setup(base, seed, dims)
    codes = [f"{op} {run(argv)}" for op, argv in work.commands(base, seed, dims)]
    (base / "exit_codes.txt").write_text("\\n".join(codes) + "\\n", encoding="utf-8")

run_all_variants(root / "all_variants", root / "compare_cv" / "data", run)
run_ragged(root / "ragged", seed, run)
run_predict(root / "predict", root / "compare_cv" / "data", run)
run_unpinned(root / "unpinned", root / "compare_cv" / "data")
run_escaped_ids(root / "escaped_ids", seed, run)
run_load_errors(root / "load_errors", seed, run)
run_predict_errors(root / "predict_errors", seed, run)
run_descriptors(root / "descriptors", seed, run)
"""


def run_all_variants(base: Path, data: Path, run) -> None:
    """Under ``base``: ``compare`` all seven variants with ``--micro-column
    1``, and ``evaluate`` a ``basis_order`` 2 config with 3 folds, whose
    effects.csv holds two levels per unit, on the dataset in ``data``,
    through the CLI entry ``run``.  The exit codes go to
    ``exit_codes.txt``."""
    base.mkdir(parents=True)
    variants = [a for i in range(1, 8) for a in ("--variant", f"Model{i}")]
    compare = ["compare", "--data", str(data), "--k", "2", "--micro-column", "1", *variants,
               "--out", str(base / "compare")]
    codes = [f"compare {run(compare)}"]
    (base / "order2.json").write_text(json.dumps({"basis_order": 2, "k": 2}), encoding="utf-8")
    evaluate = ["evaluate", "--data", str(data), "--config", str(base / "order2.json"),
                "--folds", "3", "--max-iter", "500", "--tol", "1e-8",
                "--out", str(base / "evaluate_order2")]
    codes.append(f"evaluate_order2 {run(evaluate)}")
    (base / "exit_codes.txt").write_text("\n".join(codes) + "\n", encoding="utf-8")


def run_ragged(base: Path, seed: int, run) -> None:
    """Under ``base``: simulate at ``seed`` into ``full``, and write
    ``simulate_order2`` (``write_order2_dataset``).  Cut unit i's responses
    in ``full`` to its first 1 + (i mod 12) rows, then fit Model7 with
    ``--dump-design`` and a ``basis_order`` 2 config on the cut data, and
    compare Model1, Model6 and Model7 on it with ``--micro-column 1`` (a
    unit of one response leaves an empty train split, so every variant
    fails), through the CLI entry ``run``.  The exit codes go to
    ``exit_codes.txt``."""
    codes = [f"simulate {run(['simulate', '--seed', str(seed), '--out', str(base / 'full')])}"]
    write_order2_dataset(base / "simulate_order2", seed)
    data = base / "data"
    data.mkdir(parents=True)
    for name in ("scalars.csv", "curves.csv"):
        shutil.copy(base / "full" / name, data / name)
    with open(base / "full" / "responses.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    units = {uid: 1 + i % 12 for i, uid in enumerate(dict.fromkeys(row[0] for row in rows))}
    with open(data / "responses.csv", "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        for uid, keep in units.items():
            out.writerows([row for row in rows if row[0] == uid][:keep])
    (base / "order2.json").write_text(json.dumps({"basis_order": 2, "k": 2}), encoding="utf-8")
    stop = ["--max-iter", "500", "--tol", "1e-8"]
    for op, model in (("fit_dump", ["--variant", "Model7", "--k", "2", "--dump-design"]),
                      ("fit_order2", ["--config", str(base / "order2.json")])):
        argv = ["fit", "--data", str(data), *model, *stop, "--out", str(base / op)]
        codes.append(f"{op} {run(argv)}")
    compare = ["compare", "--data", str(data), "--k", "2", "--micro-column", "1",
               *(a for v in ("Model1", "Model6", "Model7") for a in ("--variant", v)),
               "--out", str(base / "compare")]
    codes.append(f"compare {run(compare)}")
    (base / "exit_codes.txt").write_text("\n".join(codes) + "\n", encoding="utf-8")


def write_order2_dataset(out: Path, seed: int) -> None:
    """Generate, in process, a dataset at ``seed`` with two scalars and a
    quadratic time basis (interaction terms for each level and scalar, two
    correlated latent levels), which no ``simulate --spec`` can ask for.
    Write it to ``out`` with ``truth.json`` holding the drawn ``eta``,
    ``gamma`` and ``scores``."""
    import numpy as np
    from degramix.data import BasisFamily, save_dataset
    from degramix.simulate import default_spec, generate_dataset

    spec = default_spec(
        seed=seed, basis=BasisFamily("polynomial", 2),
        scalar_ranges=((0.5, 3.0), (-1.0, 2.0)),
        zeta=np.array([0.8, -0.05, 0.5, -0.2, 0.03, 0.01, 0.12, -0.08, 0.02, -0.01,
                       0.06, 0.05, -0.03, 0.02, 0.01, -0.01, 0.005, 0.004]),
        sigma_gamma=np.array([[0.0025, 0.0005], [0.0005, 0.0004]]))
    ds, truth = generate_dataset(spec)
    out.mkdir(parents=True)
    save_dataset(ds, out / "responses.csv", out / "scalars.csv", out / "curves.csv")
    (out / "truth.json").write_text(json.dumps(
        {name: getattr(truth, name).tolist() for name in ("eta", "gamma", "scores")},
        indent=1) + "\n", encoding="utf-8")


_DATA_FILES = ("responses.csv", "scalars.csv", "curves.csv")


def _read_tables(data: Path) -> list:
    """The rows of each dataset file in ``data``, in ``_DATA_FILES`` order."""
    tables = []
    for name in _DATA_FILES:
        with open(data / name, newline="", encoding="utf-8") as fh:
            tables.append(list(csv.reader(fh)))
    return tables


def _write_tables(data: Path, tables) -> None:
    """Write ``tables``, rows per dataset file, into a new directory ``data``."""
    data.mkdir(parents=True)
    for name, rows in zip(_DATA_FILES, tables):
        with open(data / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)


def _units_but_each_third(tables) -> set:
    """The ids of the units of ``tables`` but each third one in sorted order."""
    ids = sorted({row[0] for row in tables[0][1:] if row})
    return {uid for i, uid in enumerate(ids) if i % 3 != 1}


def _only(tables, units) -> list:
    """``tables`` with only the rows of ``units`` below each header."""
    return [[header, *(row for row in rows if row and row[0] in units)]
            for header, *rows in tables]


# a config no variant has: two coefficient levels, a diagonal Sigma_gamma
# and the ridge on
ORDER2_DIAGONAL_RIDGE = {"basis_order": 2, "k": 2, "constrain_sigma_gamma_diagonal": True,
                         "ridge_jitter": True}


def run_predict(base: Path, data: Path, run) -> None:
    """Under ``base``: write to ``train`` the rows of every unit of the
    dataset in ``data`` but each third one (in sorted id order), fit Model7,
    Model1, Model2-Model6 and ``ORDER2_DIAGONAL_RIDGE`` on them, and predict
    every unit of ``data`` from each fit, through the CLI entry ``run``.
    The exit codes go to ``exit_codes.txt``."""
    tables = _read_tables(data)
    train = base / "train"
    _write_tables(train, _only(tables, _units_but_each_third(tables)))
    config = base / "order2_diagonal_ridge.json"
    config.write_text(json.dumps(ORDER2_DIAGONAL_RIDGE), encoding="utf-8")
    models = ("Model7", "Model1", "Model2", "Model3", "Model4", "Model5", "Model6")
    _fit_then_predict(base, train, data, run, {
        **{model: ["--variant", model, "--k", "2"] for model in models},
        "order2_diagonal_ridge": ["--config", str(config)]})


def _fit_then_predict(base: Path, train: Path, data: Path, run, fits: dict) -> None:
    """Under ``base``: per name in ``fits``, fit the dataset in ``train``
    with that name's model flags and predict every unit of the one in
    ``data`` from the fit, through the CLI entry ``run``.  The exit codes go
    to ``exit_codes.txt``."""
    codes = []
    for name, model in fits.items():
        fit = base / f"fit_{name}"
        argv = ["fit", "--data", str(train), *model, "--max-iter", "500", "--tol", "1e-8",
                "--out", str(fit)]
        codes.append(f"fit_{name} {run(argv)}")
        argv = ["predict", "--fit", str(fit / "fit_report.json"), "--data", str(data),
                "--out", str(base / f"predict_{name}")]
        codes.append(f"predict_{name} {run(argv)}")
    (base / "exit_codes.txt").write_text("\n".join(codes) + "\n", encoding="utf-8")


def run_unpinned(base: Path, data: Path) -> None:
    """Under ``base``: fit Model7 on the dataset in ``data`` and predict its
    units from the fit (``_fit_then_predict``), each in a fresh ``python -m
    degramix`` process whose environment holds none of ``_THREADS``."""
    env = {name: value for name, value in os.environ.items() if name not in _THREADS}

    def run(argv):
        return subprocess.run([sys.executable, "-m", "degramix", *argv], env=env).returncode

    base.mkdir(parents=True)
    _fit_then_predict(base, data, data, run, {"Model7": ["--variant", "Model7", "--k", "2"]})


# unit ids JSON writes with \u escapes (non-ASCII, a surrogate pair, a
# quote, a backslash) and CSV quotes (a comma, a quote)
ESCAPED_IDS = ("ü1", 'q"2', "a,b3", "b\\4", "日5", "x 6", "é7", "ß8", "Ω9", "u10",
               "\U0001f600" + "11", "z12")


def run_escaped_ids(base: Path, seed: int, run) -> None:
    """Under ``base``: generate, in process, a 12-unit dataset at ``seed``
    whose units carry ``ESCAPED_IDS`` and write it to ``data``.  Then fit
    Model7 and Model1 on it and predict its units from each fit
    (``_fit_then_predict``)."""
    from dataclasses import replace

    from degramix.data import save_dataset
    from degramix.simulate import default_spec, generate_dataset

    ds, _ = generate_dataset(default_spec(seed=seed, n_units=len(ESCAPED_IDS)))
    data = base / "data"
    data.mkdir(parents=True)
    save_dataset(replace(ds, unit_ids=ESCAPED_IDS), *(data / name for name in _DATA_FILES))
    _fit_then_predict(base, data, data, run, {
        model: ["--variant", model, "--k", "2"] for model in ("Model7", "Model1")})


# broken copies of run_load_errors' dataset, each named for its faults
LOAD_FAULTS = ("ragged_nan", "earlier_times", "missing_curve", "malformed_last_row")


def run_load_errors(base: Path, seed: int, run) -> None:
    """Under ``base``: generate, in process, a 6-unit dataset at ``seed``,
    add a second functional covariate (half the first) and write it to
    ``data``.  Then write one copy per ``LOAD_FAULTS`` entry:

    - ``ragged_nan``: u4's s=1 curve loses its first point and its last y
      is nan;
    - ``earlier_times``: the same, and u2's second time repeats its first;
    - ``missing_curve``: u4 has no s=2 curve;
    - ``malformed_last_row``: the responses file's last y reads ``abc``.

    Fit Model7 on each copy through the CLI entry ``run``.  Each
    invocation's exit code goes to ``exit_codes.txt`` and its stderr to
    ``<copy>.stderr.txt``."""
    from dataclasses import replace

    import numpy as np
    from degramix.data import save_dataset
    from degramix.simulate import default_spec, generate_dataset

    ds, _ = generate_dataset(default_spec(seed=seed, n_units=6))
    ds = replace(ds, curves=np.concatenate([ds.curves, 0.5 * ds.curves], axis=1))
    (base / "data").mkdir(parents=True)
    save_dataset(ds, *(base / "data" / name for name in _DATA_FILES))
    codes = []
    for fault in LOAD_FAULTS:
        tables = _read_tables(base / "data")
        responses, _, curves = tables
        if fault in ("ragged_nan", "earlier_times"):
            curves.remove(next(row for row in curves if row[:2] == ["u4", "1"]))
            [row for row in responses if row[0] == "u4"][-1][2] = "nan"
        if fault == "earlier_times":
            first, second = [row for row in responses if row[0] == "u2"][:2]
            second[1] = first[1]
        if fault == "missing_curve":
            tables[2] = [row for row in curves if row[:2] != ["u4", "2"]]
        if fault == "malformed_last_row":
            responses[-1][2] = "abc"
        _write_tables(base / fault, tables)
        argv = ["fit", "--data", str(base / fault), "--variant", "Model7", "--k", "2",
                "--out", str(base / f"fit_{fault}")]
        codes.append(f"{fault} {_run_keeping_stderr(run, argv, base / f'{fault}.stderr.txt')}")
    (base / "exit_codes.txt").write_text("\n".join(codes) + "\n", encoding="utf-8")


def _run_keeping_stderr(run, argv, path: Path) -> int:
    """The exit code of ``run(argv)``, whose stderr is written to ``path``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv)
    path.write_text(err.getvalue(), encoding="utf-8")
    return code


# edited copies of run_predict_errors' dataset, each named for its edit
PREDICT_FAULTS = ("second_scalar", "second_covariate", "shifted_grid")


def run_predict_errors(base: Path, seed: int, run) -> None:
    """Under ``base``: generate, in process, a 9-unit dataset at ``seed``
    and write it to ``data``, then fit Model7 on its units but each third
    one.  Write one copy per ``PREDICT_FAULTS`` entry of the units the fit
    saw and of the first it did not, edited so that it no longer matches
    the fit:

    - ``second_scalar``: a second scalar column, equal to the first;
    - ``second_covariate``: a second functional covariate, equal to the first;
    - ``shifted_grid``: each curve's grid moved by 0.25.

    Predict each copy from the fit, through the CLI entry ``run``.  Each
    invocation's exit code goes to ``exit_codes.txt`` and each predict's
    stderr to ``<copy>.stderr.txt``."""
    from degramix.data import save_dataset
    from degramix.simulate import default_spec, generate_dataset

    ds, _ = generate_dataset(default_spec(seed=seed, n_units=9))
    (base / "data").mkdir(parents=True)
    save_dataset(ds, *(base / "data" / name for name in _DATA_FILES))
    tables = _read_tables(base / "data")
    seen = _units_but_each_third(tables)
    _write_tables(base / "train", _only(tables, seen))
    report = base / "fit" / "fit_report.json"
    argv = ["fit", "--data", str(base / "train"), "--variant", "Model7", "--k", "2",
            "--out", str(report.parent)]
    codes = [f"fit {run(argv)}"]
    unseen = next(uid for uid in sorted(ds.unit_ids) if uid not in seen)
    for fault in PREDICT_FAULTS:
        responses, scalars, curves = _only(tables, {*seen, unseen})
        if fault == "second_scalar":
            scalars = [[*row, "x2" if i == 0 else row[1]] for i, row in enumerate(scalars)]
        if fault == "second_covariate":
            curves += [[u, "2", r, z] for u, _, r, z in curves[1:]]
        if fault == "shifted_grid":
            curves[1:] = [[u, s, repr(float(r) + 0.25), z] for u, s, r, z in curves[1:]]
        _write_tables(base / fault, [responses, scalars, curves])
        argv = ["predict", "--fit", str(report), "--data", str(base / fault),
                "--out", str(base / f"predict_{fault}")]
        codes.append(f"{fault} {_run_keeping_stderr(run, argv, base / f'{fault}.stderr.txt')}")
    (base / "exit_codes.txt").write_text("\n".join(codes) + "\n", encoding="utf-8")


def _random_pgm(rng: random.Random, width: int, height: int, ascii_form: bool = False) -> bytes:
    """A width x height 8-bit PGM of random samples, P2 or P5."""
    samples = [rng.randrange(256) for _ in range(width * height)]
    if ascii_form:
        rows = (" ".join(map(str, samples[i:i + width])) for i in range(0, len(samples), width))
        return (f"P2\n# random samples\n{width} {height}\n255\n" + "\n".join(rows) + "\n").encode()
    return f"P5\n{width} {height}\n255\n".encode() + bytes(samples)


# the particle rows in each accepted form: line end and row format
_PARTICLE_FORMS = {
    "plain": ("\n", "{x!r},{y!r}"),
    "crlf": ("\r\n", "{x!r},{y!r}"),
    "exponents": ("\n", "{x:+.17e}, {y:.17E}"),
    "padded": ("\n", " {x!r}\t,\t{y!r} "),
}
# particle CSVs that fail, each on a row, a header or a coordinate
_MALFORMED_PARTICLES = {
    "separator": b"# window 10 10\nx,y\n1,2\n1_0,2\n",
    "three_fields": b"# window 10 10\nx,y\n1,2\n\n1,2,3\n",
    "non_numeric": b"# window 10 10\nx,y\n1,2#3\n",
    "one_field": b"# window 10 10\nx,y\n  \n4\n",
    "no_column_header": b"# window 10 10\n1,2\n",
    "outside_window": b"# window 10 10\nx,y\n1,2\n11,1\n",
    "not_finite": b"# window 10 10\nx,y\nnan,1\n",
    "not_utf8": b"# window 10 10\nx,y\n1,2\n\xff,1\n",
}
# particle CSVs at the edges of the accepted grammar (float() reads a
# non-ASCII decimal digit and strips any Unicode space) and of the blank-line
# rule; the last fails on a line its number pins
_EDGE_PARTICLES = {
    "arabic_indic_digit": "# window 10 10\nx,y\n\u0661,2\n3,4\n".encode(),
    "fullwidth_digit": "# window 10 10\nx,y\n\uff11,2\n3,4\n".encode(),
    "nbsp_padded": "# window 10 10\nx,y\n\xa01\xa0,\xa02\xa0\n3,4\n".encode(),
    "whitespace_line": b"# window 10 10\nx,y\n1,2\n \t \n3,4\n",
    "header_only_whitespace": b"# window 10 10\nx,y\n  \n\t\n",
    "three_fields_after_whitespace": b"# window 10 10\nx,y\n1,2\n \t\n1,2,3\n",
}


def run_descriptors(base: Path, seed: int, run) -> None:
    """Under ``base``: random P5 images of two shapes (a0 and a1 40 x 48,
    b0 52 x 36), a P2 one, and particle CSVs of 300 random points in each
    of ``_PARTICLE_FORMS`` after a blank line, with a blank line (a
    whitespace-only one in the CRLF file) every 97 rows, a header-only one,
    ``_MALFORMED_PARTICLES`` and ``_EDGE_PARTICLES``.  Then, through the CLI
    entry ``run``, ``descriptor tpc`` on a0, b0, a1 and the P2 image, plain
    and ``--periodic``; ``descriptor rdf --particles`` on every valid CSV in
    one call and on each malformed or edge one alone.  Each invocation's
    exit code goes to ``exit_codes.txt`` and its stderr to
    ``<op>.stderr.txt``."""
    base.mkdir(parents=True)
    rng = random.Random(seed)
    images = []
    for name, width, height, ascii_form in (("a0", 40, 48, False), ("b0", 52, 36, False),
                                            ("a1", 40, 48, False), ("p2", 44, 44, True)):
        (base / f"{name}.pgm").write_bytes(_random_pgm(rng, width, height, ascii_form))
        images += ["--image", str(base / f"{name}.pgm")]
    points = [(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)) for _ in range(300)]
    particles = []
    for name, (newline, form) in _PARTICLE_FORMS.items():
        lines = ["", "# window 10 10", "x,y"]
        for i, (x, y) in enumerate(points):
            lines.append(form.format(x=x, y=y))
            if i % 97 == 0:
                lines.append(" \t" if name == "crlf" else "")
        (base / f"{name}.csv").write_bytes(newline.join(lines).encode("utf-8"))
        particles += ["--particles", str(base / f"{name}.csv")]
    (base / "header_only.csv").write_bytes(b"# window 10 10\nx,y\n")
    rdf = ["descriptor", "rdf", "--r-max", "2", "--dr", "0.25"]
    tpc = ["descriptor", "tpc", "--r-max", "9", "--threshold", "0.5", *images]
    calls = [("tpc", [*tpc, "--out", str(base / "tpc")]),
             ("tpc_periodic", [*tpc, "--periodic", "--out", str(base / "tpc_periodic")]),
             ("rdf_particles", [*rdf, *particles, "--particles", str(base / "header_only.csv"),
                                "--out", str(base / "rdf_particles")])]
    for prefix, files in (("bad", _MALFORMED_PARTICLES), ("edge", _EDGE_PARTICLES)):
        for name, content in files.items():
            (base / f"{prefix}_{name}.csv").write_bytes(content)
            calls.append((f"rdf_{name}", [*rdf, "--particles", str(base / f"{prefix}_{name}.csv"),
                                          "--out", str(base / f"rdf_{name}")]))
    codes = [f"{op} {_run_keeping_stderr(run, argv, base / f'{op}.stderr.txt')}"
             for op, argv in calls]
    (base / "exit_codes.txt").write_text("\n".join(codes) + "\n", encoding="utf-8")


def run_side(checkout: Path, root: Path) -> None:
    """Write ``checkout``'s outputs of every workload under ``root``."""
    root.mkdir()
    # this script's own directory, so both sides run its run_ragged
    path = os.pathsep.join([*(str(checkout / d) for d in ("src", "benchmark")),
                            str(Path(__file__).resolve().parent)])
    env = {**os.environ, **_THREADS, "PYTHONPATH": path}
    with open(root / "stderr.txt", "w", encoding="utf-8") as err:
        subprocess.run([sys.executable, "-c", _SIDE, str(checkout), str(root), str(SEED)],
                       cwd=checkout, env=env, stderr=err, check=True)


def differing(a: Path, b: Path) -> list:
    """Relative paths of the files that differ between two trees, or exist in one only."""
    files = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(str(f) for f in files
                  if not ((a / f).is_file() and (b / f).is_file()
                          and (a / f).read_bytes() == (b / f).read_bytes()))


def _json_entries(node, path="") -> dict:
    """Every leaf of a parsed JSON document, keyed by its path."""
    if isinstance(node, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in node.items())
    elif isinstance(node, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(node))
    else:
        return {path: node}
    return {key: leaf for k, v in items for key, leaf in _json_entries(v, k).items()}


def _csv_cell(cell: str):
    """A cell holding a non-integer number as a float, any other as text."""
    try:
        int(cell)
        return cell
    except ValueError:
        try:
            return float(cell)
        except ValueError:
            return cell


def _csv_entries(path: Path) -> dict:
    """Every cell of a CSV file, keyed by its line and 1-based column."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {f"line {line} column {i}": _csv_cell(cell) if line > 1 else cell
                for line, row in enumerate(csv.reader(fh), 1)
                for i, cell in enumerate(row, 1)}


def _group(suffix: str, key: str) -> str:
    """The JSON array (its path less the indices it ends with, so a nested
    array is one) or the CSV column (``column i``) of the entry at ``key``."""
    return key.split(" ", 2)[2] if suffix == ".csv" else re.sub(r"(\[\d+\])+$", "", key)


def drift(a: Path, b: Path) -> str:
    """How far a ``.json`` or ``.csv`` file moved between two trees: the
    largest difference |x - y| over the finite float entries both hold,
    each relative to the largest magnitude either file holds in the entry's
    JSON array or CSV column (``_group``), so that rounding noise next to
    zero reads as small as it is; and the entries that differ otherwise.
    "" for other files."""
    if a.suffix == ".json":
        old, new = (_json_entries(json.loads(p.read_text(encoding="utf-8"))) for p in (a, b))
    elif a.suffix == ".csv":
        old, new = _csv_entries(a), _csv_entries(b)
    else:
        return ""
    pairs, scale, other = {}, {}, []
    for key in dict.fromkeys([*old, *new]):
        x, y = old.get(key), new.get(key)
        if type(x) is float and type(y) is float and math.isfinite(x) and math.isfinite(y):
            pairs[key] = x, y
            g = _group(a.suffix, key)
            scale[g] = max(scale.get(g, 0.0), abs(x), abs(y))
        elif key not in old or key not in new or x != y:
            other.append(key)
    largest = max((abs(x - y) / scale[_group(a.suffix, key)]
                   for key, (x, y) in pairs.items() if x != y), default=0.0)
    text = f"largest relative difference {largest:.2g} over {len(pairs)} numbers"
    if other:
        shown = ", ".join(other[:3]) + (f" and {len(other) - 3} more" if len(other) > 3 else "")
        text += f"; other entries differ: {shown}"
    return text


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        (tmp / "parent").mkdir()
        export(args.parent, tmp / "parent")
        out = {}
        for side, checkout in (("parent", tmp / "parent"), ("change", ROOT)):
            run_side(checkout, tmp / "run")
            out[side] = tmp / f"{side}_out"
            shutil.move(tmp / "run", out[side])
        diffs = differing(out["parent"], out["change"])
        n_files = sum(1 for p in out["change"].rglob("*") if p.is_file())
        for rel in diffs:
            a, b = out["parent"] / rel, out["change"] / rel
            moved = drift(a, b) if a.is_file() and b.is_file() else "exists on one side only"
            print(f"differs: {rel}" + (f" ({moved})" if moved else ""))
    print(f"{len(diffs)} of {n_files} files differ ({args.parent} vs working tree, seed {SEED})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
