#!/usr/bin/env python3
"""Byte-compare every CLI output of the benchmark workloads: a parent revision
against the working tree.

    python3 scripts/same_outputs.py --parent HEAD~

Exports ``--parent`` with ``git archive`` into a temporary directory.  For
each side, one child process imports that checkout's ``degramix`` and
``benchmark/workloads.py`` and, per workload, runs its ``setup`` and then
every CLI invocation of its ``commands`` at seed 3 and full size, with BLAS
pinned to one thread.  Both sides write under the same path, so a path
echoed into an output cannot differ between them.  The exit code of each
invocation and the child's stderr are kept as files beside the outputs.  Every file that
differs, or exists on one side only, is printed; the exit code is 1 if any
does, else 0.  Nothing under ``benchmark/`` is written.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export

SEED = 3

# the child: argv is checkout, output root, seed
_SIDE = """
import sys
from pathlib import Path

import degramix
from degramix.cli import run
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
"""
_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_side(checkout: Path, root: Path) -> None:
    """Write ``checkout``'s outputs of every workload under ``root``."""
    root.mkdir()
    path = os.pathsep.join(str(checkout / d) for d in ("src", "benchmark"))
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
        print(f"differs: {rel}")
    print(f"{len(diffs)} of {n_files} files differ ({args.parent} vs working tree, seed {SEED})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
