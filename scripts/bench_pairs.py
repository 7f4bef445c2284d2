#!/usr/bin/env python3
"""Alternated benchmark pairs: a parent revision against the working tree.

    python3 scripts/bench_pairs.py --parent HEAD --pr 8
    python3 scripts/bench_pairs.py --parent HEAD --pr 8b --workload fit_scale --seeds 10 11

Exports ``--parent`` with ``git archive`` into a temporary directory.  Then,
for every workload in BENCHMARK.json (or each ``--workload`` given) and each
seed of ``--seeds`` (default 0-9), it runs ``benchmark/run.py`` for
BENCHMARK.json's ``run_seconds`` once in that checkout and once in the
working tree (uncommitted edits included), the parent first on even seeds.
Each side runs the benchmark files of its own checkout.  Every run's
details and result lines go to ``BENCH_<pr>.json`` at the repository root,
rewritten after each pair, with the run's wall time, the CPU time its
processes used and the part of it spent in the kernel.  A summary per
workload gives the pairs attempted, the runs that crashed and the operations
that failed on each side, each side's median CPU time per wall second (about
1.0 where threads took turns on one CPU) and system CPU time per wall second
(page faults and other kernel work), and per end-to-end metric each side's
median and quartiles over the complete pairs, the number of them the change
won (ties count for neither side) and the verdict ``verdict`` gives.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)
SIDES = ("parent", "change")


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into ``dest``, as ``git archive`` has them."""
    git = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout, check=True)
    finally:
        git.stdout.close()
        if git.wait() != 0:
            raise RuntimeError(f"git archive {rev} exited with {git.returncode}")


def _children_times() -> tuple:
    """The user plus system CPU time, and the system CPU time, of the child
    processes waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_stime


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its exit code, its wall time ``wall_s``, the CPU
    time ``cpu_s`` of its processes and the system part of it ``sys_s``, and
    its details and result lines."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    (cpu, system), wall = _children_times(), time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - wall
    cpu_end, system_end = _children_times()
    times = {"cpu_s": cpu_end - cpu, "sys_s": system_end - system, "wall_s": wall}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"returncode": proc.returncode, **times, "details": None, "result": None}
    return {"returncode": 0, **times, "details": json.loads(lines[-2]),
            "result": json.loads(lines[-1])}


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """What the paired runs of one metric on one workload show, the values
    listed pair by pair, ``bound`` the relative worsening BENCHMARK.json
    allows:

    - ``gain``: the change wins at least nine tenths of the pairs, and its
      median is better than the parent's by more than the distance between
      the parent's quartiles;
    - ``regression``: the change's median is worse than the parent's by more
      than ``bound`` of it;
    - ``unresolved``: the distance between the parent's quartiles exceeds
      ``bound`` of its median, and not every change run beats every parent
      run;
    - ``no regression``: any other case.
    """
    sign = 1.0 if better == "lower" else -1.0  # so lower reads better below
    parent, change = [sign * v for v in parent], [sign * v for v in change]
    wins = sum(c < p for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    base = statistics.median(parent)
    gap = statistics.median(change) - base
    if 10 * wins >= 9 * len(parent) and -gap > q3 - q1:
        return "gain"
    if gap > bound * abs(base):
        return "regression"
    if q3 - q1 > bound * abs(base) and max(change) >= min(parent):
        return "unresolved"
    return "no regression"


def summarize(runs: list, metrics: list) -> dict:
    """Per workload: pairs attempted, crashed runs and failed operations per
    side, each side's median cpu/wall and sys/wall over its runs that did
    not crash, and per metric each side's median and quartiles over the
    complete pairs, the pairs in which the change read better and the
    verdict."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = {}
        for r in mine:
            if r["result"] is not None:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        both = [p for p in pairs.values() if len(p) == 2]
        rows = out[workload] = {
            "pairs": len({r["seed"] for r in mine}),
            "complete_pairs": len(both),
            "crashed": {side: sum(r["side"] == side and r["result"] is None for r in mine)
                        for side in SIDES},
            "failed": {side: sum(r["result"]["failed"] for r in mine
                                 if r["side"] == side and r["result"] is not None)
                       for side in SIDES},
        }
        for kind in ("cpu", "sys"):
            ratios = {side: [r[f"{kind}_s"] / r["wall_s"] for r in mine
                             if r["side"] == side and r["result"] is not None]
                      for side in SIDES}
            rows[f"{kind}_per_wall"] = {side: statistics.median(v) if v else None
                                        for side, v in ratios.items()}
        if len(both) < 2:
            continue
        for m in metrics:
            sign = 1.0 if m["better"] == "lower" else -1.0
            values = {side: [p[side]["metrics"][m["name"]]["value"] for p in both]
                      for side in SIDES}
            row = rows[m["name"]] = {"unit": m["unit"], "better": m["better"], "change_wins": sum(
                sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))}
            for side, v in values.items():
                q1, _, q3 = statistics.quantiles(v, n=4)
                row[side] = {"median": statistics.median(v), "q1": q1, "q3": q3, "values": v}
            row["verdict"] = verdict(values["parent"], values["change"], m["better"], m["bound"])
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    ap.add_argument("--seeds", type=int, nargs="+", default=SEEDS,
                    help="benchmark seeds, one pair each (default: 0-9)")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]],
                    help="a workload to run, repeatable (default: every workload)")
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = float(bench["run_seconds"])

    parent_sha = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    out_path = ROOT / f"BENCH_{args.pr}.json"
    report = {"parent": parent_sha, "change": f"working tree on {_git('rev-parse', 'HEAD')}",
              "seconds": seconds, "runs": []}
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as tmp:
        parent_dir = Path(tmp)
        export(parent_sha, parent_dir)
        for workload in workloads:
            for seed in args.seeds:
                order = SIDES if seed % 2 == 0 else SIDES[::-1]
                for side in order:
                    checkout = parent_dir if side == "parent" else ROOT
                    run = run_once(checkout, workload, seed, seconds)
                    report["runs"].append({"workload": workload, "seed": seed, "side": side, **run})
                    print(json.dumps({k: report["runs"][-1][k]
                                      for k in ("workload", "seed", "side", "result")}), flush=True)
                report["summary"] = summarize(report["runs"], bench["end_to_end"])
                out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["result"] is not None for r in report["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
