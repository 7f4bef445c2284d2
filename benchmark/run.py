"""degramix benchmark: closed-loop CLI passes, one client, from one process.

    python3 benchmark/run.py --workload fit_scale --seed 0 --seconds 10 --trace 0

Run from the repository root.  Set-up (input generation, file writing and the
first import) runs in fresh processes several times and reports its median.
A separate process then runs one discarded warm-up pass and, for
``--seconds``, passes back to back, checking every pass's outputs.  With
``--trace 0`` the last line holds the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a run whose passes alternate untraced and traced.
Workloads, metrics and the layer-to-metric table are in README.md and
layers.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fit_scale", "em_boundary", "compare_cv", "micrograph")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0  # a run must end within 180 s


def _worker(mode: str, args, work_dir: Path, deadline: float, extra=()) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--dir", str(work_dir), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text(encoding="utf-8").splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unavailable"


def run(args) -> dict:
    if not (ROOT / "src" / "degramix" / "cli.py").is_file():
        raise RuntimeError(f"no degramix sources under {ROOT / 'src'}")
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{time.time_ns()}"
    base.mkdir(parents=True)
    try:
        setup_s, setup_raw_s, digests = [], [], set()
        for i in range(SETUP_REPEATS if not args.trace else 1):
            work_dir = base / f"setup{i}"
            t0 = time.perf_counter()
            out = _worker("setup", args, work_dir, deadline)
            # the process's wall time, less its two calibration probes
            setup_raw_s.append(time.perf_counter() - t0 - sum(out["probes_s"]))
            setup_s.append(setup_raw_s[-1] * out["scale"])
            digests.add(_tree_digest(work_dir))
            if i:
                shutil.rmtree(base / f"setup{i - 1}")
        if args.workload == "micrograph":
            _worker("reference", args, work_dir, deadline)
        raw = _worker("measure", args, work_dir, deadline,
                      ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    finally:
        shutil.rmtree(base, ignore_errors=True)
    if len(digests) != 1:
        raw["failed"] += 1
        raw["failures"].append("setup: the same seed wrote different inputs")
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_sha": _git_sha(),
        "source_sha256": _tree_digest(ROOT / "src" / "degramix"),
        "setup_raw_s": setup_raw_s, **{k: v for k, v in raw.items() if k != "per_layer"},
    }
    if args.trace:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in raw["per_layer"].items()}
    else:
        d = raw["durations"]
        # A tail percentile needs ten passes beyond it, and no run holds the
        # twenty passes p50 itself would need; the slowest pass is recorded.
        details["passes"] = len(d)
        details["pass_s_max"] = max(d)
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "pass_s_p50": {"value": statistics.median(d), "unit": "s"},
            "throughput": {"value": raw["work_per_pass"] * len(d) / sum(d), "unit": "items/s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps(details))
    return {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "toy"], default="full",
                   help="toy: the smoke test's input sizes")
    args = p.parse_args(argv)
    try:
        result = run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
