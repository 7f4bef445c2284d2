"""Child processes of the benchmark: set-up, reference curves, measurement.

    python3 benchmark/worker.py setup     --workload W --seed N --size full --dir D
    python3 benchmark/worker.py reference --workload W --seed N --size full --dir D
    python3 benchmark/worker.py measure   --workload W --seed N --size full --dir D \
                                          --seconds S --trace 0|1

Each prints one JSON object as its last line of standard output.  BLAS and
OpenMP are pinned to one thread before numpy is first imported, so every
timing is single-threaded whatever the host's core count.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

# files the CLI writes; removed before each pass so a check never reads a stale one
OUTPUT_NAMES = {"fit_report.json", "predictions.csv", "comparison.csv", "metrics.json",
                "effects.csv", "curves.csv", "fpca_report.json"}


# Times are reported at a reference host speed: each CLI call's time is
# multiplied by REFERENCE_PROBE_S over the mean of the probes run just before
# and just after it (see calibrate).
REFERENCE_PROBE_S = 0.15


def calibrate() -> float:
    """Seconds a fixed probe takes right now: CSV-like parsing into a dict, a
    loop of small numpy calls, streaming arithmetic on a 2 MB vector, and
    512^2 FFTs, the kinds of work the workloads mix.

    The host's speed drifts by +-20% over tens of seconds (shared cores and
    caches); a time divided by probes taken next to it in the same process
    drifts far less.  The probe is the benchmark's own code, so no change to
    the program can move it; its arrays are a few MB.
    """
    import numpy as np
    gc.collect()
    start = time.perf_counter()
    table = {}
    for i in range(20_000):
        unit, a, b = f"u{i % 500},{i * 0.1!r},{i * 0.37!r}".split(",")
        table.setdefault(unit, []).append((float(a), float(b)))
    a, y, s = np.full((30, 6), 0.3), np.ones(30), 2.0 * np.eye(2)
    for _ in range(3000):
        z = a @ a[0]
        np.linalg.inv(s)
        float(y @ (y - z))
    v = np.arange(250_000, dtype=float)
    for _ in range(24):
        v = np.sqrt(v * v + 1.0)
    m = np.ones((512, 512))
    for _ in range(6):
        np.fft.irfft2(np.fft.rfft2(m))
    return time.perf_counter() - start


def setup(args) -> dict:
    from workloads import SIZES, WORKLOADS
    root = Path(args.dir)
    root.mkdir(parents=True)
    probes = [calibrate()]
    with contextlib.redirect_stderr(io.StringIO()):
        WORKLOADS[args.workload].setup(root, args.seed, SIZES[args.size][args.workload])
    probes.append(calibrate())
    return {"probes_s": probes, "scale": REFERENCE_PROBE_S / statistics.mean(probes)}


def reference(args) -> dict:
    from reference import micrograph_reference
    from workloads import SIZES
    ref = micrograph_reference(Path(args.dir), SIZES[args.size][args.workload])
    (Path(args.dir) / "reference.json").write_text(json.dumps(ref), encoding="utf-8")
    return {"ok": True}


class Runner:
    """Runs passes of one workload and checks their outputs."""

    def __init__(self, args):
        from workloads import SIZES, WORKLOADS
        self.root = Path(args.dir)
        self.workload = WORKLOADS[args.workload]
        self.size = SIZES[args.size][args.workload]
        self.commands = self.workload.commands(self.root, args.seed, self.size)
        ref = self.root / "reference.json"
        self.reference = json.loads(ref.read_text(encoding="utf-8")) if ref.exists() else None
        self.out_dirs = [Path(argv[argv.index("--out") + 1]) for _, argv in self.commands]
        self.attempted = 0
        self.failures = []
        self.raw_durations = []

    def run_pass(self, clock=time.perf_counter, probes=None) -> float:
        """Run one pass and check it; return its time.  With a ``probes``
        list (holding the probe taken before the pass), a probe follows every
        CLI call and the time returned is calibrated."""
        import degramix.cli as cli
        for d in self.out_dirs:
            for name in OUTPUT_NAMES:
                (d / name).unlink(missing_ok=True)
        errors = {}
        log = io.StringIO()
        elapsed = raw = 0.0
        with contextlib.redirect_stderr(log):
            for op, argv in self.commands:
                gc.collect()  # every call starts with the collector in the same state
                start = clock()
                rc = cli.run(argv)  # looked up per call, so tracing wrappers apply
                took = clock() - start
                raw += took
                if probes is not None:
                    probes.append(calibrate())
                    took *= REFERENCE_PROBE_S / ((probes[-2] + probes[-1]) / 2)
                elapsed += took
                if rc != 0:
                    errors.setdefault(op, f"exit code {rc}: {log.getvalue()[-300:]!r}")
        for op, err in self.workload.check(self.root, self.size, self.reference):
            if err is not None:
                errors.setdefault(op, err)
        self.attempted += len(self.commands)
        self.failures += [f"{op}: {err}" for op, err in errors.items()]
        self.raw_durations.append(raw)
        return elapsed

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:10], "raw_durations": self.raw_durations}


def _versions() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {k: os.environ[k] for k in THREAD_ENV},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}


def measure(args) -> dict:
    runner = Runner(args)
    runner.run_pass()  # warm-up: caches, lazy imports; discarded
    runner.attempted, runner.failures, runner.raw_durations = 0, [], []
    if args.trace:
        out = _measure_traced(args, runner)
    else:
        durations, probes = [], [calibrate()]
        start = time.perf_counter()
        while not durations or time.perf_counter() - start < args.seconds:
            durations.append(runner.run_pass(probes=probes))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out = {"durations": durations, "probes_s": probes, "peak_rss_mb": peak_kb / 1024.0}
    out.update(runner.result())
    out["work_per_pass"] = runner.workload.work(runner.size)
    out["versions"] = _versions()
    return out


def _zeta_error(root: Path):
    from workloads import zeta_rel_err
    truths = sorted(root.glob("data*/truth.json"))
    if not truths:
        return None
    truth = json.loads(truths[0].read_text(encoding="utf-8"))

    def err(fit):
        if fit.fpca_models is None or fit.layout.names() != truth["zeta_names"]:
            return None
        m = fit.fpca_models[0]
        report = {"layout": {"names": fit.layout.names()},
                  "zeta": {"values": fit.params.zeta.tolist()},
                  "fpca": [{"eigenfunctions": m.eigenfunctions[: m.k].tolist(),
                            "r_grid": m.r_grid.tolist()}]}
        return zeta_rel_err(report, truth)

    return err


def _measure_traced(args, runner) -> dict:
    from tracing import Tracer, median_metrics
    tracer = Tracer(zeta_error=_zeta_error(runner.root))
    plain, traced, per_pass, fired = [], [], [], set()
    fits = {}
    start = time.perf_counter()
    # untraced and traced passes alternate, so drift hits both alike
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(runner.run_pass())
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.run_pass(clock=tracer.clock))
        finally:
            tracer.uninstall()
        per_pass.append(tracer.pass_metrics(traced[-1]))
        fired |= tracer.fired()
        fits = {k: tracer.counts.get(k, []) for k in ("latent_fit_iterations", "plain_fit_iterations")}
    # memory pass: tracemalloc slows numpy-heavy code several-fold, so its
    # spans give only the *_peak_mb metrics, never a time
    tracer.reset()
    tracer.memory = True
    tracemalloc.start()
    tracer.install()
    try:
        runner.run_pass(clock=tracer.clock)
    finally:
        tracer.uninstall()
        tracemalloc.stop()
    fired |= tracer.fired()
    layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
    expected = set(layers["workloads"][args.workload]["expected_spans"])
    missing = sorted(expected - fired)
    if missing:
        raise SystemExit(f"traced run: expected spans never fired: {', '.join(missing)}")
    metrics = median_metrics(per_pass)
    metrics.update(tracer.peak_metrics())
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {"per_layer": metrics, "traced_durations": traced, "untraced_durations": plain,
            "fit_iterations": fits}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("mode", choices=["setup", "reference", "measure"])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=["full", "toy"], default="full")
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    out = {"setup": setup, "reference": reference, "measure": measure}[args.mode](args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
