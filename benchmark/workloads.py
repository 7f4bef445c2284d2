"""The four benchmark workloads: inputs from a seed, one pass, output checks.

A pass is a fixed list of ``degramix`` CLI invocations run in one process.
Every flag that shapes the work (iteration cap, tolerance, truncation,
centering, folds) is passed explicitly, so a later change to a CLI default
cannot move a workload.  Inputs depend only on the seed and the size table.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Sizes per workload.  "full" is what the benchmark measures; "toy" is for the
# smoke test and finishes in seconds.
SIZES = {
    "full": {
        "fit_scale": {"n_units": 1000},
        # two datasets on which EM misbehaves at the variance boundary:
        # dataset 0 stops by the log-likelihood rule after 209 iterations,
        # dataset 1 runs to the 500 cap
        "em_boundary": {"n_units": 60, "datasets": (0, 1), "max_iter": 500},
        "compare_cv": {"n_units": 300, "folds": 5},
        "micrograph": {
            "tiles": 64, "tile_px": 128, "tile_r": 20,
            "large": 2, "large_px": 2048, "large_r": 200, "disks": 2000, "disk_r": 6,
            "particles": 5000, "particle_window": 1000.0, "rdf_r": 50, "rdf_dr": 1.0,
        },
    },
    "toy": {
        "fit_scale": {"n_units": 40},
        "em_boundary": {"n_units": 60, "datasets": (0, 1), "max_iter": 20},
        "compare_cv": {"n_units": 60, "folds": 3},
        "micrograph": {
            "tiles": 8, "tile_px": 64, "tile_r": 10,
            "large": 2, "large_px": 256, "large_r": 40, "disks": 60, "disk_r": 5,
            "particles": 400, "particle_window": 300.0, "rdf_r": 30, "rdf_dr": 1.0,
        },
    },
}

TOL = "1e-8"
ZETA_BOUND = 0.25  # relative zeta error a fit may have (observed <= 0.13)
MODEL_VARIANTS = ("Model1", "Model2", "Model3", "Model4", "Model5", "Model7")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable        # (root, seed, size) -> None, writes the inputs
    commands: Callable     # (root, seed, size) -> [(op, argv)], one pass
    check: Callable        # (root, size, reference) -> [(op, error or None)]
    work: Callable         # size -> work items per pass (throughput numerator)


def _cli():
    from degramix.cli import run
    return run


def _simulate(root: Path, name: str, seed: int, spec: dict) -> Path:
    spec_path = root / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out = root / name
    rc = _cli()(["simulate", "--spec", str(spec_path), "--seed", str(seed), "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"simulate {name} exited with {rc}")
    return out


def _permute_rows(path: Path, rng: random.Random) -> None:
    """Shuffle a CSV's data rows; the loader sorts them back, so fits are unchanged."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    body = lines[1:]
    rng.shuffle(body)
    path.write_text("".join(lines[:1] + body), encoding="utf-8")


def _fit_args(data: Path, out: Path, variant: str = "Model7", center: bool = True,
              max_iter: int = 500) -> list:
    return ["--data", str(data), "--variant", variant, "--k", "2",
            "--center" if center else "--no-center",
            "--max-iter", str(max_iter), "--tol", TOL, "--out", str(out)]


# ---------------------------------------------------------------------------
# output checks shared by the model workloads
# ---------------------------------------------------------------------------

def _true_modes(r_grid: np.ndarray) -> np.ndarray:
    # the mode shapes of the simulator's default spec
    r = r_grid / r_grid[-1]
    return np.vstack([np.sqrt(2.0) * np.sin(2.0 * np.pi * r),
                      np.sqrt(2.0) * np.cos(2.0 * np.pi * r)])


def zeta_rel_err(report: dict, truth: dict) -> float:
    """||zeta_hat - zeta|| / ||zeta|| with each FPCA component's sign aligned
    to the true mode it estimates (eigenfunction signs are arbitrary)."""
    names = report["layout"]["names"]
    if names != truth["zeta_names"]:
        raise ValueError(f"fitted layout {names} differs from the truth's")
    zeta = np.asarray(report["zeta"]["values"], dtype=float)
    fp = report["fpca"][0]
    psi = np.asarray(fp["eigenfunctions"], dtype=float)
    signs = np.sign(np.sum(psi * _true_modes(np.asarray(fp["r_grid"]))[: psi.shape[0]], axis=1))
    for j, n in enumerate(names):
        if "_k" in n:
            zeta[j] *= signs[int(n.rsplit("_k", 1)[1]) - 1]
    true = np.asarray(truth["zeta"], dtype=float)
    return float(np.linalg.norm(zeta - true) / np.linalg.norm(true))


def check_fit_report(report: dict, truth: dict, zeta_bound: float) -> str | None:
    trace = np.asarray(report["loglik_trace"], dtype=float)
    if trace.size == 0 or not np.all(np.isfinite(trace)):
        return "non-finite log-likelihood trace"
    worst = float(np.diff(trace).min()) if trace.size > 1 else 0.0
    # criterion 1: EM never lowers the marginal log-likelihood
    if worst < -max(1e-8, 1e-12 * abs(trace[-1])):
        return f"log-likelihood decreased by {-worst:.3e}"
    err = zeta_rel_err(report, truth)
    if not err <= zeta_bound:
        return f"zeta relative error {err:.3f} above {zeta_bound}"
    return None


def _guard(op: str, fn) -> tuple:
    try:
        return op, fn()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return op, f"unreadable output: {exc!r}"


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# fit_scale
# ---------------------------------------------------------------------------

def _fit_scale_setup(root: Path, seed: int, size: dict) -> None:
    _simulate(root, "data", seed, {"n_units": size["n_units"]})


def _fit_scale_commands(root: Path, seed: int, size: dict) -> list:
    return [
        ("fit", ["fit", *_fit_args(root / "data", root / "fit")]),
        ("predict", ["predict", "--fit", str(root / "fit" / "fit_report.json"),
                     "--data", str(root / "data"), "--center", "--use-latent",
                     "--out", str(root / "pred")]),
    ]


def _check_predictions(path: Path, truth: dict, expected_rows: int) -> str | None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["unit_id", "time", "y", "y_hat"]:
        return "bad predictions header"
    body = np.array([[float(v) for v in r[2:]] for r in rows[1:]])
    if body.shape != (expected_rows, 2) or not np.all(np.isfinite(body)):
        return f"expected {expected_rows} finite predictions, got {body.shape}"
    mse = float(np.mean((body[:, 0] - body[:, 1]) ** 2))
    if not mse <= 2.0 * truth["sigma_eps2"]:
        return f"prediction MSE {mse:.4g} above twice the noise variance"
    return None


def _fit_scale_check(root: Path, size: dict, reference) -> list:
    truth = _read_json(root / "data" / "truth.json")
    return [
        _guard("fit", lambda: check_fit_report(_read_json(root / "fit" / "fit_report.json"),
                                               truth, ZETA_BOUND)),
        _guard("predict", lambda: _check_predictions(root / "pred" / "predictions.csv", truth,
                                                     size["n_units"] * 30)),
    ]


# ---------------------------------------------------------------------------
# em_boundary
# ---------------------------------------------------------------------------

def _em_boundary_setup(root: Path, seed: int, size: dict) -> None:
    # The datasets are fixed (latent variance zero); the seed only shuffles the
    # CSV rows, which the loader sorts away.  Other zero-variance datasets stop
    # anywhere from 86 to 500 iterations, which would make the pass time a
    # property of the seed rather than of the code.
    rng = random.Random(seed)
    for ds_seed in size["datasets"]:
        out = _simulate(root, f"data{ds_seed}", ds_seed,
                        {"n_units": size["n_units"], "sigma_gamma": [[0.0]]})
        for name in ("responses.csv", "scalars.csv", "curves.csv"):
            _permute_rows(out / name, rng)


def _em_boundary_commands(root: Path, seed: int, size: dict) -> list:
    return [
        (f"fit{d}", ["fit", *_fit_args(root / f"data{d}", root / f"fit{d}", center=False,
                                       max_iter=size["max_iter"])])
        for d in size["datasets"]
    ]


def _em_boundary_check(root: Path, size: dict, reference) -> list:
    return [
        _guard(f"fit{d}", lambda d=d: check_fit_report(
            _read_json(root / f"fit{d}" / "fit_report.json"),
            _read_json(root / f"data{d}" / "truth.json"), ZETA_BOUND))
        for d in size["datasets"]
    ]


# ---------------------------------------------------------------------------
# compare_cv
# ---------------------------------------------------------------------------

def _compare_cv_setup(root: Path, seed: int, size: dict) -> None:
    _simulate(root, "data", seed, {"n_units": size["n_units"]})


def _compare_cv_commands(root: Path, seed: int, size: dict) -> list:
    data = str(root / "data")
    compare = ["compare", "--data", data, "--k", "2", "--fve", "0.95", "--split", "0.8",
               "--max-iter", "500", "--tol", TOL, "--out", str(root / "cmp")]
    for v in MODEL_VARIANTS:
        compare += ["--variant", v]
    evaluate = ["evaluate", *_fit_args(root / "data", root / "eval"), "--split", "0.8",
                "--folds", str(size["folds"]), "--seed", str(seed)]
    return [("compare", compare), ("evaluate", evaluate)]


def _check_comparison(path: Path) -> str | None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if [r["model"] for r in rows] != list(MODEL_VARIANTS):
        return f"unexpected comparison rows {[r['model'] for r in rows]}"
    empty = [r["model"] for r in rows if any(v == "" for v in r.values())]
    if empty:
        return f"empty comparison row for {empty[0]}"
    best = min(rows, key=lambda r: float(r["aic"]))["model"]
    # criterion 7: the full model wins on AIC
    if best != "Model7":
        return f"lowest AIC is {best}, not Model7"
    return None


def _check_evaluation(root: Path, n_units: int) -> str | None:
    metrics = _read_json(root / "metrics.json")
    for key in ("cv_error", "r2", "loglik", "mse_test"):
        if not math.isfinite(metrics.get(key, math.nan)):
            return f"non-finite {key} in metrics.json"
    with open(root / "effects.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) < n_units or not all(math.isfinite(float(v)) for r in rows for v in r[2:]):
        return "missing or non-finite effect rows"
    return None


def _compare_cv_check(root: Path, size: dict, reference) -> list:
    return [
        _guard("compare", lambda: _check_comparison(root / "cmp" / "comparison.csv")),
        _guard("evaluate", lambda: _check_evaluation(root / "eval", size["n_units"])),
    ]


# ---------------------------------------------------------------------------
# micrograph
# ---------------------------------------------------------------------------

def write_pgm(path: Path, grid: np.ndarray) -> None:
    h, w = grid.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(grid, dtype=np.uint8).tobytes())


def _field_tile(rng: np.random.Generator, px: int) -> np.ndarray:
    """Two-phase tile: a thresholded, smoothed periodic Gaussian field."""
    from scipy import ndimage
    field = ndimage.gaussian_filter(rng.standard_normal((px, px)), sigma=2.5, mode="wrap")
    return np.where(field > 0.0, 200, 50).astype(np.uint8)


def _disk_image(rng: np.random.Generator, px: int, n_disks: int, radius: int) -> np.ndarray:
    """Random (possibly overlapping) disks of one radius on a dark background."""
    img = np.full((px, px), 30, dtype=np.uint8)
    yy, xx = np.mgrid[-radius:radius + 1, -radius:radius + 1]
    stencil = yy * yy + xx * xx <= radius * radius
    for cy, cx in rng.integers(0, px, size=(n_disks, 2)):
        y0, y1 = max(cy - radius, 0), min(cy + radius + 1, px)
        x0, x1 = max(cx - radius, 0), min(cx + radius + 1, px)
        patch = stencil[y0 - cy + radius:y1 - cy + radius, x0 - cx + radius:x1 - cx + radius]
        img[y0:y1, x0:x1][patch] = 220
    return img


def _micrograph_setup(root: Path, seed: int, size: dict) -> None:
    _cli()  # the first import is part of set-up on every workload
    rng = np.random.default_rng(seed)
    tiles = root / "tiles"
    tiles.mkdir()
    ids = [f"t{i:02d}" for i in range(size["tiles"])]
    for uid in ids:
        write_pgm(tiles / f"{uid}.pgm", _field_tile(rng, size["tile_px"]))
    # fpca reads a dataset directory; the descriptor pass writes its curves.csv
    (tiles / "responses.csv").write_text(
        "unit_id,time,y\n" + "".join(f"{u},0.0,0.0\n" for u in ids), encoding="utf-8")
    (tiles / "scalars.csv").write_text(
        "unit_id,x1\n" + "".join(f"{u},1.0\n" for u in ids), encoding="utf-8")
    for i in range(size["large"]):
        write_pgm(root / f"large{i}.pgm",
                  _disk_image(rng, size["large_px"], size["disks"], size["disk_r"]))
    win = size["particle_window"]
    pts = rng.uniform(0.0, win, size=(size["particles"], 2))
    with open(root / "particles.csv", "w", encoding="utf-8") as fh:
        fh.write(f"# window {win!r} {win!r}\nx,y\n")
        fh.writelines(f"{x!r},{y!r}\n" for x, y in pts.tolist())


def _tile_paths(root: Path, size: dict) -> list:
    return [root / "tiles" / f"t{i:02d}.pgm" for i in range(size["tiles"])]


def _micrograph_commands(root: Path, seed: int, size: dict) -> list:
    tiles = ["descriptor", "tpc", "--r-max", str(size["tile_r"]), "--threshold", "0.5",
             "--s", "1", "--out", str(root / "tiles")]
    for p in _tile_paths(root, size):
        tiles += ["--image", str(p)]
    large = ["descriptor", "tpc", "--r-max", str(size["large_r"]), "--threshold", "0.5",
             "--s", "1", "--out", str(root / "tpc_large")]
    for i in range(size["large"]):
        large += ["--image", str(root / f"large{i}.pgm")]
    rdf = ["descriptor", "rdf", "--r-max", str(size["rdf_r"]), "--dr", str(size["rdf_dr"]),
           "--threshold", "0.5", "--s", "1", "--image", str(root / "large0.pgm"),
           "--particles", str(root / "particles.csv"), "--out", str(root / "rdf")]
    fpca = ["fpca", "--data", str(root / "tiles"), "--fve", "0.95", "--out", str(root / "fpca")]
    return [("tpc_tiles", tiles), ("fpca", fpca), ("tpc_large", large), ("rdf", rdf)]


def read_curves(path: Path) -> dict:
    """unit_id -> (r values, z values) from a curves CSV, floats parsed exactly."""
    out: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["unit_id", "s", "r", "z"]:
        raise ValueError(f"{path}: bad header")
    for uid, _, r, z in rows[1:]:
        rs, zs = out.setdefault(uid, ([], []))
        rs.append(float(r))
        zs.append(float(z))
    return out


def _check_curves(path: Path, expected: dict) -> str | None:
    got = read_curves(path)
    if sorted(got) != sorted(expected):
        return f"curve ids {sorted(got)} differ from the reference"
    for uid, (r, z) in expected.items():
        if got[uid][0] != r:
            return f"{uid}: distance grid differs from the reference"
        if got[uid][1] != z:
            bad = next(i for i, (a, b) in enumerate(zip(got[uid][1], z)) if a != b)
            return f"{uid}: value {bad} is {got[uid][1][bad]!r}, reference {z[bad]!r}"
    return None


def _check_fpca(path: Path, n_curves: int) -> str | None:
    cov = _read_json(path)["covariates"][0]
    ev = np.asarray(cov["eigenvalues"], dtype=float)
    k = int(cov["k"])
    scores = np.asarray(cov["scores"]["values"], dtype=float)
    if not (1 <= k <= ev.size) or np.any(ev < 0.0) or np.any(np.diff(ev) > 0.0):
        return f"bad FPCA spectrum (k={k})"
    if not cov["fve_trace"][k - 1] >= 0.95 - 1e-9:
        return "selected truncation misses the 0.95 FVE threshold"
    if scores.shape != (n_curves, k) or not np.all(np.isfinite(scores)):
        return f"FPCA scores have shape {scores.shape}"
    return None


def _micrograph_check(root: Path, size: dict, reference: dict) -> list:
    return [
        _guard("tpc_tiles", lambda: _check_curves(root / "tiles" / "curves.csv",
                                                  reference["tpc_tiles"])),
        _guard("fpca", lambda: _check_fpca(root / "fpca" / "fpca_report.json", size["tiles"])),
        _guard("tpc_large", lambda: _check_curves(root / "tpc_large" / "curves.csv",
                                                  reference["tpc_large"])),
        _guard("rdf", lambda: _check_curves(root / "rdf" / "curves.csv", reference["rdf"])),
    ]


def _micrograph_pixels(size: dict) -> float:
    tiles = size["tiles"] * size["tile_px"] ** 2
    large = (size["large"] + 1) * size["large_px"] ** 2  # TPC on each, RDF on one
    return (tiles + large) / 1e6


WORKLOADS = {
    "fit_scale": Workload("fit_scale", _fit_scale_setup, _fit_scale_commands,
                          _fit_scale_check, lambda s: s["n_units"]),
    "em_boundary": Workload("em_boundary", _em_boundary_setup, _em_boundary_commands,
                            _em_boundary_check, lambda s: len(s["datasets"]) * s["n_units"]),
    "compare_cv": Workload("compare_cv", _compare_cv_setup, _compare_cv_commands,
                           _compare_cv_check,
                           # six variants and the evaluate fit on all units, then
                           # folds-1 units' worth in each of the CV refits
                           lambda s: (len(MODEL_VARIANTS) + 1 + s["folds"] - 1) * s["n_units"]),
    "micrograph": Workload("micrograph", _micrograph_setup, _micrograph_commands,
                           _micrograph_check, _micrograph_pixels),
}
