"""Reference descriptor curves for the micrograph workload's output checks.

The curves are recomputed here by a separate route: TPC from a full-plane
FFT autocorrelation (scipy.fft, unpadded to fast lengths) and RDF from a
reference-chunked pair count.  Hit and pair counts are exact integers and
the final divisions are the ones the descriptor definitions specify, so the
values match the program's bit for bit; any later change that moves a single
bit of a descriptor value fails the check.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy import fft, ndimage

_N4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


def read_mask(path: Path, threshold: float = 0.5) -> np.ndarray:
    """Phase mask of a P5 PGM written by ``workloads.write_pgm``."""
    data = Path(path).read_bytes()
    magic, w, h, maxval, _ = data.split(maxsplit=4)
    if magic != b"P5" or int(maxval) != 255:
        raise ValueError(f"{path}: not an 8-bit P5 image")
    w, h = int(w), int(h)
    pixels = np.frombuffer(data[-w * h:], dtype=np.uint8).reshape(h, w)
    return pixels.astype(float) / 255 >= threshold


def tpc(mask: np.ndarray, r_max: int) -> tuple:
    h, w = mask.shape
    spec = fft.rfft2(mask.astype(float), s=(h + r_max, w + r_max))
    corr = fft.irfft2(spec * np.conj(spec), s=(h + r_max, w + r_max))
    dy, dx = np.mgrid[-r_max:r_max + 1, -r_max:r_max + 1]
    rr = np.rint(np.hypot(dx, dy)).astype(np.int64)
    keep = (rr <= r_max) & (rr > 0)
    dy, dx, rr = dy[keep], dx[keep], rr[keep]
    hit = np.rint(corr[dy % (h + r_max), dx % (w + r_max)]).astype(np.int64)
    hits = np.zeros(r_max + 1, dtype=np.int64)
    pairs = np.zeros(r_max + 1, dtype=np.int64)
    np.add.at(hits, rr, hit)
    np.add.at(pairs, rr, (h - np.abs(dy)) * (w - np.abs(dx)))
    hits[0] = np.count_nonzero(mask)
    pairs[0] = h * w
    return [float(r) for r in range(r_max + 1)], (hits / pairs).tolist()


def particles_from_mask(mask: np.ndarray) -> tuple:
    labels, n = ndimage.label(mask, structure=_N4)
    centers = ndimage.center_of_mass(mask, labels, range(1, n + 1))
    coords = np.array([(col, row) for row, col in centers], dtype=float).reshape(-1, 2)
    return coords, (float(mask.shape[1]), float(mask.shape[0]))


def particles_from_csv(path: Path) -> tuple:
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    _, w, h = lines[0].lstrip("#").split()
    coords = [[float(v) for v in ln.split(",")] for ln in lines[2:] if ln]
    return np.array(coords, dtype=float).reshape(-1, 2), (float(w), float(h))


def rdf(coords: np.ndarray, window: tuple, r_max: float, dr: float, chunk: int = 256) -> tuple:
    w, h = window
    n_bins = int(np.floor(r_max / dr + 1e-9))
    centers = (np.arange(n_bins) + 0.5) * dr
    areas = np.pi * np.diff((np.arange(n_bins + 1) * dr) ** 2)
    x, y = coords[:, 0], coords[:, 1]
    interior = np.flatnonzero((x >= r_max) & (x <= w - r_max) & (y >= r_max) & (y <= h - r_max))
    counts = np.zeros(n_bins, dtype=np.int64)
    for start in range(0, interior.size, chunk):
        rows = interior[start:start + chunk]
        diffs = coords[rows][:, None, :] - coords[None, :, :]
        dist = np.hypot(diffs[..., 0], diffs[..., 1])
        own = np.zeros(dist.shape, dtype=bool)
        own[np.arange(rows.size), rows] = True
        bins = np.floor(dist[~own] / dr).astype(int)
        counts += np.bincount(bins[(bins >= 0) & (bins < n_bins)], minlength=n_bins)
    kappa = coords.shape[0] / (w * h)
    values = counts.astype(float) / (interior.size * kappa * areas)
    return centers.tolist(), values.tolist()


def micrograph_reference(root: Path, size: dict) -> dict:
    """unit_id -> (r grid, values) for every curve one micrograph pass writes."""
    root = Path(root)
    tiles = {
        f"t{i:02d}": tpc(read_mask(root / "tiles" / f"t{i:02d}.pgm"), size["tile_r"])
        for i in range(size["tiles"])
    }
    large = {
        f"large{i}": tpc(read_mask(root / f"large{i}.pgm"), size["large_r"])
        for i in range(size["large"])
    }
    r_max, dr = float(size["rdf_r"]), float(size["rdf_dr"])
    rdfs = {
        "large0": rdf(*particles_from_mask(read_mask(root / "large0.pgm")), r_max, dr),
        "particles": rdf(*particles_from_csv(root / "particles.csv"), r_max, dr),
    }
    return {"tpc_tiles": tiles, "tpc_large": large, "rdf": rdfs}
