"""Functional microstructure descriptors from micrograph grids or point sets.

Two estimators are provided: the two-point correlation (TPC) of a binary
phase mask, bucketed by integer pixel radius, and the radial distribution
function (RDF) of a particle set with a guard-region edge correction.  Both
are pure functions over immutable inputs.

Everything here runs on numpy alone: the TPC's transforms are
``numpy.fft``, particles are labelled from the mask's row runs and RDF
pairs come from a cell list.
"""

from __future__ import annotations

import copy
import os
import re
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

TPC = "tpc"
RDF = "rdf"

# one PGM header token, after any whitespace and '#' comments before it; a
# comment runs to its newline, so no token can start inside one
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)")
# a byte that is neither a decimal digit nor the whitespace bytes.split() cuts at
_P2_NON_DIGIT = re.compile(rb"[^\s0-9]")
# working set of one TPC call's row or column blocks, split over the threads
# that run them: each thread's block stays in its core's cache
_TPC_BLOCK_BYTES = 2 ** 20
# rows of one tile of the copy that transposes a column block
_TPC_TILE = 256
# the complex half-spectrum of every TPC, kept for the process at the size of
# the largest so far: a fresh one at 2048² is 35 MiB, above glibc's mmap
# threshold, so each TPC would page it in anew.  A TPC holds the lock from its
# row stage to the end of its column stage, so concurrent ones never share it
_tpc_half = np.empty(0, dtype=complex)
_tpc_half_lock = threading.Lock()


@dataclass(frozen=True, init=False)
class MicrostructureImage:
    """Grayscale micrograph with an optional two-phase mask.

    The image keeps one read-only (height, width) grid of pixels: the
    integer samples of a PGM with their ``maxval`` (``load_pgm``), or float
    intensities in [0, 1] copied from the caller (``maxval`` None).
    ``intensities`` is the float grid in [0, 1]; for samples it is
    ``samples / maxval``, built on first access and kept.  ``width``,
    ``height`` and ``binarize_image`` read the pixels and never build it.
    ``phase_mask`` marks pixels belonging to the phase of interest.
    """

    pixels: np.ndarray
    maxval: int | None
    phase_mask: np.ndarray | None

    def __init__(self, intensities, phase_mask=None):
        grid = np.array(intensities, dtype=float)
        if grid.ndim != 2:
            raise ValueError("intensities must be a 2-D grid")
        if grid.size == 0:
            raise ValueError("empty image")
        # min and max propagate NaN, and NaN fails both comparisons
        if not (grid.min() >= 0.0 and grid.max() <= 1.0):
            raise ValueError("intensities must be finite and lie in [0, 1]")
        if phase_mask is not None:
            phase_mask = np.array(phase_mask, dtype=bool)
            if phase_mask.shape != grid.shape:
                raise ValueError("phase_mask shape must match intensities")
            phase_mask.setflags(write=False)
        self._set(grid, None, phase_mask)

    @classmethod
    def _from_samples(cls, samples: np.ndarray, maxval: int) -> MicrostructureImage:
        """An image without a mask over the integer ``samples`` (2-D, each in
        0..``maxval``), kept uncopied: ``load_pgm``'s route for the samples it
        read, which no caller holds."""
        img = cls.__new__(cls)
        img._set(samples, maxval, None)
        return img

    def _set(self, pixels, maxval, phase_mask) -> None:
        pixels.setflags(write=False)
        object.__setattr__(self, "pixels", pixels)
        object.__setattr__(self, "maxval", maxval)
        object.__setattr__(self, "phase_mask", phase_mask)

    @cached_property
    def intensities(self) -> np.ndarray:
        if self.maxval is None:
            return self.pixels
        grid = self.pixels / self.maxval
        grid.setflags(write=False)
        return grid

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class ParticleSet:
    """Point pattern in a rectangular window of size (width, height)."""

    coordinates: np.ndarray
    window: tuple

    def __post_init__(self):
        coords = np.array(self.coordinates, dtype=float).reshape(-1, 2)
        coords.setflags(write=False)
        object.__setattr__(self, "coordinates", coords)
        w, h = float(self.window[0]), float(self.window[1])
        object.__setattr__(self, "window", (w, h))
        if not (0 < w < np.inf and 0 < h < np.inf):
            raise ValueError("window sides must be positive and finite")
        if not np.all(np.isfinite(coords)):
            raise ValueError("particle coordinates must be finite")
        if coords.size:
            x, y = coords[:, 0], coords[:, 1]
            if x.min() < 0 or y.min() < 0 or x.max() > w or y.max() > h:
                raise ValueError("particle coordinates must lie inside the window")

    @property
    def n_particles(self) -> int:
        return self.coordinates.shape[0]


@dataclass(frozen=True)
class DescriptorCurve:
    """Descriptor values on an ascending distance grid."""

    r_grid: np.ndarray
    values: np.ndarray
    kind: str
    degenerate: bool = False

    def __post_init__(self):
        r = np.array(self.r_grid, dtype=float)
        v = np.array(self.values, dtype=float)
        if r.shape != v.shape or r.ndim != 1:
            raise ValueError("r_grid and values must be equal-length vectors")
        if self.kind not in (TPC, RDF):
            raise ValueError(f"unknown descriptor kind: {self.kind!r}")
        if self.kind == TPC and v.size and (v.min() < 0.0 or v.max() > 1.0):
            raise ValueError("TPC values must lie in [0, 1]")
        r.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "r_grid", r)
        object.__setattr__(self, "values", v)


def check_threshold(threshold) -> None:
    """binarize_image's rule for the threshold: it lies in (0, 1)."""
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")


def check_r_max(r_max) -> None:
    """The rule compute_tpc and compute_rdf share for r_max that needs no
    image or window: a finite number >= 0."""
    if not np.isfinite(r_max):
        raise ValueError(f"r_max must be finite, got {r_max}")
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")


def check_tpc_r_max(r_max) -> None:
    """compute_tpc's rule for r_max that needs no image: a whole number of
    pixels >= 0."""
    check_r_max(r_max)
    if r_max != int(r_max):
        raise ValueError(f"r_max must be a whole number of pixels, got {r_max}")


def check_dr(dr) -> None:
    """compute_rdf's rule for the bin width: a finite number > 0."""
    if not np.isfinite(dr):
        raise ValueError(f"dr must be finite, got {dr}")
    if dr <= 0:
        raise ValueError("dr must be positive")


def binarize_image(img: MicrostructureImage, threshold: float = 0.5) -> MicrostructureImage:
    """Set the phase mask to intensities >= threshold.

    A sample-backed image is thresholded on its samples, without the float
    grid: level i is in the phase when i / maxval >= threshold, the same
    IEEE division that builds ``intensities``, so every mask bit equals the
    float test's.  i / maxval never falls as i rises, so that (maxval + 1)
    table is False up to its first True level and True from there, and the
    mask is one comparison of the samples with that level.
    """
    check_threshold(threshold)
    if img.maxval is None:
        mask = img.pixels >= threshold
    else:
        # level maxval is 1.0 >= threshold, so the table has a True level
        levels = np.arange(img.maxval + 1) / img.maxval >= threshold
        mask = img.pixels >= int(np.argmax(levels))
    mask.setflags(write=False)
    binary = copy.copy(img)  # shares the pixels, validated when img was built
    object.__setattr__(binary, "phase_mask", mask)
    return binary


def _half_plane_displacements(r_max: int):
    """(dy, dx, round(|d|)) over the canonical half plane, radii 1..r_max."""
    dy, dx = np.mgrid[0:r_max + 1, -r_max:r_max + 1]
    keep = (dy > 0) | ((dy == 0) & (dx > 0))
    rr = np.rint(np.hypot(dx, dy)).astype(np.int64)
    keep &= rr <= r_max
    return dy[keep], dx[keep], rr[keep]


def _next_fast_len(n: int) -> int:
    """The smallest 2·3·5·7·11-smooth integer >= n (n >= 1): the lengths
    numpy.fft's pocketfft transforms fastest."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


class _TpcTable(NamedTuple):
    """What a TPC needs of its mask's shape alone, shared by every image of
    that (h, w, r_max, periodic)."""

    sh: int             # the transform's plane, sh x sw
    sw: int
    block: int          # rows or columns in flight over all threads: _TPC_BLOCK_BYTES of complex
    flat: np.ndarray    # each half-plane displacement's index in the flat (r_max + 1, sw) rows
    radius: np.ndarray  # each displacement's bucket, round(|d|)
    pairs: np.ndarray   # the pixel pairs of each radius 0..r_max


@lru_cache(maxsize=1)
def _tpc_table(h: int, w: int, r_max: int, periodic: bool) -> _TpcTable:
    """The table of an (h, w) mask's TPC to ``r_max``; its arrays are
    read-only.  The images of one call are mostly of one shape, so one
    table is kept."""
    dys, dxs, radius = _half_plane_displacements(r_max)
    if periodic:
        sh, sw = h, w
        n_pairs = np.full(dys.size, h * w, dtype=np.int64)
    else:
        sh, sw = _next_fast_len(h + r_max), _next_fast_len(w + r_max)
        n_pairs = (h - dys) * (w - np.abs(dxs))
    # each displacement d stands for -d too, hence the pairs twice
    pairs = np.zeros(r_max + 1, dtype=np.int64)
    pairs[0] = h * w
    np.add.at(pairs, radius, 2 * n_pairs)
    flat = dys * sw + dxs % sw
    for a in (flat, radius, pairs):
        a.setflags(write=False)
    return _TpcTable(sh, sw, max(1, _TPC_BLOCK_BYTES // (16 * max(sh, sw))), flat, radius, pairs)


def _usable_cpus() -> list:
    """The CPUs this process may run on, sorted; where the platform has no
    CPU affinity, ``os.cpu_count()`` slots of None, which pin nothing."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return [None] * (os.cpu_count() or 1)


def _in_threads(starts: range, cpus: list, work) -> None:
    """Call ``work(i, start)`` once for each start in ``starts`` on
    len(cpus) threads (1 <= len(cpus) <= len(starts)) while this thread
    waits; thread i keeps to CPU ``cpus[i]`` where that is not None.  Each
    thread takes one start at a time from one shared iterator, so one that
    runs late takes fewer blocks, not its share of them.  Once every thread
    has finished, an error of any call is raised here, so none can fail
    unseen; the others claim no more blocks after it.  With one CPU the
    calls run in this thread, which starts and pins nothing.

    Threads are pinned because a kernel that does not balance threads
    across CPUs would otherwise leave them on one CPU, taking turns."""
    if len(cpus) == 1:
        for start in starts:
            work(0, start)
        return
    remaining = iter(starts)
    lock = threading.Lock()
    errors = []

    def run(i):
        try:
            if cpus[i] is not None:
                try:
                    os.sched_setaffinity(0, {cpus[i]})
                except OSError:  # that CPU went offline, or pinning is refused
                    pass
            while not errors:
                with lock:
                    start = next(remaining, None)
                if start is None:
                    return
                work(i, start)
        except BaseException as exc:  # re-raised in the calling thread below
            errors.append(exc)

    threads = []
    try:
        for i in range(len(cpus)):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            threads.append(thread)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _tpc_rows(mask, table: _TpcTable) -> np.ndarray:
    """The (r_max + 1, sw) rows dy = 0..r_max of the mask's circular
    autocorrelation on ``table``'s plane, unrounded."""
    # Row blocks fill one (h, sw//2+1) half-spectrum; column blocks of it
    # then give the rows.  Both stages run on one thread per usable CPU,
    # never more than there are blocks; numpy's transforms release the GIL,
    # so the threads run at once.  Thread i works in its own buffers, of the
    # one block divided by the thread count, and writes only the slices of
    # the blocks it claimed; every line is transformed alone, so the rows
    # are the same bytes whatever the thread count.  The buffers are
    # allocated in the calling thread: pages a thread's own malloc arena
    # took would stay resident.
    h = mask.shape[0]
    nc = table.sw // 2 + 1
    cpus = _usable_cpus()[:-(-max(h, nc) // table.block)]
    block = max(1, table.block // len(cpus))
    with _tpc_half_lock:
        rows = _tpc_column_rows(_tpc_half_spectrum(mask, table.sw, block, cpus),
                                table.sh, table.pairs.size, block, cpus)
    return np.fft.irfft(rows, n=table.sw, axis=1)


def _tpc_half_spectrum(mask, sw: int, block: int, cpus: list) -> np.ndarray:
    """The (h, sw//2+1) x transform of ``mask`` zero-padded to width sw, in
    row blocks; the padding rows are never built.  It is a C-contiguous
    prefix of the kept ``_tpc_half``, which grows first if it is smaller:
    the caller holds ``_tpc_half_lock`` while it uses the result."""
    # each block is copied into a reused contiguous buffer whose zero
    # padding is written once, so the transform runs along contiguous lines
    global _tpc_half
    h, w = mask.shape
    nc = sw // 2 + 1
    if _tpc_half.size < h * nc:
        _tpc_half = None  # the smaller buffer is freed before the larger is taken
        _tpc_half = np.empty(h * nc, dtype=complex)
    half = _tpc_half[:h * nc].reshape(h, nc)
    starts = range(0, h, block)
    cpus = cpus[:len(starts)]
    padded = np.zeros((len(cpus), min(block, h), sw))

    def fill(i, r0):
        n = min(block, h - r0)
        padded[i, :n, :w] = mask[r0:r0 + n]
        np.fft.rfft(padded[i, :n], axis=1, out=half[r0:r0 + n])

    _in_threads(starts, cpus, fill)
    return half


def _tpc_column_rows(half, sh: int, n_dy: int, block: int, cpus: list) -> np.ndarray:
    """The rows dy = 0..n_dy-1 of the y inverse of |Y|^2, Y the length-sh y
    transform of ``half``'s zero-padded columns, in column blocks."""
    # each column block goes through its y transform, the power and a real
    # inverse (the power is real, so its y inverse is Hermitian) while it is
    # in cache; it is copied into a contiguous buffer in tiles of _TPC_TILE
    # rows, which stay in cache while they are transposed
    h, nc = half.shape
    rows = np.empty((n_dy, nc), dtype=complex)
    starts = range(0, nc, block)
    cpus = cpus[:len(starts)]
    col = np.zeros((len(cpus), min(block, nc), sh), dtype=complex)
    spec = np.empty_like(col)
    power, square = np.empty(col.shape), np.empty(col.shape)
    inv = np.empty((*col.shape[:2], sh // 2 + 1), dtype=complex)

    def fill(i, c0):
        n = min(block, nc - c0)
        for r0 in range(0, h, _TPC_TILE):
            r1 = min(r0 + _TPC_TILE, h)
            col[i, :n, r0:r1] = half[r0:r1, c0:c0 + n].T
        np.fft.fft(col[i, :n], axis=1, out=spec[i, :n])
        np.square(spec[i, :n].real, out=power[i, :n])
        power[i, :n] += np.square(spec[i, :n].imag, out=square[i, :n])
        np.fft.ihfft(power[i, :n], axis=1, out=inv[i, :n])
        rows[:, c0:c0 + n] = inv[i, :n, :n_dy].T

    _in_threads(starts, cpus, fill)
    return rows


def _tpc_counts_fft(mask, table: _TpcTable) -> np.ndarray:
    """The in-phase pixel pairs of each of ``table``'s displacements."""
    # circular autocorrelation; with >= r_max zero padding the wrap-free
    # region reproduces the windowed sums.  Counts are integers and the FFT
    # error is far below 0.5, so rounding recovers them exactly.
    return np.rint(_tpc_rows(mask, table).ravel()[table.flat]).astype(np.int64)


def compute_tpc(img: MicrostructureImage, r_max: int, periodic: bool = False) -> DescriptorCurve:
    """Two-point correlation of the phase mask for integer radii 0..r_max.

    Each displacement vector d is bucketed by round(|d|); the value at radius
    r is the fraction of in-phase pixel pairs among all pixel pairs whose
    displacement falls in that bucket.  Non-periodic mode counts only pairs
    that stay inside the window.  values[0] equals the phase volume fraction.

    Hit counts come from an FFT autocorrelation rounded to exact integers,
    so the result is bit-for-bit reproducible against a direct pair
    enumeration.  The autocorrelation runs in row and then column blocks
    that stay in cache, with a real inverse of the power spectrum.  The
    blocks run on one thread per CPU the process may run on, and the result
    is the same bytes whatever their number.  Peak memory is one
    (height, sw/2+1) complex half-spectrum, sw the padded width, plus the
    block buffers, sized from one 1 MiB budget for the whole call however
    many threads share it.  The half-spectrum's buffer is kept for the
    process at the size of the largest one so far and reused by later
    TPCs, which take it one at a time; everything else is allocated per
    call.  The displacements, their buckets and the pair counts depend on
    the mask's shape alone and are built once for consecutive images of
    one shape.
    """
    if img.phase_mask is None:
        raise ValueError("compute_tpc requires a phase mask (binarize first)")
    check_tpc_r_max(r_max)
    r_max = int(r_max)
    if r_max >= min(img.width, img.height) / 2:
        raise ValueError("r_max must be below half the image's shorter side")

    mask = img.phase_mask
    table = _tpc_table(*mask.shape, r_max, bool(periodic))
    hits = np.zeros(r_max + 1, dtype=np.int64)
    hits[0] = int(np.count_nonzero(mask))
    np.add.at(hits, table.radius, 2 * _tpc_counts_fft(mask, table))

    values = hits / table.pairs
    return DescriptorCurve(np.arange(r_max + 1, dtype=float), values, TPC)


def _ranges(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The indices lo[i], lo[i] + 1, ..., lo[i] + n[i] - 1 for every i, in
    one array."""
    return np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)


def _components(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Each of the nodes 0..n-1 mapped to the smallest node connected to it
    by the edges (u, v).

    Every round hooks the larger root of each edge whose two roots differ
    under the smaller, then jumps pointers until every node points at its
    root.  Each hooked root stops being one, so the rounds end.
    """
    root = np.arange(n)
    while u.size:
        ru, rv = root[u], root[v]
        live = ru != rv
        u, v = np.minimum(ru, rv)[live], np.maximum(ru, rv)[live]
        root[v] = u
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    return root


def extract_particles(img: MicrostructureImage) -> ParticleSet:
    """One particle per 4-connected mask component, located at its centroid.

    Components are numbered by their first pixel in raster order.  They are
    built from the mask's row runs: two runs in adjacent rows that share a
    column are joined.  A run's pixel count and its column and row sums are
    exact integers, and so are a component's, so each centroid coordinate
    is one division of exact integers, the same bits as the mean of the
    component's pixel coordinates.
    """
    if img.phase_mask is None:
        raise ValueError("extract_particles requires a phase mask")
    w = img.width
    on = np.flatnonzero(img.phase_mask)
    # a run starts where the previous pixel is off or ends the previous row
    starts = np.ones(on.size, dtype=bool)
    np.not_equal(on[1:], on[:-1] + 1, out=starts[1:])
    starts |= on % w == 0
    first = np.flatnonzero(starts)
    row, a = np.divmod(on[first], w)
    b = a + np.diff(first, append=on.size)  # a run covers columns a..b-1
    # keyed row*(w+1) + col, every run of row r stops below the first start
    # of row r+1, so start and stop keys both ascend; the runs of row r+1
    # that share a column with [a, b), those with stop > a and start < b,
    # are then one range of run indices
    row_key = row * (w + 1)
    lo = np.searchsorted(row_key + b, row_key + (w + 1) + a, side="right")
    joins = np.searchsorted(row_key + a, row_key + (w + 1) + b, side="left") - lo
    u = np.repeat(np.arange(first.size), joins)
    v = _ranges(lo, joins)
    root = _components(u, v, first.size)
    # a component's first run is its root, and roots ascend in raster order
    is_root = root == np.arange(first.size)
    label = (np.cumsum(is_root) - 1)[root]
    n = int(np.count_nonzero(is_root))
    size = np.bincount(label, weights=b - a, minlength=n)
    sums = [np.bincount(label, weights=s, minlength=n)
            for s in ((a + b - 1) * (b - a) // 2, row * (b - a))]
    coords = np.column_stack([s / size for s in sums])
    return ParticleSet(coords, (img.width, img.height))


def compute_rdf(ps: ParticleSet, r_max: float, dr: float) -> DescriptorCurve:
    """Radial distribution function with guard-region edge correction.

    Only particles at least r_max from every window edge act as references,
    so every annulus [b*dr, (b+1)*dr) around a reference lies fully inside
    the window.  g(b) = paircount(b) / (M_int * kappa * area(b)) with kappa
    the overall number density.  Degenerate inputs (M <= 1 or no interior
    reference) yield an all-zero curve with the degenerate flag set.
    """
    check_r_max(r_max)
    check_dr(dr)
    if r_max <= dr:
        raise ValueError("r_max must exceed dr")
    w, h = ps.window
    if r_max > min(w, h) / 2:
        raise ValueError("r_max larger than half the window's shorter side")

    n_bins = int(np.floor(r_max / dr + 1e-9))
    centers = (np.arange(n_bins) + 0.5) * dr
    edges_sq = (np.arange(n_bins + 1) * dr) ** 2
    areas = np.pi * np.diff(edges_sq)

    coords = ps.coordinates
    m = ps.n_particles
    if m <= 1:
        return DescriptorCurve(centers, np.zeros(n_bins), RDF, degenerate=True)

    x, y = coords[:, 0], coords[:, 1]
    interior = (x >= r_max) & (x <= w - r_max) & (y >= r_max) & (y <= h - r_max)
    m_int = int(np.count_nonzero(interior))
    if m_int == 0:
        return DescriptorCurve(centers, np.zeros(n_bins), RDF, degenerate=True)

    # only pairs within reach can land in a bin: the relative margin keeps
    # every pair whose rounded distance falls just inside n_bins*dr.  On a
    # grid of cells at least reach/2 wide such a pair lies at most two cells
    # apart on each axis; 5 x 5 half-reach cells hold about 30% fewer
    # candidates than 3 x 3 full-reach ones.  The cap on cells per axis
    # only keeps the integer keys small
    reach = n_bins * dr * (1.0 + 1e-9)
    nx, ny = (int(min(2 * side // reach, 2 ** 20)) for side in (w, h))
    cx = np.minimum((x / (w / nx)).astype(np.int64), nx - 1)
    cy = np.minimum((y / (h / ny)).astype(np.int64), ny - 1)
    # columns nx and nx + 1 hold no particle, so with stride nx + 2 the
    # cells dx = -2..2 of one cell row are a contiguous key range
    stride = nx + 2
    key = cy * stride + cx
    order = np.argsort(key)
    key, xs, ys = key[order], x[order], y[order]
    refs = np.flatnonzero(interior[order])
    counts = np.zeros(n_bins, dtype=np.int64)
    for dy in range(-2, 3):
        centre = key[refs] + dy * stride
        lo = np.searchsorted(key, centre - 2, side="left")
        n_cand = np.searchsorted(key, centre + 2, side="right") - lo
        other = _ranges(lo, n_cand)
        dists = np.hypot(np.repeat(xs[refs], n_cand) - xs[other],
                         np.repeat(ys[refs], n_cand) - ys[other])
        bins = np.floor(dists / dr).astype(int)
        counts += np.bincount(bins[bins < n_bins], minlength=n_bins)
    # each reference meets itself once, in its own cell, at distance 0;
    # coincident pairs of distinct particles stay
    counts[0] -= m_int
    counts = counts.astype(float)

    kappa = m / (w * h)
    values = counts / (m_int * kappa * areas)
    return DescriptorCurve(centers, values, RDF)


# ---------------------------------------------------------------------------
# File formats: grayscale PGM (P2/P5) and the particle CSV
# ---------------------------------------------------------------------------

def load_pgm(path) -> MicrostructureImage:
    """Read an 8- or 16-bit grayscale PGM into a sample-backed image.

    The image keeps the file's integer samples (``u1`` for maxval <= 255,
    else ``u2``) and ``maxval``; P5 samples stay a view of the bytes read.
    Each sample must lie in 0..maxval, and each P2 sample must be an
    unsigned decimal integer.  ``intensities`` (samples / maxval) is built
    only when it is read.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    tokens, pos = [], 0
    while len(tokens) < 4 and (tok := _PGM_TOKEN.match(data, pos)):
        tokens.append(tok.group(1))
        pos = tok.end()
    if len(tokens) < 4:
        raise ValueError(f"{path}: truncated PGM header")

    magic = tokens[0].decode("ascii", "replace")
    if magic not in ("P2", "P5"):
        raise ValueError(f"{path}: unsupported PGM magic {magic!r}")
    # int() would also take a sign or '_' separators
    if not all(t.isdigit() for t in tokens[1:]):
        raise ValueError(f"{path}: non-integer PGM header field in {tokens[1:]}")
    width, height, maxval = (int(t) for t in tokens[1:])
    if width <= 0 or height <= 0 or not (0 < maxval <= 65535):
        raise ValueError(f"{path}: invalid PGM dimensions")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")

    if magic == "P2":
        if _P2_NON_DIGIT.search(data, pos):
            raise ValueError(f"{path}: P2 samples must be unsigned decimal integers")
        try:
            samples = np.array(data[pos:].split(), dtype=np.int64)
        except OverflowError:
            raise ValueError(f"{path}: PGM sample above maxval {maxval}") from None
        if samples.size != width * height:
            raise ValueError(f"{path}: expected {width * height} samples, got {samples.size}")
    else:
        pos += 1  # single whitespace byte after maxval
        if len(data) - pos < width * height * dtype.itemsize:
            raise ValueError(f"{path}: truncated PGM payload")
        samples = np.frombuffer(data, dtype=dtype, count=width * height, offset=pos)

    if samples.max() > maxval:
        raise ValueError(f"{path}: PGM sample above maxval {maxval}")
    return MicrostructureImage._from_samples(
        samples.astype(dtype, copy=False).reshape(height, width), maxval)


def _floats(fields, path, lineno, what) -> list:
    try:
        # float() also reads '_' digit separators; the dataset CSVs reject them
        if any("_" in f for f in fields):
            raise ValueError
        return [float(f) for f in fields]
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: non-numeric {what} {fields!r}") from None


def _particle_header(path, lines) -> list:
    """The window, from the first two of the particle CSV's nonblank
    ``lines``: '# window w h', then the 'x,y' column header."""
    if not lines or not lines[0][1].startswith("#"):
        raise ValueError(f"{path}: missing '# window w h' header line")
    no, head = lines[0]
    parts = head.lstrip("#").split()
    if len(parts) != 3 or parts[0] != "window":
        raise ValueError(f"{path}: malformed window header {head!r}")
    window = _floats(parts[1:], path, no, "window size")
    if len(lines) < 2 or [c.strip() for c in lines[1][1].split(",")] != ["x", "y"]:
        raise ValueError(f"{path}: expected 'x,y' column header")
    return window


def load_particles_csv(path) -> ParticleSet:
    """Read the particle CSV: '# window w h' line, 'x,y' header, then rows.

    Blank and whitespace-only lines are skipped.  A row is two numbers in
    Python float() syntax without '_' separators; one np.array call
    converts every field, with float()'s own string-to-double, bit for bit.
    Any malformed line raises ValueError naming the file and the line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [(no, text) for no, ln in enumerate(fh, 1) if (text := ln.strip())]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    window = _particle_header(path, lines)
    rows = lines[2:]
    try:
        if not all(row.count(",") == 1 and "_" not in row for _, row in rows):
            raise ValueError
        coords = np.array([f for _, row in rows for f in row.split(",")], dtype=float)
    except ValueError:
        # some row is malformed: name the first one
        for no, row in rows:
            fields = row.split(",")
            if len(fields) != 2:
                raise ValueError(
                    f"{path}: line {no}: expected 2 fields 'x,y', got {len(fields)}") from None
            _floats(fields, path, no, "coordinate")
        raise
    try:
        return ParticleSet(coords.reshape(-1, 2), window)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
