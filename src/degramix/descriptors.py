"""Functional microstructure descriptors from micrograph grids or point sets.

Two estimators are provided: the two-point correlation (TPC) of a binary
phase mask, bucketed by integer pixel radius, and the radial distribution
function (RDF) of a particle set with a guard-region edge correction.  Both
are pure functions over immutable inputs.

scipy is imported inside the functions that use it: importing any of its
submodules costs about 0.4 s, and the model commands import this module
without calling them.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TPC = "tpc"
RDF = "rdf"

_N4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
# one PGM header token, after any whitespace and '#' comments before it; a
# comment runs to its newline, so no token can start inside one
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)")
# a byte that is neither a decimal digit nor the whitespace bytes.split() cuts at
_P2_NON_DIGIT = re.compile(rb"[^\s0-9]")
# working set of one TPC row or column block: it stays in a core's cache
_TPC_BLOCK_BYTES = 2 ** 20


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


def binarize_image(img: MicrostructureImage, threshold: float = 0.5) -> MicrostructureImage:
    """Set the phase mask to intensities >= threshold.

    A sample-backed image is thresholded on its samples, without the float
    grid: level i is in the phase when i / maxval >= threshold, the same
    IEEE division that builds ``intensities``, so every mask bit equals the
    float test's.  i / maxval never falls as i rises, so that (maxval + 1)
    table is False up to its first True level and True from there, and the
    mask is one comparison of the samples with that level.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")
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


def _tpc_plane(h: int, w: int, r_max: int, periodic: bool) -> tuple:
    """(sh, sw, block): the transform's plane and the rows or columns one
    block of the autocorrelation holds, about _TPC_BLOCK_BYTES of complex."""
    from scipy import fft

    if periodic:
        sh, sw = h, w
    else:
        sh, sw = fft.next_fast_len(h + r_max), fft.next_fast_len(w + r_max)
    return sh, sw, max(1, _TPC_BLOCK_BYTES // (16 * max(sh, sw)))


def _tpc_counts_fft(mask, dys, dxs, periodic, r_max):
    # circular autocorrelation; with >= r_max zero padding the wrap-free
    # region reproduces the windowed sums.  Counts are integers and the FFT
    # error is far below 0.5, so rounding recovers them exactly.  Row blocks
    # fill one (h, sw//2+1) half-spectrum, the padding rows never built; each
    # column block then goes through its y transform, the power and a real
    # inverse (the power is real, so its y inverse is Hermitian) while it is
    # in cache, keeping only the half-plane rows dy = 0..r_max.
    from scipy import fft

    h, w = mask.shape
    sh, sw, block = _tpc_plane(h, w, r_max, periodic)
    half = np.empty((h, sw // 2 + 1), dtype=complex)
    for r0 in range(0, h, block):
        half[r0:r0 + block] = fft.rfft(mask[r0:r0 + block], n=sw, axis=1)
    rows = np.empty((r_max + 1, half.shape[1]), dtype=complex)
    for c0 in range(0, half.shape[1], block):
        spec = fft.fft(half[:, c0:c0 + block], n=sh, axis=0)
        power = np.square(spec.real)
        power += np.square(spec.imag)
        rows[:, c0:c0 + block] = fft.ihfft(power, axis=0)[:r_max + 1]
    corr = fft.irfft(rows, n=sw, axis=1)
    hit = np.rint(corr[dys, dxs % sw]).astype(np.int64)
    if periodic:
        n_pairs = np.full(dys.size, h * w, dtype=np.int64)
    else:
        n_pairs = (h - np.abs(dys)) * (w - np.abs(dxs))
    return hit, n_pairs


def compute_tpc(img: MicrostructureImage, r_max: int, periodic: bool = False) -> DescriptorCurve:
    """Two-point correlation of the phase mask for integer radii 0..r_max.

    Each displacement vector d is bucketed by round(|d|); the value at radius
    r is the fraction of in-phase pixel pairs among all pixel pairs whose
    displacement falls in that bucket.  Non-periodic mode counts only pairs
    that stay inside the window.  values[0] equals the phase volume fraction.

    Hit counts come from an FFT autocorrelation rounded to exact integers,
    so the result is bit-for-bit reproducible against a direct pair
    enumeration.  The autocorrelation runs in row and then column blocks
    that stay in cache, with a real inverse of the power spectrum; its peak
    memory is one (height, sw/2+1) complex half-spectrum, sw the padded
    width.
    """
    if img.phase_mask is None:
        raise ValueError("compute_tpc requires a phase mask (binarize first)")
    r_max = int(r_max)
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    if r_max >= min(img.width, img.height) / 2:
        raise ValueError("r_max must be below half the image's shorter side")

    mask = img.phase_mask
    h, w = mask.shape
    dys, dxs, rrs = _half_plane_displacements(r_max)
    hit, n_pairs = _tpc_counts_fft(mask, dys, dxs, periodic, r_max)

    hits = np.zeros(r_max + 1, dtype=np.int64)
    pairs = np.zeros(r_max + 1, dtype=np.int64)
    hits[0] = int(np.count_nonzero(mask))
    pairs[0] = h * w
    np.add.at(hits, rrs, 2 * hit)
    np.add.at(pairs, rrs, 2 * n_pairs)

    values = hits / pairs
    return DescriptorCurve(np.arange(r_max + 1, dtype=float), values, TPC)


def extract_particles(img: MicrostructureImage) -> ParticleSet:
    """One particle per 4-connected mask component, located at its centroid."""
    if img.phase_mask is None:
        raise ValueError("extract_particles requires a phase mask")
    from scipy import ndimage

    labels, n = ndimage.label(img.phase_mask, structure=_N4)
    # component sums in raster order, as ndimage.center_of_mass forms them
    flat = np.flatnonzero(labels)
    comp = labels.ravel()[flat]
    size = np.bincount(comp, minlength=n + 1)[1:]
    rows, cols = np.divmod(flat, img.width)
    coords = np.column_stack([np.bincount(comp, weights=v, minlength=n + 1)[1:] / size
                              for v in (cols, rows)])
    return ParticleSet(coords, (img.width, img.height))


def compute_rdf(ps: ParticleSet, r_max: float, dr: float) -> DescriptorCurve:
    """Radial distribution function with guard-region edge correction.

    Only particles at least r_max from every window edge act as references,
    so every annulus [b*dr, (b+1)*dr) around a reference lies fully inside
    the window.  g(b) = paircount(b) / (M_int * kappa * area(b)) with kappa
    the overall number density.  Degenerate inputs (M <= 1 or no interior
    reference) yield an all-zero curve with the degenerate flag set.
    """
    if dr <= 0:
        raise ValueError("dr must be positive")
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

    # only pairs within n_bins*dr can land in a bin; the relative margin
    # keeps pairs the tree's own distance rounding would put just outside
    from scipy.spatial import cKDTree
    pairs = cKDTree(coords[interior]).sparse_distance_matrix(
        cKDTree(coords), n_bins * dr * (1.0 + 1e-9), output_type="ndarray")
    refs, others = np.flatnonzero(interior)[pairs["i"]], pairs["j"]
    # drop each reference's own entry by index (coincident pairs stay valid)
    keep = refs != others
    refs, others = refs[keep], others[keep]
    dists = np.hypot(*(coords[refs] - coords[others]).T)

    bins = np.floor(dists / dr).astype(int)
    bins = bins[(bins >= 0) & (bins < n_bins)]
    counts = np.bincount(bins, minlength=n_bins).astype(float)

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


def load_particles_csv(path) -> ParticleSet:
    """Read the particle CSV: '# window w h' line, 'x,y' header, then rows.

    Any malformed line raises ValueError naming the file and the line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [(no, ln.strip()) for no, ln in enumerate(fh, 1) if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not lines or not lines[0][1].startswith("#"):
        raise ValueError(f"{path}: missing '# window w h' header line")
    no, head = lines[0]
    parts = head.lstrip("#").split()
    if len(parts) != 3 or parts[0] != "window":
        raise ValueError(f"{path}: malformed window header {head!r}")
    window = _floats(parts[1:], path, no, "window size")
    if len(lines) < 2 or [c.strip() for c in lines[1][1].split(",")] != ["x", "y"]:
        raise ValueError(f"{path}: expected 'x,y' column header")
    coords = []
    for no, row in lines[2:]:
        fields = row.split(",")
        if len(fields) != 2:
            raise ValueError(f"{path}: line {no}: expected 2 fields 'x,y', got {len(fields)}")
        coords.append(_floats(fields, path, no, "coordinate"))
    try:
        return ParticleSet(np.array(coords, dtype=float).reshape(-1, 2), window)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
