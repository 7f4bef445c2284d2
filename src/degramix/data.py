"""Core dataset records, CSV ingestion, basis evaluation, and baseline centering.

A degradation dataset couples, per test unit, a time-stamped response series
with scalar stress covariates and functional microstructure curves sampled on
a grid shared by the whole dataset.  All record types are immutable after
construction; file loading is the only side-effecting operation here.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field, replace
import numpy as np

POLYNOMIAL = "polynomial"


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _fmt(value) -> str:
    """Shortest round-trip decimal text for a float (bit-exact on reload)."""
    return repr(float(value))


def _unit_sort_key(unit_id: str):
    # natural order: digit runs compare numerically ("u2" before "u10")
    return tuple(
        (1, int(part), "") if part.isdigit() else (0, 0, part)
        for part in re.split(r"(\d+)", unit_id)
    )


@dataclass(frozen=True)
class BasisFamily:
    """Family of time basis functions phi_0..phi_order with phi_0 == 1."""

    kind: str = POLYNOMIAL
    order: int = 1

    def __post_init__(self):
        if self.kind != POLYNOMIAL:
            raise ValueError(f"unsupported basis kind: {self.kind!r}")
        if self.order < 0:
            raise ValueError("basis order must be nonnegative")


def evaluate_basis(basis: BasisFamily, t: float) -> np.ndarray:
    """Evaluate all basis functions at a single time, element l being t**l."""
    if not np.isfinite(t):
        raise ValueError("basis evaluation requires finite t")
    return np.power(float(t), np.arange(basis.order + 1, dtype=float))


def basis_columns(basis: BasisFamily, times: np.ndarray, levels) -> np.ndarray:
    """Matrix of phi_l(t) for the requested levels, one column per level."""
    t = np.asarray(times, dtype=float)
    return np.power(t[:, None], np.asarray(list(levels), dtype=float)[None, :])


@dataclass(frozen=True)
class UnitRecord:
    """One test unit: response series, scalar covariates, functional curves.

    ``curves`` has shape (S, G) holding each functional covariate sampled on
    the dataset-wide grid.
    """

    unit_id: str
    times: np.ndarray
    responses: np.ndarray
    scalars: np.ndarray
    curves: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "unit_id", str(self.unit_id))
        object.__setattr__(self, "times", _frozen_array(self.times))
        object.__setattr__(self, "responses", _frozen_array(self.responses))
        object.__setattr__(self, "scalars", _frozen_array(np.atleast_1d(self.scalars)))
        curves = np.array(self.curves, dtype=float)
        if curves.ndim == 1:
            curves = curves[None, :]
        if curves.ndim != 2:
            raise ValueError(f"unit {self.unit_id}: curves must be a (S, G) array")
        curves.setflags(write=False)
        object.__setattr__(self, "curves", curves)

        if self.times.ndim != 1 or self.times.shape != self.responses.shape:
            raise ValueError(f"unit {self.unit_id}: times and responses must be equal-length vectors")
        if self.times.size < 1:
            raise ValueError(f"unit {self.unit_id}: needs at least one measurement")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError(f"non-increasing times for unit {self.unit_id}")
        if not np.all(np.isfinite(self.times)) or not np.all(np.isfinite(self.responses)):
            raise ValueError(f"unit {self.unit_id}: non-finite measurement")
        if not np.all(np.isfinite(self.scalars)):
            raise ValueError(f"unit {self.unit_id}: non-finite scalar covariate")
        if not np.all(np.isfinite(self.curves)):
            raise ValueError(f"unit {self.unit_id}: non-finite functional covariate curve")

    @property
    def n_obs(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class DegradationDataset:
    """Validated collection of units sharing P, S and the descriptor grid."""

    units: tuple
    r_grid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(self.units))
        object.__setattr__(self, "r_grid", _frozen_array(self.r_grid))
        if len(self.units) < 1:
            raise ValueError("dataset needs at least one unit")
        p0 = self.units[0].scalars.size
        s0 = self.units[0].curves.shape[0]
        for u in self.units:
            if u.scalars.size != p0:
                raise ValueError(f"unit {u.unit_id}: expected {p0} scalar covariates, got {u.scalars.size}")
            if u.curves.shape != (s0, self.r_grid.size):
                raise ValueError(f"unit {u.unit_id}: ragged functional grid")
        if self.r_grid.size > 1 and not np.all(np.diff(self.r_grid) > 0):
            raise ValueError("r_grid must be strictly increasing")
        seen = set()
        for u in self.units:
            if u.unit_id in seen:
                raise ValueError(f"duplicate unit id {u.unit_id}")
            seen.add(u.unit_id)

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def n_scalars(self) -> int:
        return self.units[0].scalars.size

    @property
    def n_functional(self) -> int:
        return self.units[0].curves.shape[0]

    @property
    def r_support(self) -> float:
        """Length R of the descriptor support interval."""
        if self.r_grid.size < 2:
            return 1.0
        return float(self.r_grid[-1] - self.r_grid[0])

    def unit(self, unit_id: str) -> UnitRecord:
        for u in self.units:
            if u.unit_id == unit_id:
                return u
        raise KeyError(unit_id)


@dataclass(frozen=True)
class ModelConfig:
    """Model structure switches: which coefficient-level terms are active.

    ``center_baseline`` drops the l=0 coefficient level from the design (the
    baseline is pinned at zero); applying the actual data transform is the
    caller's explicit step via :func:`center_baseline`.
    """

    basis: BasisFamily = field(default_factory=BasisFamily)
    k: int | None = None
    fve_threshold: float = 0.95
    include_scalar: bool = True
    include_functional: bool = True
    include_interaction: bool = True
    include_latent: bool = True
    center_baseline: bool = True
    constrain_sigma_gamma_diagonal: bool = False
    ridge_jitter: bool = False

    def __post_init__(self):
        if not (self.include_scalar or self.include_functional
                or self.include_interaction or self.include_latent):
            raise ValueError("at least one model component must be included")
        if self.include_interaction and not (self.include_scalar and self.include_functional):
            raise ValueError("interaction terms require both scalar and functional covariates")
        if self.include_functional and self.k is not None and self.k < 1:
            raise ValueError("functional truncation k must be >= 1")
        if not (0.0 < self.fve_threshold <= 1.0):
            raise ValueError("fve_threshold must lie in (0, 1]")
        if self.center_baseline and self.basis.order < 1:
            raise ValueError("centered baseline leaves no coefficient level for order-0 basis")

    @property
    def levels(self) -> tuple:
        start = 1 if self.center_baseline else 0
        return tuple(range(start, self.basis.order + 1))


def config_to_dict(config: ModelConfig) -> dict:
    return {
        "basis_kind": config.basis.kind,
        "basis_order": config.basis.order,
        "k": config.k,
        "fve_threshold": config.fve_threshold,
        "include_scalar": config.include_scalar,
        "include_functional": config.include_functional,
        "include_interaction": config.include_interaction,
        "include_latent": config.include_latent,
        "center_baseline": config.center_baseline,
        "constrain_sigma_gamma_diagonal": config.constrain_sigma_gamma_diagonal,
        "ridge_jitter": config.ridge_jitter,
    }


def config_from_dict(payload: dict) -> ModelConfig:
    basis = BasisFamily(payload.get("basis_kind", POLYNOMIAL), int(payload.get("basis_order", 1)))
    kwargs = {}
    for key in ("k", "fve_threshold", "include_scalar", "include_functional",
                "include_interaction", "include_latent", "center_baseline",
                "constrain_sigma_gamma_diagonal", "ridge_jitter"):
        if key in payload:
            kwargs[key] = payload[key]
    if kwargs.get("k") is not None:
        kwargs["k"] = int(kwargs["k"])
    return ModelConfig(basis=basis, **kwargs)


def center_baseline(ds: DegradationDataset) -> DegradationDataset:
    """Subtract each unit's first response from its whole series (idempotent)."""
    units = tuple(
        replace(u, responses=u.responses - u.responses[0]) for u in ds.units
    )
    return DegradationDataset(units=units, r_grid=ds.r_grid)


# ---------------------------------------------------------------------------
# CSV schemas
#   responses: unit_id,time,y      scalars: unit_id,x1..xP
#   curves:    unit_id,s,r,z       (grid identical across all (unit, s))
# ---------------------------------------------------------------------------

def _read_rows(path) -> list:
    """Every CSV row as a list of fields; undecodable text raises ValueError
    naming the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{path}: unreadable CSV ({exc})") from None


def _malformed(path, index, row, header) -> ValueError:
    """The error for the ``index``-th row, which has the wrong field count or
    a non-numeric field; it names the row's line, found by reading again
    because a quoted field may span lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for _ in range(index + 1):
            next(reader)
    where = f"{path}: line {reader.line_num}"
    if len(row) != len(header):
        return ValueError(f"{where}: expected {len(header)} fields {','.join(header)}, "
                          f"got {len(row)}")
    return ValueError(f"{where}: non-numeric field in {','.join(row)!r}")


def load_dataset(responses_file, scalars_file, curves_file) -> DegradationDataset:
    """Load and cross-validate the three dataset CSVs.

    Units are returned sorted by unit id and observations sorted by time.
    Raises ValueError on malformed rows (naming the file and line),
    mismatched unit ids, ragged grids or duplicate (unit, time) rows.
    """
    header = ["unit_id", "time", "y"]
    resp_rows = _read_rows(responses_file)
    if not resp_rows or [c.strip() for c in resp_rows[0]] != header:
        raise ValueError(f"{responses_file}: expected header unit_id,time,y")
    responses: dict = {}
    for index, row in enumerate(resp_rows[1:], 1):
        if row:
            try:
                uid, t, y = row
                responses.setdefault(uid, []).append((float(t), float(y)))
            except ValueError:
                raise _malformed(responses_file, index, row, header) from None

    scal_rows = _read_rows(scalars_file)
    header = scal_rows[0] if scal_rows else []
    if not header or header[0].strip() != "unit_id":
        raise ValueError(f"{scalars_file}: expected header unit_id,x1,...")
    scalars: dict = {}
    for index, row in enumerate(scal_rows[1:], 1):
        if row:
            if len(row) != len(header):
                raise _malformed(scalars_file, index, row, header)
            try:
                scalars[row[0]] = np.array([float(v) for v in row[1:]])
            except ValueError:
                raise _malformed(scalars_file, index, row, header) from None

    header = ["unit_id", "s", "r", "z"]
    curv_rows = _read_rows(curves_file)
    if not curv_rows or [c.strip() for c in curv_rows[0]] != header:
        raise ValueError(f"{curves_file}: expected header unit_id,s,r,z")
    curve_points: dict = {}
    for index, row in enumerate(curv_rows[1:], 1):
        if row:
            try:
                uid, s, r, z = row
                curve_points.setdefault(uid, {}).setdefault(int(s), []).append((float(r), float(z)))
            except ValueError:
                raise _malformed(curves_file, index, row, header) from None

    unit_ids = sorted(responses, key=_unit_sort_key)
    if not unit_ids:
        raise ValueError("responses file holds no measurements")

    missing_scalars = [u for u in unit_ids if u not in scalars]
    if missing_scalars:
        raise ValueError(f"missing covariates for unit {missing_scalars[0]}")
    extra = sorted(set(scalars) - set(responses), key=_unit_sort_key)
    if extra:
        raise ValueError(f"mismatched unit ids across files: {extra[0]} has covariates but no responses")

    # an empty curves file (header only) yields S = 0 uniformly
    s_indices: tuple = ()
    r_grid = np.zeros(0)
    if curve_points:
        missing_curves = [u for u in unit_ids if u not in curve_points]
        if missing_curves:
            raise ValueError(f"missing covariates for unit {missing_curves[0]} in curves file")
        extra_c = sorted(set(curve_points) - set(responses), key=_unit_sort_key)
        if extra_c:
            raise ValueError(f"mismatched unit ids across files: {extra_c[0]} has curves but no responses")
        s_indices = tuple(sorted(curve_points[unit_ids[0]]))
        if s_indices != tuple(range(1, len(s_indices) + 1)):
            raise ValueError(f"curves file: covariate indices must be 1..S, got {s_indices}")
        first = sorted(curve_points[unit_ids[0]][s_indices[0]])
        r_grid = np.array([r for r, _ in first])

    units = []
    for uid in unit_ids:
        pairs = sorted(responses[uid])
        times = np.array([t for t, _ in pairs])
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError(f"non-increasing times for unit {uid}")
        ys = np.array([y for _, y in pairs])
        curves = np.zeros((len(s_indices), r_grid.size))
        for si, s in enumerate(s_indices):
            if s not in curve_points.get(uid, {}):
                raise ValueError(f"unit {uid}: ragged functional grid (missing covariate s={s})")
            pts = sorted(curve_points[uid][s])
            rs = np.array([r for r, _ in pts])
            if rs.shape != r_grid.shape or not np.array_equal(rs, r_grid):
                raise ValueError(f"unit {uid}: ragged functional grid for covariate s={s}")
            curves[si] = [z for _, z in pts]
        units.append(UnitRecord(uid, times, ys, scalars[uid], curves))

    return DegradationDataset(units=tuple(units), r_grid=r_grid)


def save_dataset(ds: DegradationDataset, responses_file, scalars_file, curves_file) -> None:
    """Write the three CSVs; a reload reproduces the dataset bit-exactly."""
    with open(responses_file, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("unit_id,time,y\n")
        for u in ds.units:
            for t, y in zip(u.times, u.responses):
                fh.write(f"{u.unit_id},{_fmt(t)},{_fmt(y)}\n")
    with open(scalars_file, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("unit_id," + ",".join(f"x{p}" for p in range(1, ds.n_scalars + 1)) + "\n")
        for u in ds.units:
            fh.write(u.unit_id + "," + ",".join(_fmt(v) for v in u.scalars) + "\n")
    entries = []
    for u in ds.units:
        for si in range(ds.n_functional):
            entries.append((u.unit_id, si + 1, ds.r_grid, u.curves[si]))
    write_curves_csv(curves_file, entries)


def write_curves_csv(path, entries) -> None:
    """Write (unit_id, s, r_grid, values) tuples in the curves CSV schema."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("unit_id,s,r,z\n")
        for unit_id, s, r_grid, values in entries:
            for r, z in zip(r_grid, values):
                fh.write(f"{unit_id},{int(s)},{_fmt(r)},{_fmt(z)}\n")
