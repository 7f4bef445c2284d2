"""Core dataset records, CSV ingestion, basis evaluation, and baseline centering.

A degradation dataset couples, per test unit, a time-stamped response series
with scalar stress covariates and functional microstructure curves sampled on
a grid shared by the whole dataset.  All record types are immutable after
construction; file loading is the only side-effecting operation here.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
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


def _ints(texts) -> np.ndarray:
    """Integer fields as int64, each read as Python's int() reads it; a field
    such as '1.5', '1.0' or 'nan', or one beyond int64, raises ValueError or
    OverflowError."""
    return np.asarray(texts, dtype=object).astype(np.int64)


def _parses(text: str, kind) -> bool:
    """Whether ``text`` reads as ``kind``: an int as ``_ints`` reads it, a
    float as np.loadtxt does (Python's float syntax less '_' separators and
    non-ASCII digits)."""
    try:
        if kind is int:
            _ints([text])
        elif "_" in text or not text.strip().isascii():
            return False
        else:
            float(text.strip())
    except (ValueError, OverflowError):
        return False
    return True


def _read_table(path, header=None, kinds=()) -> tuple:
    """The data rows of one dataset CSV, parsed by one np.loadtxt call.

    The file's header must be ``header`` (fields compared stripped); with no
    header given, its first field must be unit_id and every later field is a
    float.  Returns the unit ids (an object array of str) and one array per
    later field: float64 as np.loadtxt parses it, or, where ``kinds`` says
    int, int64 from the field's text as ``_ints`` reads it.  A row either
    rejects is found again with the csv module, and the error names the file
    and the line.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            found = next(csv.reader(iter(fh.readline, "")), [])
            if header is None:
                if not found or found[0].strip() != "unit_id":
                    raise ValueError(f"{path}: expected header unit_id,x1,...")
                header, kinds = found, (float,) * (len(found) - 1)
            elif [c.strip() for c in found] != header:
                raise ValueError(f"{path}: expected header {','.join(header)}")
            dtype = np.dtype([("id", object)] + [
                (f"f{i}", object if kind is int else np.float64)
                for i, kind in enumerate(kinds, 1)])
            start = fh.tell()
            if not any(line.strip("\r\n") for line in iter(fh.readline, "")):
                table = np.empty(0, dtype)  # header only; loadtxt would warn
            else:
                fh.seek(start)
                try:
                    table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                                       quotechar='"', encoding="utf-8", ndmin=1)
                except ValueError as exc:
                    table, error = None, exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{path}: unreadable CSV ({exc})") from None
    if table is not None:
        try:
            return table["id"], [_ints(table[f]) if kind is int else table[f]
                                 for f, kind in zip(dtype.names[1:], kinds)]
        except (ValueError, OverflowError) as exc:
            error = exc
    for index, row in enumerate(_read_rows(path)[1:], 1):
        if row and (len(row) != len(header) or not all(map(_parses, row[1:], kinds))):
            raise _malformed(path, index, row, header)
    raise ValueError(f"{path}: {error}")


def _check_units(unit_ids, found, in_file: str, what: str) -> None:
    """Every unit of the responses file appears in ``found`` and no other."""
    missing = next((u for u in unit_ids if u not in found), None)
    if missing is not None:
        raise ValueError(f"missing covariates for unit {missing}{in_file}")
    extra = sorted(found.keys() - set(unit_ids), key=_unit_sort_key)
    if extra:
        raise ValueError(f"mismatched unit ids across files: {extra[0]} has {what} but no responses")


def _codes(ids: np.ndarray, code: dict) -> np.ndarray:
    return np.fromiter(map(code.__getitem__, ids.tolist()), dtype=np.intp, count=ids.size)


def load_dataset(responses_file, scalars_file, curves_file) -> DegradationDataset:
    """Load and cross-validate the three dataset CSVs.

    Units are returned sorted by unit id and observations sorted by time.
    Raises ValueError on malformed rows (naming the file and line), a unit
    listed twice in the scalars file, mismatched unit ids, ragged grids or
    duplicate (unit, time) rows.
    """
    resp_id, (t, y) = _read_table(responses_file, ["unit_id", "time", "y"], (float, float))
    scal_id, columns = _read_table(scalars_file)
    scal_row = {uid: i for i, uid in enumerate(scal_id.tolist())}
    if len(scal_row) < scal_id.size:
        twice = Counter(scal_id.tolist())
        dup = min((u for u, n in twice.items() if n > 1), key=_unit_sort_key)
        raise ValueError(f"{scalars_file}: unit {dup} is listed more than once")
    curv_id, (s, r, z) = _read_table(curves_file, ["unit_id", "s", "r", "z"], (int, float, float))

    unit_ids = sorted(dict.fromkeys(resp_id.tolist()), key=_unit_sort_key)
    if not unit_ids:
        raise ValueError("responses file holds no measurements")
    n = len(unit_ids)
    code = {uid: i for i, uid in enumerate(unit_ids)}
    _check_units(unit_ids, scal_row, "", "covariates")
    x = np.column_stack(columns) if columns else np.zeros((scal_id.size, 0))
    x = x[[scal_row[u] for u in unit_ids]]

    # observations sorted by (unit, t, y); a step that does not rise is a
    # non-increasing or duplicate time
    obs = _codes(resp_id, code)
    order = np.lexsort((y, t, obs))
    obs, t, y = obs[order], t[order], y[order]
    del resp_id
    obs_start = np.concatenate(([0], np.cumsum(np.bincount(obs, minlength=n))))
    bad_times = np.zeros(n, dtype=bool)
    bad_times[obs[1:][(obs[1:] == obs[:-1]) & ~(np.diff(t) > 0)]] = True

    # an empty curves file (header only) yields S = 0 uniformly; otherwise
    # unit 0's indices fix S and its s = 1 curve fixes the grid, and every
    # (unit, s) curve, sorted by (r, z), must hold exactly that grid
    n_s, n_r, r_grid = 0, 0, np.zeros(0)
    grid = np.zeros((n, 0), dtype=int)  # per (unit, s): 0 ok, 1 missing, 2 ragged
    if curv_id.size:
        _check_units(unit_ids, dict.fromkeys(curv_id.tolist()), " in curves file", "curves")
        unit = _codes(curv_id, code)
        s_first = np.unique(s[unit == 0])
        n_s = s_first.size
        if not np.array_equal(s_first, np.arange(1, n_s + 1)):
            raise ValueError(f"curves file: covariate indices must be 1..S, got {tuple(s_first.tolist())}")
        keep = (s >= 1) & (s <= n_s)  # other units' indices beyond 1..S are not read
        group = unit[keep] * n_s + (s[keep] - 1)
        r, z = r[keep], z[keep]
        del curv_id, unit, s, keep
        order = np.lexsort((z, r, group))
        group, r, z = group[order], r[order], z[order]
        counts = np.bincount(group, minlength=n * n_s)
        start = np.cumsum(counts) - counts
        n_r = int(counts[0])
        r_grid = r[:n_r]
        pos = np.arange(group.size) - start[group]
        off_grid = (pos >= n_r) | (r != r_grid[np.minimum(pos, n_r - 1)])
        ragged = (counts != n_r) | (np.bincount(group[off_grid], minlength=n * n_s) > 0)
        grid = np.where(counts == 0, 1, np.where(ragged, 2, 0)).reshape(n, n_s)

    # checked unit by unit, in order, so the first bad unit is the one named;
    # every unit before it holds S * G curve rows, which fixes its offset in z
    units, size = [], n_s * n_r
    for i, (uid, bad) in enumerate(zip(unit_ids, (bad_times | grid.any(axis=1)).tolist())):
        if bad:
            if bad_times[i]:
                raise ValueError(f"non-increasing times for unit {uid}")
            si = int(np.argmax(grid[i] != 0))
            if grid[i, si] == 1:
                raise ValueError(f"unit {uid}: ragged functional grid (missing covariate s={si + 1})")
            raise ValueError(f"unit {uid}: ragged functional grid for covariate s={si + 1}")
        a, b = obs_start[i], obs_start[i + 1]
        units.append(UnitRecord(uid, t[a:b], y[a:b], x[i], z[i * size:(i + 1) * size].reshape(n_s, n_r)))
    return DegradationDataset(units=units, r_grid=r_grid)


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
