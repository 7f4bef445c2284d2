"""Core dataset arrays, CSV ingestion, the time basis, baseline centering,
and the one reader of JSON entries.

A degradation dataset couples, per test unit, a time-stamped response series
with scalar stress covariates and functional microstructure curves sampled on
a grid shared by the whole dataset.  A dataset is one stack of arrays in the
long layout of a mixed-model frame: all units' measurements one after the
other, and one row of covariates per unit.  Every type here is immutable
after construction; file loading is the only side-effecting operation.
Every entry read from a ``--config``, ``--spec`` or ``--fit`` file goes
through ``json_value`` or ``json_array``: it must have its JSON type and
shape, and every number must be finite.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import compress

import numpy as np

POLYNOMIAL = "polynomial"


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


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


def basis_columns(basis: BasisFamily, times: np.ndarray, levels) -> np.ndarray:
    """Matrix of phi_l(t) for the requested levels, one column per level."""
    t = np.asarray(times, dtype=float)
    return np.power(t[:, None], np.asarray(list(levels), dtype=float)[None, :])


@dataclass(frozen=True)
class UnitRecord:
    """A read-only view of one unit of a dataset: its response series, scalar
    covariates and (S, G) curves.  Built by ``DegradationDataset.units`` over
    the dataset's arrays and not validated again."""

    unit_id: str
    times: np.ndarray
    responses: np.ndarray
    scalars: np.ndarray
    curves: np.ndarray

    @property
    def n_obs(self) -> int:
        return self.times.size


# per-unit rules in the order they are checked; a unit breaking several is
# reported under the first
_UNIT_RULES = (
    "unit {}: needs at least one measurement",
    "non-increasing times for unit {}",
    "unit {}: non-finite measurement",
    "unit {}: non-finite scalar covariate",
    "unit {}: non-finite functional covariate curve",
)


def _check_unit_rules(unit_ids, counts, times, responses, scalars, curves) -> None:
    """Raise for the first unit, in dataset order, that breaks a per-unit rule."""
    n = len(unit_ids)
    rows = np.repeat(np.arange(n), counts)
    same_unit = rows[1:] == rows[:-1]
    broken = np.stack([
        counts < 1,
        np.bincount(rows[1:][same_unit & ~(np.diff(times) > 0)], minlength=n) > 0,
        np.bincount(rows[~(np.isfinite(times) & np.isfinite(responses))], minlength=n) > 0,
        ~np.isfinite(scalars).all(axis=1),
        ~np.isfinite(curves).all(axis=(1, 2)),
    ])
    if broken.any():
        i = int(np.argmax(broken.any(axis=0)))
        raise ValueError(_UNIT_RULES[int(np.argmax(broken[:, i]))].format(unit_ids[i]))


@dataclass(frozen=True)
class DegradationDataset:
    """Units sharing P, S and the descriptor grid, stacked in long layout.

    Unit ``unit_ids[i]`` owns ``counts[i]`` consecutive rows of ``times`` and
    ``responses`` (rows ``offsets[i]:offsets[i + 1]``), row i of ``scalars``
    (N, P) and of ``curves`` (N, S, G), the curves sampled on ``r_grid``.
    The arrays are copied, frozen and validated once, on construction.
    """

    unit_ids: tuple
    counts: np.ndarray
    times: np.ndarray
    responses: np.ndarray
    scalars: np.ndarray
    curves: np.ndarray
    r_grid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "unit_ids", tuple(map(str, self.unit_ids)))
        n = len(self.unit_ids)
        if n < 1:
            raise ValueError("dataset needs at least one unit")
        for name, dtype, ndim in (("counts", np.int64, 1), ("times", float, 1),
                                  ("responses", float, 1), ("scalars", float, 2),
                                  ("curves", float, 3), ("r_grid", float, 1)):
            arr = _frozen_array(getattr(self, name), dtype)
            if arr.ndim != ndim:
                raise ValueError(f"{name} must be a {ndim}-d array")
            object.__setattr__(self, name, arr)
        if self.times.shape != self.responses.shape:
            raise ValueError("times and responses must be equal-length vectors")
        if self.counts.size != n or self.scalars.shape[0] != n or self.curves.shape[0] != n:
            raise ValueError("counts, scalars and curves need one entry per unit")
        if np.any(self.counts < 0) or self.counts.sum() != self.times.size:
            raise ValueError("counts must split the measurements into units")
        _check_unit_rules(self.unit_ids, self.counts, self.times, self.responses,
                          self.scalars, self.curves)
        if self.curves.shape[2] != self.r_grid.size:
            raise ValueError(f"unit {self.unit_ids[0]}: ragged functional grid")
        if not np.all(np.diff(self.r_grid) > 0):
            raise ValueError("r_grid must be strictly increasing")
        if len(set(self.unit_ids)) < n:
            dup = next(u for i, u in enumerate(self.unit_ids) if u in self.unit_ids[:i])
            raise ValueError(f"duplicate unit id {dup}")

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)

    @property
    def n_obs(self) -> int:
        return self.times.size

    @property
    def n_scalars(self) -> int:
        return self.scalars.shape[1]

    @property
    def n_functional(self) -> int:
        return self.curves.shape[1]

    @property
    def r_support(self) -> float:
        """Length R of the descriptor support interval."""
        if self.r_grid.size < 2:
            return 1.0
        return float(self.r_grid[-1] - self.r_grid[0])

    @cached_property
    def offsets(self) -> np.ndarray:
        """(N + 1,) row offsets: unit i's measurements are rows offsets[i]:offsets[i + 1]."""
        return np.concatenate(([0], np.cumsum(self.counts)))

    @cached_property
    def unit_rows(self) -> np.ndarray:
        """(n_obs,) the position of each measurement's unit."""
        return np.repeat(np.arange(self.n_units), self.counts)

    @cached_property
    def units(self) -> tuple:
        """One unvalidated ``UnitRecord`` view per unit, in dataset order."""
        bounds = self.offsets.tolist()
        return tuple(
            UnitRecord(uid, self.times[a:b], self.responses[a:b], x, c)
            for uid, a, b, x, c in zip(self.unit_ids, bounds, bounds[1:], self.scalars, self.curves)
        )

    def select(self, keep) -> DegradationDataset:
        """The units where the (N,) boolean ``keep`` is set, in dataset order."""
        keep = np.asarray(keep, dtype=bool)
        rows = keep[self.unit_rows]
        return DegradationDataset(tuple(compress(self.unit_ids, keep)), self.counts[keep],
                                  self.times[rows], self.responses[rows], self.scalars[keep],
                                  self.curves[keep], self.r_grid)


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


# the ModelConfig fields a config dict holds as they are; the basis is
# held as basis_kind and basis_order
_CONFIG_KEYS = tuple(f.name for f in fields(ModelConfig) if f.name != "basis")


def config_to_dict(config: ModelConfig) -> dict:
    return {"basis_kind": config.basis.kind, "basis_order": config.basis.order,
            **{key: getattr(config, key) for key in _CONFIG_KEYS}}


# per kind: what json_value says a value must be, and the types json reads it as
_KINDS = {str: ("a string", str), int: ("an integer", int),
          float: ("a number", (int, float)), bool: ("true or false", bool)}


def json_value(name: str, value, kind):
    """``value``, read from a JSON file, if it has the type ``kind`` (str,
    int, float or bool); otherwise ValueError naming ``name``.  A bool is no
    number, an int is also a float, and a float must be finite: RFC 8259
    has no NaN or Infinity, though Python's json reads both."""
    want, types = _KINDS[kind]
    if (not isinstance(value, types) or isinstance(value, bool) != (kind is bool)
            or isinstance(value, float) and not np.isfinite(value)):
        raise ValueError(f"{name} must be {want}, got {json.dumps(value)}")
    return value


def _holds_bool(value) -> bool:
    return isinstance(value, bool) or (isinstance(value, list) and any(map(_holds_bool, value)))


def json_array(name: str, value, shape=None) -> np.ndarray:
    """``value``, read from a JSON file, as a finite float array; otherwise
    ValueError naming ``name``.  Strings, true and false (numpy reads them
    as 1 and 0) and ragged nestings are not numbers.  The array must have
    ``shape`` if given, None matching any length, but an empty one fits any
    shape that holds no entries."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or _holds_bool(value):
        raise ValueError(f"{name} must be an array of numbers")
    arr = arr.astype(float)
    if shape is not None:
        if arr.size == 0 and 0 in shape:
            arr = arr.reshape(shape)
        if arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
            raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} holds a non-finite value")
    return arr


# the JSON type of each config key's value; k may also be null
_CONFIG_TYPES = (dict.fromkeys(_CONFIG_KEYS, bool)
                 | {"basis_kind": str, "basis_order": int, "k": int, "fve_threshold": float})


def config_from_dict(payload: dict) -> ModelConfig:
    """The config ``config_to_dict`` wrote; an unknown key, or a value of the
    wrong JSON type, raises ValueError naming the key."""
    if not isinstance(payload, dict):
        raise ValueError(f"config must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(_CONFIG_TYPES))
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    for key, value in payload.items():
        if not (key == "k" and value is None):
            json_value(f"config key {key!r}", value, _CONFIG_TYPES[key])
    basis = BasisFamily(payload.get("basis_kind", POLYNOMIAL), payload.get("basis_order", 1))
    return ModelConfig(basis=basis, **{key: payload[key] for key in _CONFIG_KEYS if key in payload})


def center_baseline(ds: DegradationDataset) -> DegradationDataset:
    """Subtract each unit's first response from its whole series (idempotent)."""
    first = ds.responses[ds.offsets[:-1]]
    return replace(ds, responses=ds.responses - np.repeat(first, ds.counts))


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


def _line(path, index) -> str:
    """'<path>: line <n>' for the ``index``-th row (the header is row 0),
    found by reading again because a quoted field may span lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for _ in range(index + 1):
            next(reader)
    return f"{path}: line {reader.line_num}"


def _malformed(path, index, row, header) -> ValueError:
    """The error for the ``index``-th row, which has the wrong field count or
    a non-numeric field."""
    where = _line(path, index)
    if len(row) != len(header):
        return ValueError(f"{where}: expected {len(header)} fields {','.join(header)}, "
                          f"got {len(row)}")
    return ValueError(f"{where}: non-numeric field in {','.join(row)!r}")


def _runs(values: np.ndarray) -> tuple:
    """The runs of equal neighbours in the 1-d ``values``: the position where
    each run starts and its length."""
    change = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    return starts, np.diff(starts, append=values.size)


def _ints(texts) -> np.ndarray:
    """Integer fields as int64, each read as Python's int() reads it; a field
    such as '1.5', '1.0' or 'nan', or one beyond int64, raises ValueError or
    OverflowError.  Each run of equal texts is converted once."""
    texts = np.asarray(texts, dtype=object)
    starts, lengths = _runs(texts)
    return np.repeat(texts[starts].astype(np.int64), lengths)


def _parses(fields, kinds) -> bool:
    """Whether a row's numeric fields read as ``kinds`` says: an int field as
    ``_ints`` reads it, the float fields as np.loadtxt itself reads them."""
    floats = ['"' + f.replace('"', '""') + '"' for f, kind in zip(fields, kinds) if kind is float]
    try:
        _ints([f for f, kind in zip(fields, kinds) if kind is int])
        if floats:
            np.loadtxt([",".join(floats)], delimiter=",", comments=None, quotechar='"')
    except (ValueError, OverflowError):
        return False
    return True


# np.loadtxt opens a path with one of these suffixes through a decompressor
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
_SCAN_BYTES = 1 << 20


def _plain_text(path) -> bool:
    """Whether np.loadtxt, given the path, reads the bytes the csv module
    reads: no decompressor, and no CR byte, which its universal newlines
    would turn into LF even inside a quoted field.  The file is scanned
    ``_SCAN_BYTES`` at a time."""
    if str(path).endswith(_COMPRESSED):
        return False
    with open(path, "rb") as fh:
        return not any(b"\r" in chunk for chunk in iter(lambda: fh.read(_SCAN_BYTES), b""))


def _read_table(path, header=None, kinds=()) -> tuple:
    """The data rows of one dataset CSV, parsed by one np.loadtxt call.

    The file's header must be ``header`` (fields compared stripped); with no
    header given, its first field must be unit_id and every later field is a
    float.  Returns the unit ids (an object array of str) and one array per
    later field: float64 as np.loadtxt parses it, or, where ``kinds`` says
    int, int64 from the field's text as ``_ints`` reads it.  np.loadtxt gets
    the path, so its chunked reader runs, unless ``_plain_text`` says no; it
    then reads on from the open file, line by line.  A row either rejects is
    found again with the csv module, and the error names the file and the
    line.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(iter(fh.readline, ""))
            found = next(reader, [])
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
                source, skip = (path, reader.line_num) if _plain_text(path) else (fh, 0)
                try:
                    table = np.loadtxt(source, dtype=dtype, delimiter=",", comments=None,
                                       quotechar='"', encoding="utf-8", ndmin=1,
                                       skiprows=skip)
                except ValueError as exc:
                    table, error = None, exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{path}: unreadable CSV ({exc})") from None
    if table is not None:
        try:  # float copies: once the caller drops the ids, the table goes
            return table["id"], [_ints(table[f]) if kind is int else table[f].copy()
                                 for f, kind in zip(dtype.names[1:], kinds)]
        except (ValueError, OverflowError) as exc:
            error = exc
    for index, row in enumerate(_read_rows(path)[1:], 1):
        if row and (len(row) != len(header) or not _parses(row[1:], kinds)):
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


def _unit_runs(ids: np.ndarray) -> tuple:
    """The id of each run of equal neighbouring ids (a list) and its length."""
    starts, lengths = _runs(ids)
    return ids[starts].tolist(), lengths


def _codes(run_ids: list, lengths: np.ndarray, code: dict) -> np.ndarray:
    """Each row's unit code, looked up once per run."""
    runs = np.fromiter(map(code.__getitem__, run_ids), dtype=np.intp, count=len(run_ids))
    return np.repeat(runs, lengths)


def _sort_order(group: np.ndarray, key: np.ndarray):
    """The order np.lexsort((key, group)) gives, or None where the rows hold
    it already: ``group`` never falls and ``key`` rises strictly within each
    group.  A tie or a NaN key breaks that, so such rows are sorted."""
    step = np.diff(group)
    if np.all((step > 0) | ((step == 0) & (np.diff(key) > 0))):
        return None
    return np.lexsort((key, group))


def load_dataset(responses_file, scalars_file, curves_file) -> DegradationDataset:
    """Load and cross-validate the three dataset CSVs.

    Units are returned sorted by unit id and observations sorted by time.
    Raises ValueError on malformed rows or a covariate index outside 1..S
    (naming the file and line), a unit listed twice in the scalars file,
    mismatched unit ids, ragged grids or duplicate (unit, time) rows.
    """
    resp_id, (t, y) = _read_table(responses_file, ["unit_id", "time", "y"], (float, float))
    resp_runs, resp_lengths = _unit_runs(resp_id)
    del resp_id
    scal_id, columns = _read_table(scalars_file)
    scal_row = {uid: i for i, uid in enumerate(scal_id.tolist())}
    if len(scal_row) < scal_id.size:
        twice = Counter(scal_id.tolist())
        dup = min((u for u, n in twice.items() if n > 1), key=_unit_sort_key)
        raise ValueError(f"{scalars_file}: unit {dup} is listed more than once")
    curv_id, (s, r, z) = _read_table(curves_file, ["unit_id", "s", "r", "z"], (int, float, float))

    unit_ids = sorted(dict.fromkeys(resp_runs), key=_unit_sort_key)
    if not unit_ids:
        raise ValueError("responses file holds no measurements")
    n = len(unit_ids)
    code = {uid: i for i, uid in enumerate(unit_ids)}
    _check_units(unit_ids, scal_row, "", "covariates")
    x = np.column_stack(columns) if columns else np.zeros((scal_id.size, 0))
    x = x[[scal_row[u] for u in unit_ids]]

    # sorted by (unit, t) unless already so; rows tied on both, and curve
    # points tied on (unit, s, r), are rejected whatever their order, so no
    # key breaks ties
    obs = _codes(resp_runs, resp_lengths, code)
    order = _sort_order(obs, t)
    if order is not None:
        t, y = t[order], y[order]
    counts = np.bincount(obs, minlength=n)
    del obs

    # an empty curves file (header only) yields S = 0 uniformly; otherwise
    # unit 0's indices fix S and its s = 1 curve fixes the grid, and every
    # (unit, s) curve, sorted by r, must hold exactly that grid
    n_s, n_r, r_grid = 0, 0, np.zeros(0)
    grid = np.zeros((n, 0), dtype=int)  # per (unit, s): 0 ok, 1 missing, 2 ragged
    if curv_id.size:
        curv_runs, curv_lengths = _unit_runs(curv_id)
        del curv_id
        _check_units(unit_ids, dict.fromkeys(curv_runs), " in curves file", "curves")
        unit = _codes(curv_runs, curv_lengths, code)
        s_first = np.unique(s[unit == 0])
        n_s = s_first.size
        if not np.array_equal(s_first, np.arange(1, n_s + 1)):
            raise ValueError(f"curves file: covariate indices must be 1..S, got {tuple(s_first.tolist())}")
        if np.any((s < 1) | (s > n_s)):  # the first such row in the file is named
            rows = _read_rows(curves_file)
            i = next(i for i, row in enumerate(rows[1:], 1) if row and not 1 <= int(row[1]) <= n_s)
            raise ValueError(f"{_line(curves_file, i)}: covariate index s={int(rows[i][1])} "
                             f"outside 1..{n_s}")
        group = unit * n_s + (s - 1)
        del unit, s
        order = _sort_order(group, r)
        if order is not None:
            group, r, z = group[order], r[order], z[order]
        curve_counts = np.bincount(group, minlength=n * n_s)
        start = np.cumsum(curve_counts) - curve_counts
        n_r = int(curve_counts[0])
        r_grid = r[:n_r]
        pos = np.arange(group.size) - start[group]
        off_grid = (pos >= n_r) | (r != r_grid[np.minimum(pos, n_r - 1)])
        ragged = (curve_counts != n_r) | (np.bincount(group[off_grid], minlength=n * n_s) > 0)
        grid = np.where(curve_counts == 0, 1, np.where(ragged, 2, 0)).reshape(n, n_s)

    # the first unit with a bad grid is named, unless a unit before it breaks
    # a per-unit rule or its own times do not rise; each unit before it holds
    # S * G curve rows, which fixes its offset in z
    bad = np.flatnonzero(grid.any(axis=1))
    if bad.size:
        i = int(bad[0])
        m, size = int(counts[:i].sum()), n_s * n_r
        _check_unit_rules(unit_ids[:i], counts[:i], t[:m], y[:m], x[:i],
                          z[:i * size].reshape(i, n_s, n_r))
        if not np.all(np.diff(t[m:m + counts[i]]) > 0):
            raise ValueError(f"non-increasing times for unit {unit_ids[i]}")
        si = int(np.argmax(grid[i] != 0))
        if grid[i, si] == 1:
            raise ValueError(f"unit {unit_ids[i]}: ragged functional grid (missing covariate s={si + 1})")
        raise ValueError(f"unit {unit_ids[i]}: ragged functional grid for covariate s={si + 1}")
    return DegradationDataset(unit_ids, counts, t, y, x, z.reshape(n, n_s, n_r), r_grid)


# rows formatted and written at a time: the writer's own memory holds one
# block's texts, whatever the size of the file
_BLOCK_ROWS = 1 << 15
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quote(text: str) -> str:
    """A text field as the csv module's QUOTE_MINIMAL rule writes it: quoted
    when it holds a comma, a quote, CR or LF, with each quote doubled."""
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _field_texts(column: np.ndarray) -> list:
    """The CSV fields of one block of a column, each distinct value formatted
    once.  Numbers are written by str(): a float64 by ``float.__repr__``,
    its shortest round-trip text, with values told apart by bit pattern so
    that -0.0 and 0.0 never share a text.  Any other value is written as
    str() gives it, quoted where ``_quote`` says."""
    if column.dtype.kind in "fiu":
        if column.dtype.kind == "f":
            column = column.astype(np.float64, copy=False)
        distinct, index = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
        if distinct.size == column.size:  # nothing repeats: format in row order
            return list(map(str, column.tolist()))
        texts = np.array(list(map(str, distinct.view(column.dtype).tolist())), dtype=object)
        return texts[index].tolist()
    values = list(map(str, column.tolist()))
    quoted = {text: _quote(text) for text in set(values)}
    return list(map(quoted.__getitem__, values))


def write_csv(path, header, columns) -> None:
    """Write a CSV: the header, then one line per row of ``columns``, equal
    length 1-d arrays (or sequences ``np.asarray`` turns into one), one per
    header field.  Fields are formatted as ``_field_texts`` says, so a float
    reloads bit-exactly, and rows are joined and written ``_BLOCK_ROWS`` at
    a time."""
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header) or len({c.shape for c in columns}) > 1 or columns[0].ndim != 1:
        raise ValueError("write_csv needs one equal-length 1-d column per header field")
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, columns[0].size, _BLOCK_ROWS):
            block = [_field_texts(c[start:start + _BLOCK_ROWS]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def save_dataset(ds: DegradationDataset, responses_file, scalars_file, curves_file) -> None:
    """Write the three CSVs; a reload reproduces the dataset bit-exactly."""
    ids = np.array(ds.unit_ids, dtype=object)
    n, n_s, n_r = ds.curves.shape
    write_csv(responses_file, ["unit_id", "time", "y"],
              [np.repeat(ids, ds.counts), ds.times, ds.responses])
    write_csv(scalars_file, ["unit_id", *(f"x{p}" for p in range(1, ds.n_scalars + 1))],
              [ids, *ds.scalars.T])
    write_csv(curves_file, ["unit_id", "s", "r", "z"],
              [np.repeat(ids, n_s * n_r), np.tile(np.repeat(np.arange(1, n_s + 1), n_r), n),
               np.tile(ds.r_grid, n * n_s), ds.curves.ravel()])


def write_curves_csv(path, entries) -> None:
    """Write (unit_id, s, r_grid, values) tuples in the curves CSV schema."""
    ids, s, r_grids, values = zip(*entries)
    sizes = [np.size(r) for r in r_grids]
    write_csv(path, ["unit_id", "s", "r", "z"],
              [np.repeat(np.array(ids, dtype=object), sizes),
               np.repeat(np.array(s, dtype=np.int64), sizes),
               np.concatenate(r_grids, dtype=float), np.concatenate(values, dtype=float)])
