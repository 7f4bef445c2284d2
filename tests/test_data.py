import csv
import warnings

import numpy as np
import pytest
from _oracles import load_dataset_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from degramix.data import (
    BasisFamily,
    DegradationDataset,
    ModelConfig,
    UnitRecord,
    center_baseline,
    config_from_dict,
    config_to_dict,
    evaluate_basis,
    load_dataset,
    save_dataset,
)


def make_unit(uid="u1", times=(1.0, 2.0, 3.0), responses=(5.0, 7.0, 10.0),
              scalars=(1.0,), curves=None, grid_size=5):
    if curves is None:
        curves = np.arange(grid_size, dtype=float)[None, :]
    return UnitRecord(uid, np.asarray(times), np.asarray(responses),
                      np.asarray(scalars), curves)


def make_dataset(n=3, grid_size=5):
    rng = np.random.default_rng(0)
    units = [
        make_unit(f"u{i}", times=(0.0, 1.0, 2.5), responses=rng.normal(size=3),
                  scalars=rng.normal(size=2),
                  curves=rng.normal(size=(2, grid_size)))
        for i in range(1, n + 1)
    ]
    return DegradationDataset(tuple(units), np.linspace(0.0, 4.0, grid_size))


class TestEvaluateBasis:
    def test_order_one(self):
        assert np.array_equal(evaluate_basis(BasisFamily("polynomial", 1), 3.0), [1.0, 3.0])

    def test_order_two(self):
        assert np.array_equal(evaluate_basis(BasisFamily("polynomial", 2), 2.0), [1.0, 2.0, 4.0])

    def test_zero_time(self):
        assert np.array_equal(evaluate_basis(BasisFamily("polynomial", 1), 0.0), [1.0, 0.0])

    @given(st.floats(-100.0, 100.0), st.integers(0, 5))
    def test_first_element_is_one(self, t, order):
        assert evaluate_basis(BasisFamily("polynomial", order), t)[0] == 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            evaluate_basis(BasisFamily(), np.inf)


class TestCenterBaseline:
    def test_subtracts_first_response(self):
        ds = DegradationDataset((make_unit(responses=(5.0, 7.0, 10.0)),), np.arange(5.0))
        centered = center_baseline(ds)
        assert np.array_equal(centered.units[0].responses, [0.0, 2.0, 5.0])

    def test_single_observation(self):
        ds = DegradationDataset((make_unit(times=(1.0,), responses=(4.0,)),), np.arange(5.0))
        assert np.array_equal(center_baseline(ds).units[0].responses, [0.0])

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 8))
        ds = DegradationDataset(
            (make_unit(times=np.arange(m, dtype=float), responses=rng.normal(size=m)),),
            np.arange(5.0),
        )
        once = center_baseline(ds)
        twice = center_baseline(once)
        assert np.array_equal(once.units[0].responses, twice.units[0].responses)
        assert once.units[0].responses[0] == 0.0


class TestValidation:
    def test_non_increasing_times_rejected(self):
        with pytest.raises(ValueError, match="non-increasing times"):
            make_unit(times=(1.0, 1.0, 2.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_unit(times=(1.0, 2.0), responses=(1.0,))

    def test_non_finite_scalars_rejected(self):
        with pytest.raises(ValueError, match="unit u7: non-finite scalar"):
            make_unit("u7", scalars=(1.0, np.nan))

    def test_non_finite_curves_rejected(self):
        curves = np.arange(5, dtype=float)[None, :]
        curves[0, 2] = np.inf
        with pytest.raises(ValueError, match="unit u8: non-finite functional"):
            make_unit("u8", curves=curves)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="unit u9: needs at least one measurement"):
            make_unit("u9", times=(), responses=())

    def test_ragged_grid_rejected(self):
        u1 = make_unit("u1", grid_size=5)
        u2 = make_unit("u2", grid_size=6)
        with pytest.raises(ValueError, match="ragged"):
            DegradationDataset((u1, u2), np.arange(5.0))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            DegradationDataset((), np.arange(5.0))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DegradationDataset((make_unit("u1"), make_unit("u1")), np.arange(5.0))


class TestModelConfig:
    def test_levels_centered(self):
        assert ModelConfig(basis=BasisFamily("polynomial", 2)).levels == (1, 2)

    def test_levels_uncentered(self):
        assert ModelConfig(center_baseline=False).levels == (0, 1)

    def test_all_off_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(include_scalar=False, include_functional=False,
                        include_interaction=False, include_latent=False)

    def test_interaction_requires_both_marginals(self):
        with pytest.raises(ValueError):
            ModelConfig(include_scalar=False, include_interaction=True)

    def test_json_round_trip(self):
        cfg = ModelConfig(basis=BasisFamily("polynomial", 2), k=3,
                          include_interaction=False, include_latent=False)
        assert config_from_dict(config_to_dict(cfg)) == cfg


class TestCsvRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        ds = make_dataset()
        paths = (tmp_path / "responses.csv", tmp_path / "scalars.csv", tmp_path / "curves.csv")
        save_dataset(ds, *paths)
        loaded = load_dataset(*paths)
        assert loaded.n_units == ds.n_units
        assert np.array_equal(loaded.r_grid, ds.r_grid)
        for a, b in zip(loaded.units, ds.units):
            assert a.unit_id == b.unit_id
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.responses, b.responses)
            assert np.array_equal(a.scalars, b.scalars)
            assert np.array_equal(a.curves, b.curves)

    def test_schema_echo(self, tmp_path):
        rng = np.random.default_rng(3)
        units = [
            make_unit(f"u{i:02d}", times=np.arange(20, dtype=float),
                      responses=rng.normal(size=20), scalars=rng.normal(size=1),
                      curves=rng.normal(size=(1, 5)))
            for i in range(1, 13)
        ]
        ds = DegradationDataset(tuple(units), np.arange(5.0))
        paths = (tmp_path / "r.csv", tmp_path / "s.csv", tmp_path / "c.csv")
        save_dataset(ds, *paths)
        loaded = load_dataset(*paths)
        assert loaded.n_units == 12
        assert all(u.n_obs == 20 for u in loaded.units)

    def test_missing_scalar_unit(self, tmp_path):
        ds = make_dataset()
        paths = (tmp_path / "r.csv", tmp_path / "s.csv", tmp_path / "c.csv")
        save_dataset(ds, *paths)
        lines = paths[1].read_text().splitlines()
        paths[1].write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="missing covariates for unit"):
            load_dataset(*paths)

    def test_duplicate_time_row(self, tmp_path):
        ds = make_dataset()
        paths = (tmp_path / "r.csv", tmp_path / "s.csv", tmp_path / "c.csv")
        save_dataset(ds, *paths)
        with open(paths[0], "a") as fh:
            fh.write("u1,1.0,9.9\n")
        with pytest.raises(ValueError, match="non-increasing times"):
            load_dataset(*paths)

    def test_ragged_curve_grid(self, tmp_path):
        ds = make_dataset()
        paths = (tmp_path / "r.csv", tmp_path / "s.csv", tmp_path / "c.csv")
        save_dataset(ds, *paths)
        lines = paths[2].read_text().splitlines()
        paths[2].write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="ragged"):
            load_dataset(*paths)

    def test_units_sorted_numerically(self, tmp_path):
        ds = make_dataset(n=11)
        paths = (tmp_path / "r.csv", tmp_path / "s.csv", tmp_path / "c.csv")
        save_dataset(ds, *paths)
        loaded = load_dataset(*paths)
        assert [u.unit_id for u in loaded.units] == [f"u{i}" for i in range(1, 12)]


class TestMismatchedFiles:
    def test_extra_scalar_unit_rejected(self, tmp_path):
        ds = make_dataset()
        paths = (tmp_path / "r.csv", tmp_path / "s.csv", tmp_path / "c.csv")
        save_dataset(ds, *paths)
        with open(paths[1], "a") as fh:
            fh.write("ghost,1.0,2.0\n")
        with pytest.raises(ValueError, match="mismatched unit ids"):
            load_dataset(*paths)

    def test_unit_listed_twice_in_scalars_rejected(self, tmp_path):
        units = [make_unit(f"u{i:02d}", scalars=(float(i),)) for i in range(1, 4)]
        paths = (tmp_path / "r.csv", tmp_path / "s.csv", tmp_path / "c.csv")
        save_dataset(DegradationDataset(tuple(units), np.arange(5.0)), *paths)
        with open(paths[1], "a") as fh:
            fh.write("u01,99.0\n")
        with pytest.raises(ValueError) as err:
            load_dataset(*paths)
        assert f"{paths[1]}: unit u01 is listed more than once" in str(err.value)


def saved_paths(directory):
    paths = tuple(directory / n for n in ("responses.csv", "scalars.csv", "curves.csv"))
    save_dataset(make_dataset(), *paths)
    return paths


def replace_line(path, index, text, insert=False):
    lines = path.read_text().splitlines()
    lines[index:index if insert else index + 1] = [text]
    path.write_text("\n".join(lines) + "\n")


# fields that neither float() nor int() accepts
BAD_NUMBERS = ["abc", "", " ", "1..2", "0x1", "--1", "1e", "x1"]


def _truncating_loadtxt(loadtxt):
    """np.loadtxt as numpy 1.23 to 1.26 reads int64 fields: through a float,
    truncated, with a DeprecationWarning."""
    def lenient(fname, dtype=float, **kwargs):
        dtype = np.dtype(dtype)
        ints = [name for name in dtype.names or () if dtype[name] == np.int64]
        if not ints:
            return loadtxt(fname, dtype=dtype, **kwargs)
        as_float = np.dtype([(name, np.float64 if name in ints else dtype[name])
                             for name in dtype.names])
        table = loadtxt(fname, dtype=as_float, **kwargs)
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        with np.errstate(invalid="ignore"):
            return table.astype(dtype)
    return lenient


class TestMalformedRowsNameFileAndLine:
    @pytest.mark.parametrize("which,row", [
        (0, "u1,2.0"),
        (0, "u1,abc,1.0"),
        (0, "u1,1.0,2.0,3.0"),
        (1, "u1,1.0"),
        (1, "u1,1.0,x"),
        (1, "u1,1_000,2.0"),  # float() takes '_' separators, np.loadtxt does not
        (2, "u1,1"),
        (2, "u1,1.5,0.0,1.0"),
        (2, "u1,1,0.0,abc"),
    ])
    def test_reproductions(self, tmp_path, which, row):
        paths = saved_paths(tmp_path)
        replace_line(paths[which], 2, "", insert=True)  # a blank line still counts
        replace_line(paths[which], 3, row, insert=True)
        with pytest.raises(ValueError) as err:
            load_dataset(*paths)
        assert f"{paths[which]}: line 4:" in str(err.value)

    # numpy 1.23 to 1.26 np.loadtxt reads an int64 field such as '1.5' as 1
    # and 'nan' as INT64_MIN, with only a DeprecationWarning; the loader must
    # reject them under the default warning filters whichever numpy it runs on
    @pytest.mark.filterwarnings("default")
    @pytest.mark.parametrize("s", ["1.5", "2.0", "1e0", "nan", "inf", "-inf",
                                   "9223372036854775808"])
    @pytest.mark.parametrize("index", [1, 30])  # u1's first and u3's last curve row
    @pytest.mark.parametrize("lenient", [False, True])
    def test_non_integer_s_names_line(self, tmp_path, monkeypatch, s, index, lenient):
        if lenient:
            monkeypatch.setattr(np, "loadtxt", _truncating_loadtxt(np.loadtxt))
        paths = saved_paths(tmp_path)
        lines = paths[2].read_text().splitlines()
        uid, _, r, z = lines[index].split(",")
        replace_line(paths[2], index, f"{uid},{s},{r},{z}")
        with pytest.raises(ValueError) as err:
            load_dataset(*paths)
        assert f"{paths[2]}: line {index + 1}: non-numeric field" in str(err.value)

    @given(st.integers(0, 2), st.data())
    @settings(max_examples=80, deadline=None)
    def test_corrupt_row_property(self, tmp_path_factory, which, data):
        paths = saved_paths(tmp_path_factory.mktemp("csv"))
        lines = paths[which].read_text().splitlines()
        index = data.draw(st.integers(1, len(lines) - 1))
        fields = lines[index].split(",")
        how = data.draw(st.sampled_from(["drop", "extra", "token"]))
        if how == "drop":
            fields = fields[:data.draw(st.integers(1, len(fields) - 1))]
        elif how == "extra":
            fields.append(data.draw(st.sampled_from(["1", "", "x"])))
        else:
            fields[data.draw(st.integers(1, len(fields) - 1))] = data.draw(
                st.sampled_from(BAD_NUMBERS))
        replace_line(paths[which], index, ",".join(fields))
        with pytest.raises(ValueError) as err:
            load_dataset(*paths)
        assert f"{paths[which]}: line {index + 1}:" in str(err.value)

    @given(st.integers(0, 2), st.data(),
           st.text(alphabet='u0123456789.,-eax "\n', max_size=16))
    @settings(max_examples=120, deadline=None)
    def test_any_row_loads_or_raises_value_error(self, tmp_path_factory, which, data, text):
        paths = saved_paths(tmp_path_factory.mktemp("csv"))
        n_lines = len(paths[which].read_text().splitlines())
        replace_line(paths[which], data.draw(st.integers(1, n_lines - 1)), text)
        try:
            load_dataset(*paths)
        except ValueError:
            pass

    def test_undecodable_bytes_name_file(self, tmp_path):
        paths = saved_paths(tmp_path)
        paths[1].write_bytes(paths[1].read_bytes() + b"u9,\xff\xfe\n")
        with pytest.raises(ValueError, match="unreadable CSV") as err:
            load_dataset(*paths)
        assert str(paths[1]) in str(err.value)


# ids the row oracle and the columnar loader must read alike: natural order
# (u2 before u10), quoted ids holding commas or doubled quotes, ids longer
# than 32 characters and ids starting with '#'
UNIT_IDS = st.one_of(
    st.integers(0, 120).map(lambda k: f"u{k}"),
    st.sampled_from(['a,b', 'say "hi"', '"q"', ',lead', 'x, "y", z']),
    st.integers(33, 60).map(lambda n: "L" * n),
    st.sampled_from(["#1", "#u2", "# note", "#"]),
)


# dataset edits and the tables (responses, scalars, curves) each may touch;
# a repeated scalars row is left out, the one input the loaders differ on
EDITS = {"drop": (0, 1, 2), "repeat": (0, 2), "drop_curve": (2,),
         "stray": (2,),  # a curve point with a covariate index outside 1..S
         "shift": (2,)}  # a curve point moved off the grid


# covariate index texts int() reads, so both loaders must take them alike
S_TEXT = st.sampled_from(["{}", " {} ", "+{}", "0{}"])


def _number(value, style):
    return {"repr": repr(value), "e": f"{value:.6e}", "g": f"{value:.17g}",
            "pad": f" {value!r} "}[style]


@st.composite
def dataset_files(draw, directory):
    """Three dataset CSVs as text: ragged series, shuffled rows, blank lines,
    CRLF or LF line ends, S in {0, 1, 2}; up to three edits to one unit's
    rows (a row or a whole curve dropped, a row repeated, a curve point
    moved off the grid or given a covariate index outside 1..S), so both
    loaders must also reject alike."""
    ids = draw(st.lists(UNIT_IDS, min_size=1, max_size=5, unique=True))
    n_p, n_s, n_r = draw(st.integers(0, 2)), draw(st.sampled_from([0, 1, 2])), draw(st.integers(1, 4))
    finite = st.floats(-1e6, 1e6, allow_nan=False, width=64)
    style = st.sampled_from(["repr", "e", "g", "pad"])
    r_style = draw(style)  # one grid text for every curve
    s_text = draw(S_TEXT)  # one index text, so edits keep whole curves apart
    grid = sorted(set(draw(st.lists(finite, min_size=n_r, max_size=n_r))))
    responses, scalars, curves = [], [], []
    for uid in ids:
        times = sorted(set(draw(st.lists(finite, min_size=1, max_size=6))))
        responses += [[uid, _number(t, draw(style)), _number(draw(finite), draw(style))]
                      for t in times]
        scalars.append([uid] + [_number(draw(finite), draw(style)) for _ in range(n_p)])
        curves += [[uid, s_text.format(s), _number(r, r_style), _number(draw(finite), draw(style))]
                   for s in range(1, n_s + 1) for r in grid]
    tables = [responses, scalars, curves]
    victim = draw(st.sampled_from(ids))  # every edit hits one unit, so errors combine
    for edit in draw(st.lists(st.sampled_from(sorted(EDITS)), max_size=3)):
        which = draw(st.sampled_from(EDITS[edit]))
        own = [row for row in tables[which] if row[0] == victim]
        if not own:
            continue
        row = draw(st.sampled_from(own))
        if edit == "drop":
            tables[which].remove(row)
        elif edit == "drop_curve":
            tables[which] = [r for r in tables[which] if r[:2] != row[:2]]
        elif edit == "repeat":
            tables[which].append(row)
        elif edit == "stray":
            tables[which].append([row[0], str(draw(st.sampled_from([0, n_s + 1]))), *row[2:]])
        else:
            tables[which].remove(row)
            tables[which].append([*row[:2], repr(float(row[2]) + 0.5), row[3]])
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    headers = (["unit_id", "time", "y"], ["unit_id"] + [f"x{p}" for p in range(1, n_p + 1)],
               ["unit_id", "s", "r", "z"])
    paths = []
    for name, header, rows in zip(("responses.csv", "scalars.csv", "curves.csv"), headers, tables):
        rows = draw(st.permutations(rows))
        blanks = draw(st.lists(st.integers(0, len(rows)), max_size=2))
        path = directory / name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator=ending)
            writer.writerow(header)
            for i, row in enumerate(rows):
                fh.write(ending * blanks.count(i))
                writer.writerow(row)
            fh.write(ending * blanks.count(len(rows)))
        paths.append(path)
    return paths


def _load(loader, paths):
    try:
        return loader(*paths)
    except ValueError as exc:
        return str(exc)


def assert_loaders_agree(paths):
    """The columnar loader returns the row oracle's units bit for bit, or
    both raise the same ValueError."""
    new, old = _load(load_dataset, paths), _load(load_dataset_rows, paths)
    if isinstance(old, str) or isinstance(new, str):
        assert new == old
        return
    assert old.r_grid.tobytes() == new.r_grid.tobytes()
    assert [u.unit_id for u in old.units] == [u.unit_id for u in new.units]
    for a, b in zip(old.units, new.units):
        for name in ("times", "responses", "scalars", "curves"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), (a.unit_id, name)


class TestColumnarLoaderMatchesRowOracle:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_units_bit_identical_or_same_error(self, tmp_path_factory, data):
        assert_loaders_agree(data.draw(dataset_files(tmp_path_factory.mktemp("csv"))))

    @pytest.mark.parametrize("which,drop,add", [
        (2, (), ["u2,3,1.0,0.5"]),                 # an index beyond 1..S on a later unit
        (2, (), ["u2,0,1.0,0.5"]),                 # index 0
        (2, ("u2,1,", "u2,2,0.0,"), []),           # u2: s=1 missing, s=2 short
        (2, ("u3,2,1.0,",), ["u3,2,1.5,0.25"]),    # u3: a point off the grid
        (2, ("u3,1,4.0,",), ["u3,1,3.0,0.25"]),    # u3: a grid point twice
        (2, ("u1,2,",), []),                       # u1: a whole curve missing
        (0, (), ["u2,2.5,0.0"]),                   # u2: a repeated time
        (2, ("u",), []),                           # header only: S = 0, and no warning
    ])
    def test_edited_files(self, tmp_path, which, drop, add):
        paths = saved_paths(tmp_path)
        lines = [ln for ln in paths[which].read_text().splitlines() if not ln.startswith(drop)]
        paths[which].write_text("\n".join(lines + add) + "\n")
        assert_loaders_agree(paths)
