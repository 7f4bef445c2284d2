import csv
import json
import math
import os
import tracemalloc
import warnings
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from _oracles import load_dataset_rows, stack_units, write_csv_rows
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import degramix.data
from degramix.data import (
    BasisFamily,
    DegradationDataset,
    ModelConfig,
    UnitRecord,
    basis_columns,
    center_baseline,
    config_from_dict,
    config_to_dict,
    first_repeat,
    _unit_sort_key,
    load_dataset,
    save_dataset,
    write_csv,
    write_json,
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
    return stack_units(units, np.linspace(0.0, 4.0, grid_size))


def full_basis(order, times):
    return basis_columns(BasisFamily("polynomial", order), np.asarray(times, dtype=float),
                         range(order + 1))


class TestEvaluateBasis:
    """The time basis phi_l(t) = t**l as ``basis_columns`` evaluates it: one
    row per time, one column per level."""

    def test_order_one(self):
        assert np.array_equal(full_basis(1, [3.0, -1.5]), [[1.0, 3.0], [1.0, -1.5]])

    def test_order_two(self):
        assert np.array_equal(full_basis(2, [2.0, 0.5]), [[1.0, 2.0, 4.0], [1.0, 0.5, 0.25]])

    def test_zero_time(self):
        assert np.array_equal(full_basis(1, [0.0]), [[1.0, 0.0]])
        assert np.array_equal(basis_columns(BasisFamily("polynomial", 2), [0.0, 2.0], (1, 2)),
                              [[0.0, 0.0], [2.0, 4.0]])

    @given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=4), st.integers(0, 5))
    def test_first_element_is_one(self, times, order):
        assert np.all(full_basis(order, times)[:, 0] == 1.0)


class TestCenterBaseline:
    def test_subtracts_first_response(self):
        ds = stack_units((make_unit(responses=(5.0, 7.0, 10.0)),), np.arange(5.0))
        centered = center_baseline(ds)
        assert np.array_equal(centered.units[0].responses, [0.0, 2.0, 5.0])

    def test_single_observation(self):
        ds = stack_units((make_unit(times=(1.0,), responses=(4.0,)),), np.arange(5.0))
        assert np.array_equal(center_baseline(ds).units[0].responses, [0.0])

    def test_each_unit_from_its_own_first_response(self):
        ds = stack_units((make_unit("u1", times=(1.0,), responses=(4.0,)),
                          make_unit("u2", responses=(5.0, 7.0, 10.0)),
                          make_unit("u3", times=(0.0, 2.0), responses=(-1.0, 1.5))),
                         np.arange(5.0))
        assert np.array_equal(center_baseline(ds).responses, [0.0, 0.0, 2.0, 5.0, 0.0, 2.5])

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 8))
        ds = stack_units(
            (make_unit(times=np.arange(m, dtype=float), responses=rng.normal(size=m)),),
            np.arange(5.0),
        )
        once = center_baseline(ds)
        twice = center_baseline(once)
        assert np.array_equal(once.units[0].responses, twice.units[0].responses)
        assert once.units[0].responses[0] == 0.0


def stack_one(*args, **kwargs):
    return stack_units((make_unit(*args, **kwargs),), np.arange(5.0))


class TestValidation:
    def test_non_increasing_times_rejected(self):
        with pytest.raises(ValueError, match="non-increasing times"):
            stack_one(times=(1.0, 1.0, 2.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stack_one(times=(1.0, 2.0), responses=(1.0,))

    def test_non_finite_scalars_rejected(self):
        with pytest.raises(ValueError, match="unit u7: non-finite scalar"):
            stack_one("u7", scalars=(1.0, np.nan))

    def test_non_finite_curves_rejected(self):
        curves = np.arange(5, dtype=float)[None, :]
        curves[0, 2] = np.inf
        with pytest.raises(ValueError, match="unit u8: non-finite functional"):
            stack_one("u8", curves=curves)

    @pytest.mark.parametrize("field,value", [("times", np.inf), ("responses", np.nan)])
    def test_non_finite_measurement_rejected(self, field, value):
        arrays = dict(unit_ids=("u1", "u2", "u3"), counts=[2, 2, 2],
                      times=np.tile([0.0, 1.0], 3), responses=np.zeros(6),
                      scalars=np.zeros((3, 1)), curves=np.zeros((3, 1, 5)),
                      r_grid=np.arange(5.0))
        arrays[field][3] = value  # u2's last time, so its times still rise
        with pytest.raises(ValueError, match="^unit u2: non-finite measurement$"):
            DegradationDataset(**arrays)

    def test_duplicate_id_is_the_first_met_twice(self):
        n = 6
        with pytest.raises(ValueError, match="^duplicate unit id b$"):
            DegradationDataset(("a", "b", "c", "b", "a", "c"), np.ones(n, int), np.zeros(n),
                               np.zeros(n), np.zeros((n, 1)), np.zeros((n, 0, 0)), np.zeros(0))

    @given(st.lists(st.sampled_from("abcdef")))
    def test_first_repeat_is_the_first_id_seen_before(self, ids):
        seen_before = [u for i, u in enumerate(ids) if u in ids[:i]]
        assert first_repeat(ids) == (seen_before[0] if seen_before else None)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="unit u9: needs at least one measurement"):
            stack_one("u9", times=(), responses=())

    def test_ragged_grid_rejected(self):
        u1 = make_unit("u1", grid_size=6)
        u2 = make_unit("u2", grid_size=6)
        with pytest.raises(ValueError, match="unit u1: ragged"):
            stack_units((u1, u2), np.arange(5.0))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            stack_units((), np.arange(5.0))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            stack_units((make_unit("u1"), make_unit("u1")), np.arange(5.0))

    def test_first_bad_unit_named_with_its_first_broken_rule(self):
        units = [make_unit("u1"), make_unit("u2", scalars=(np.nan,)),
                 make_unit("u3", times=(2.0, 1.0, 3.0))]
        with pytest.raises(ValueError, match="^unit u2: non-finite scalar"):
            stack_units(units, np.arange(5.0))
        units[1] = make_unit("u2", times=(1.0, 1.0, 2.0), responses=(np.nan, 1.0, 2.0),
                             scalars=(np.nan,))
        with pytest.raises(ValueError, match="^non-increasing times for unit u2$"):
            stack_units(units, np.arange(5.0))

    def test_fields_frozen(self):
        ds = make_dataset()
        for name in ("counts", "times", "responses", "scalars", "curves", "r_grid"):
            with pytest.raises(ValueError):
                getattr(ds, name)[0] = 0


class TestStackedLayout:
    def test_units_view_the_arrays(self):
        units = [make_unit("u1", times=(0.0, 1.0), responses=(1.0, 2.0), scalars=(3.0, 4.0)),
                 make_unit("u2", times=(0.5,), responses=(5.0,), scalars=(6.0, 7.0))]
        ds = stack_units(units, np.arange(5.0))
        assert ds.unit_ids == ("u1", "u2") and ds.counts.tolist() == [2, 1]
        assert ds.offsets.tolist() == [0, 2, 3] and ds.unit_rows.tolist() == [0, 0, 1]
        assert ds.n_obs == 3 and ds.curves.shape == (2, 1, 5)
        for a, b in zip(ds.units, units):
            for name in ("unit_id", "times", "responses", "scalars"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_select_keeps_units_in_order(self):
        ds = make_dataset(n=4)
        part = ds.select([True, False, False, True])
        assert part.unit_ids == ("u1", "u4")
        assert np.array_equal(part.times, np.concatenate([ds.units[0].times, ds.units[3].times]))
        assert np.array_equal(part.curves, ds.curves[[0, 3]])


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
        ds = stack_units(units, np.arange(5.0))
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
        with pytest.raises(ValueError) as err:
            load_dataset(*paths)
        assert str(err.value) == f"{paths[0]}: non-increasing times for unit u1"

    def test_ragged_curve_grid(self, tmp_path):
        ds = make_dataset()
        paths = (tmp_path / "r.csv", tmp_path / "s.csv", tmp_path / "c.csv")
        save_dataset(ds, *paths)
        lines = paths[2].read_text().splitlines()
        paths[2].write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="ragged"):
            load_dataset(*paths)

    @pytest.mark.parametrize("column", [1, 2])
    def test_non_finite_measurement_rejected(self, tmp_path, column):
        paths = saved_paths(tmp_path)
        lines = paths[0].read_text().splitlines()
        fields = lines[6].split(",")  # u2's last measurement
        assert fields[0] == "u2"
        fields[column] = "inf" if column == 1 else "nan"
        replace_line(paths[0], 6, ",".join(fields))
        with pytest.raises(ValueError) as err:
            load_dataset(*paths)
        assert str(err.value) == f"{paths[0]}: unit u2: non-finite measurement"

    @pytest.mark.parametrize("which, index, column, message", [
        (1, 2, 2, "unit u2: non-finite scalar covariate"),
        (2, 13, 3, "unit u2: non-finite functional covariate curve"),
    ])
    def test_non_finite_covariate_names_its_file(self, tmp_path, which, index, column, message):
        paths = saved_paths(tmp_path)
        fields = paths[which].read_text().splitlines()[index].split(",")
        assert fields[0] == "u2"
        fields[column] = "nan"
        replace_line(paths[which], index, ",".join(fields))
        for loader in (load_dataset, load_dataset_rows):
            with pytest.raises(ValueError) as err:
                loader(*paths)
            assert str(err.value) == f"{paths[which]}: {message}"

    def test_ids_that_need_quoting_reload_bit_exactly(self, tmp_path):
        ids = sorted(["a,b", 'say "hi"', "two\nlines", "cr\rid", "u1"], key=_unit_sort_key)
        units = [make_unit(uid, times=(0.0, 1e-5, 1e16), responses=(-0.0, 5e-324, 0.1 * i),
                           scalars=(-0.0, 1e16), curves=np.array([[-0.0, 5e-324, 1.0 + i]]),
                           grid_size=3)
                 for i, uid in enumerate(ids)]
        ds = stack_units(units, np.array([-0.0, 1e-5, 2.5]))
        paths = (tmp_path / "r.csv", tmp_path / "s.csv", tmp_path / "c.csv")
        save_dataset(ds, *paths)
        loaded = load_dataset(*paths)
        assert loaded.unit_ids == ds.unit_ids
        for name in ("counts", "times", "responses", "scalars", "curves", "r_grid"):
            assert getattr(loaded, name).tobytes() == getattr(ds, name).tobytes(), name

    def test_units_sorted_numerically(self, tmp_path):
        ds = make_dataset(n=11)
        paths = (tmp_path / "r.csv", tmp_path / "s.csv", tmp_path / "c.csv")
        save_dataset(ds, *paths)
        loaded = load_dataset(*paths)
        assert [u.unit_id for u in loaded.units] == [f"u{i}" for i in range(1, 12)]

    def test_ids_equal_as_numbers_load_in_one_order(self, tmp_path):
        # u001, u01 and u1 compare equal by number, so their text decides;
        # the row oracle shares the sort key, so the order is written out here
        units = [make_unit(uid, scalars=(float(i),)) for i, uid in
                 enumerate(("u1", "u01", "u2", "u001"))]
        for name, order in (("given", units), ("reversed", units[::-1])):
            paths = tuple(tmp_path / f"{name}_{n}.csv" for n in ("r", "s", "c"))
            save_dataset(stack_units(order, np.arange(5.0)), *paths)
            loaded = load_dataset(*paths)
            assert loaded.unit_ids == ("u001", "u01", "u1", "u2"), name
            assert loaded.scalars[:, 0].tolist() == [3.0, 1.0, 0.0, 2.0], name


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
        save_dataset(stack_units(units, np.arange(5.0)), *paths)
        with open(paths[1], "a") as fh:
            fh.write("u01,99.0\n")
        with pytest.raises(ValueError) as err:
            load_dataset(*paths)
        assert f"{paths[1]}: unit u01 is listed more than once" in str(err.value)


FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5]),
    st.floats(width=64))
TEXTS = st.text(st.one_of(st.characters(blacklist_categories=("Cs", "Cc")),
                          st.sampled_from(',"\r\n')), max_size=5)
# what each column kind holds, and how it reaches write_csv: floats, ints,
# text as a list (a str array) or an object array, and an object array
# mixing text and floats as the comparison table's columns do
COLUMN_KINDS = {
    "float": (FLOATS, lambda v: np.array(v, dtype=float)),
    "int": (st.integers(-2**63, 2**63 - 1), lambda v: np.array(v, dtype=np.int64)),
    "text": (TEXTS, list),
    "object": (TEXTS, lambda v: np.array(v, dtype=object)),
    "mixed": (st.one_of(TEXTS, FLOATS), lambda v: np.array(v, dtype=object)),
}
SMALL_BLOCK = 4


@st.composite
def csv_columns(draw):
    """A header, its columns as write_csv takes them and the same table as
    rows of Python values: 2-4 columns of 0, 1, block - 1, block or
    block + 1 rows for a block of SMALL_BLOCK rows, each column drawing
    some values from a small pool so that values repeat."""
    n = draw(st.sampled_from([0, 1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1]))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=2, max_size=4))
    values = []
    for kind in kinds:
        strategy = COLUMN_KINDS[kind][0]
        pool = draw(st.lists(strategy, min_size=1, max_size=2))
        values.append(draw(st.lists(st.one_of(strategy, st.sampled_from(pool)),
                                    min_size=n, max_size=n)))
    header = [f"c{i}" for i in range(len(kinds))]
    return header, [COLUMN_KINDS[k][1](v) for k, v in zip(kinds, values)], list(zip(*values))


class TestWriteCsv:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_as_row_oracle(self, tmp_path_factory, data):
        header, columns, rows = data.draw(csv_columns())
        directory = tmp_path_factory.mktemp("write")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(degramix.data, "_BLOCK_ROWS", SMALL_BLOCK)
            write_csv(directory / "columns.csv", header, columns)
        write_csv_rows(directory / "rows.csv", header, rows)
        assert (directory / "columns.csv").read_bytes() == (directory / "rows.csv").read_bytes()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_same_bytes_at_the_block_boundary(self, tmp_path, offset):
        n = degramix.data._BLOCK_ROWS + offset
        rng = np.random.default_rng(offset + 2)
        ids = np.repeat(np.array(["a,b", "u1", 'say "hi"'], dtype=object),
                        [n // 2, n // 4, n - n // 2 - n // 4])
        x = rng.integers(-40, 40, size=n) / 8.0  # repeats, with -0.0 beside 0.0
        x[::5] = -0.0
        columns = [ids, x, rng.normal(size=n), np.arange(n)]
        header = ["unit_id", "x", "y", "i"]
        write_csv(tmp_path / "columns.csv", header, columns)
        write_csv_rows(tmp_path / "rows.csv", header, zip(*(c.tolist() for c in columns)))
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_peak_memory_does_not_grow_with_rows(self, tmp_path, monkeypatch):
        block = 256
        monkeypatch.setattr(degramix.data, "_BLOCK_ROWS", block)

        def peak(n):
            rng = np.random.default_rng(0)
            columns = [np.repeat(np.array([f"u{i}" for i in range(n // 8)], dtype=object), 8),
                       np.tile(np.arange(8.0), n // 8), rng.normal(size=n), np.arange(n)]
            tracemalloc.start()
            try:
                write_csv(tmp_path / "t.csv", ["unit_id", "r", "y", "i"], columns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(4 * block), peak(64 * block)
        assert large < 1.25 * small, (small, large)

    def test_rejects_columns_that_do_not_match_the_header(self, tmp_path):
        with pytest.raises(ValueError, match="one equal-length 1-d column per header field"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])
        with pytest.raises(ValueError, match="one equal-length 1-d column per header field"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3)])


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

    @pytest.mark.parametrize("rows,line,s", [
        (["u2,3,1.0,0.5", "u3,0,1.0,0.5"], 32, 3),
        (["u3,0,1.0,0.5"], 32, 0),
        (["u1,1,9.0,0.5", "u3,+03,1.0,0.5"], 33, 3),  # u1's stray point is a grid error
    ])
    def test_covariate_index_outside_1_to_s_names_line(self, tmp_path, rows, line, s):
        # a later unit's curve row with an index outside the 1..S that the
        # first unit fixes (S = 2 here) is rejected, not dropped
        paths = saved_paths(tmp_path)
        with open(paths[2], "a") as fh:
            fh.write("\n".join(rows) + "\n")
        for loader in (load_dataset, load_dataset_rows):
            with pytest.raises(ValueError) as err:
                loader(*paths)
            assert str(err.value) == f"{paths[2]}: line {line}: covariate index s={s} outside 1..2"

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
         "shift": (2,),  # a curve point moved off the grid
         "nonfinite": (0, 1, 2)}  # a y, a scalar or a z set to nan, inf or -inf


# row orders of the drawn files: as save_dataset writes them (units in
# natural order, then time, or s and r), grouped by unit in that order but
# shuffled within each unit, or fully permuted
ROW_ORDERS = ["saved", "grouped", "permuted"]


# covariate index texts int() reads, so both loaders must take them alike
S_TEXT = st.sampled_from(["{}", " {} ", "+{}", "0{}"])


def _number(value, style):
    return {"repr": repr(value), "e": f"{value:.6e}", "g": f"{value:.17g}",
            "pad": f" {value!r} "}[style]


@st.composite
def dataset_files(draw, directory):
    """Three dataset CSVs as text: ragged series, blank lines, CRLF or LF
    line ends, S in {0, 1, 2}; up to three edits (a row or a whole curve
    dropped, a row repeated, a curve point moved off the grid or given a
    covariate index outside 1..S, all to one unit's rows; a y, a scalar or a
    z of any unit made non-finite), so both loaders must also reject alike.
    The rows come in one of ``ROW_ORDERS``."""
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
        # a non-finite value may hit any unit, so the order of units counts too
        unit = draw(st.sampled_from(ids)) if edit == "nonfinite" else victim
        own = [row for row in tables[which] if row[0] == unit]
        if not own:
            continue
        row = draw(st.sampled_from(own))
        if edit == "drop":
            tables[which].remove(row)
        elif edit == "drop_curve":
            tables[which] = [r for r in tables[which] if r[:2] != row[:2]]
        elif edit == "repeat":
            tables[which].append(row)
        elif edit == "nonfinite":
            if len(row) > 1:  # y and z are last; a scalars row may hold none
                column = draw(st.integers(1, len(row) - 1)) if which == 1 else -1
                row[column] = draw(st.sampled_from(["nan", "inf", "-inf"]))
        elif edit == "stray":
            tables[which].append([row[0], str(draw(st.sampled_from([0, n_s + 1]))), *row[2:]])
        else:
            tables[which].remove(row)
            tables[which].append([*row[:2], repr(float(row[2]) + 0.5), row[3]])
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    headers = (["unit_id", "time", "y"], ["unit_id"] + [f"x{p}" for p in range(1, n_p + 1)],
               ["unit_id", "s", "r", "z"])
    order = draw(st.sampled_from(ROW_ORDERS))
    rank = {uid: i for i, uid in enumerate(sorted(ids, key=_unit_sort_key))}
    keys = (lambda row: (rank[row[0]], float(row[1])), lambda row: rank[row[0]],
            lambda row: (rank[row[0]], int(row[1]), float(row[2])))
    paths = []
    for name, header, rows, key in zip(("responses.csv", "scalars.csv", "curves.csv"), headers,
                                       tables, keys):
        if order == "permuted":
            rows = draw(st.permutations(rows))
        elif order == "saved":
            rows = sorted(rows, key=key)
        else:
            rows = [row for uid in rank for row in draw(st.permutations(
                [row for row in rows if row[0] == uid]))]
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
        (2, (), ["u2,3,1.0,0.5"]),                 # an index beyond 1..S on a later unit: rejected
        (2, (), ["u2,0,1.0,0.5"]),                 # index 0: rejected
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


class TestLoaderWorksOnlyAsTheRowsNeed:
    """On files in save_dataset's order np.loadtxt reads by path and nothing
    is sorted; a file holding a CR byte is read from the open file, and rows
    out of order are sorted back to the same arrays."""

    @staticmethod
    def _counted_load(monkeypatch, paths):
        sorts, sources = [], []
        lexsort, loadtxt = np.lexsort, np.loadtxt

        def counted_lexsort(*args, **kwargs):
            sorts.append(1)
            return lexsort(*args, **kwargs)

        def recorded_loadtxt(fname, *args, **kwargs):
            sources.append(fname)
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(np, "lexsort", counted_lexsort)
        monkeypatch.setattr(np, "loadtxt", recorded_loadtxt)
        return load_dataset(*paths), len(sorts), sources

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_in_order_rows_are_not_sorted(self, tmp_path, monkeypatch, ending):
        # ids that need quoting, one spanning two lines, and units whose
        # natural order (u2 before u10) is not their text order
        ids = sorted(["a,b", 'say "hi"', "two\nlines", "u10", "u2"], key=_unit_sort_key)
        ds = stack_units([make_unit(uid, responses=(5.0, 7.0, i), scalars=(1.0, -0.0),
                                    curves=np.arange(10.0).reshape(2, 5) * i)
                          for i, uid in enumerate(ids)], np.linspace(0.0, 4.0, 5))
        saved = tmp_path / "saved"
        saved.mkdir()
        paths = tuple(saved / n for n in ("responses.csv", "scalars.csv", "curves.csv"))
        save_dataset(ds, *paths)
        if ending != "\n":  # the line ends only: the quoted newline stays LF
            for path in paths:
                with open(path, newline="", encoding="utf-8") as fh:
                    rows = list(csv.reader(fh))
                with open(path, "w", newline="", encoding="utf-8") as fh:
                    csv.writer(fh, lineterminator=ending).writerows(rows)
        loaded, sorts, sources = self._counted_load(monkeypatch, paths)
        assert sorts == 0 and len(sources) == 3
        if ending == "\n":
            assert sources == list(paths)
        else:  # universal newlines would turn a quoted CR into LF
            assert not any(isinstance(s, (str, os.PathLike)) for s in sources)

        shuffled = tmp_path / "shuffled"
        shuffled.mkdir()
        rng = np.random.default_rng(0)
        for path in paths:
            with open(path, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            with open(shuffled / path.name, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh, lineterminator=ending).writerows(
                    [header, *(rows[i] for i in rng.permutation(len(rows)))])
        again, sorts, _ = self._counted_load(monkeypatch, [shuffled / p.name for p in paths])
        assert sorts == 2  # the responses and the curves
        for got in (loaded, again):
            assert got.unit_ids == ds.unit_ids
            for name in ("counts", "times", "responses", "scalars", "curves", "r_grid"):
                assert getattr(got, name).tobytes() == getattr(ds, name).tobytes(), name

    def test_plain_text_named_gz_is_read_as_text(self, tmp_path):
        # np.loadtxt given this path would open it through gzip
        ds = make_dataset()
        paths = [tmp_path / n for n in ("responses.csv", "scalars.csv", "curves.csv")]
        save_dataset(ds, *paths)
        named_gz = tmp_path / "responses.csv.gz"
        named_gz.write_bytes(paths[0].read_bytes())
        assert_same_load(load_dataset(named_gz, *paths[1:]), load_dataset(*paths))


def assert_same_load(got, want):
    """Two loads return bit-identical datasets, or raise the same ValueError."""
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    assert got.unit_ids == want.unit_ids
    for name in ("counts", "times", "responses", "scalars", "curves", "r_grid"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


class TestLoaderReadsCurvesOnlyForUnscoredUnits:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_skip_or_full_load(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("csv")
        paths = data.draw(dataset_files(directory))
        with open(paths[0], newline="", encoding="utf-8") as fh:
            named = sorted({row[0] for row in islice(csv.reader(fh), 1, None) if row})
        header_only = directory / "header_only.csv"
        header_only.write_text("unit_id,s,r,z\n")
        # every unit scored (and maybe others): the curves file goes unread
        extra = data.draw(st.lists(UNIT_IDS, max_size=2))
        want = _load(load_dataset, [*paths[:2], header_only])
        for curves, scored in ((paths[2], named + extra), (None, None), (None, ())):
            assert_same_load(_load(lambda *p: load_dataset(*p, scored=scored),
                                   [*paths[:2], curves]), want)
        # one unit the caller holds no scores for: the full load
        if named:
            unscored = data.draw(st.sampled_from(named))
            scored = [u for u in named if u != unscored]
            assert_same_load(_load(lambda *p: load_dataset(*p, scored=scored), paths),
                             _load(load_dataset, paths))

    def test_unread_curves_file_need_not_exist(self, tmp_path):
        paths = saved_paths(tmp_path)
        ds = load_dataset(paths[0], paths[1], tmp_path / "absent.csv", scored=["u1", "u2", "u3"])
        assert ds.n_functional == 0 and ds.curves.shape == (3, 0, 0) and ds.r_grid.size == 0
        with pytest.raises(FileNotFoundError):
            load_dataset(paths[0], paths[1], tmp_path / "absent.csv", scored=["u1", "u2"])


def dumps_reference(payload) -> str:
    """What ``write_json`` must write: ``json``'s own indented, key-sorted
    text, with numpy values as their ``tolist()``."""
    def default(obj):
        if isinstance(obj, (np.ndarray, np.generic)):
            return obj.tolist()
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    return json.dumps(payload, indent=2, sort_keys=True, default=default) + "\n"


JSON_TEXT = st.one_of(st.text(max_size=6),
                      st.sampled_from(['"', "\\", "\n", "\x00\x1f", "\x7f", "ü1", "日5",
                                       "\u2028", "\U0001f600", 'q"2', "a,b3", "x 6"]))
JSON_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e-5, math.nan, math.inf, -math.inf, 0.1]))
JSON_ARRAYS = st.one_of(
    hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)),
    st.sampled_from([(0,), (3, 0), (2, 0, 3), (0, 2)]).map(np.zeros),
    hnp.arrays(np.float64, st.sampled_from([(2, 3), (3, 1, 2), (1, 1, 1)]), elements=JSON_FLOATS))
JSON_LEAVES = st.one_of(
    JSON_TEXT, st.booleans(), st.none(), st.integers(), JSON_FLOATS,
    st.integers(-2**63, 2**63 - 1).map(np.int64), JSON_FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32), JSON_ARRAYS)
JSON_PAYLOADS = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=3).map(tuple),
                               st.dictionaries(JSON_TEXT, children, max_size=4)),
    max_leaves=12)


class TestWriteJson:
    @given(JSON_PAYLOADS)
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_json_dumps(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("json") / "out.json"
        write_json(path, payload)
        assert path.read_bytes() == dumps_reference(payload).encode("ascii")

    @pytest.mark.parametrize("bad", [object(), 1j, {1, 2}, b"x", np.array([1j]),
                                     np.array([object()], dtype=object)])
    def test_what_json_rejects_raises_type_error(self, tmp_path, bad):
        payload = {"a": [1.5, {"b": bad}]}
        with pytest.raises(TypeError):
            dumps_reference(payload)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            write_json(tmp_path / "out.json", payload)
