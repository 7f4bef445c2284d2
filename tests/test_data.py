import numpy as np
import pytest
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


class TestMalformedRowsNameFileAndLine:
    @pytest.mark.parametrize("which,row", [
        (0, "u1,2.0"),
        (0, "u1,abc,1.0"),
        (0, "u1,1.0,2.0,3.0"),
        (1, "u1,1.0"),
        (1, "u1,1.0,x"),
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
