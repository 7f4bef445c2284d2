import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as scipy_fft
from scipy import ndimage

from degramix import descriptors
from degramix.descriptors import (
    MicrostructureImage,
    ParticleSet,
    _half_plane_displacements,
    _next_fast_len,
    _tpc_counts_fft,
    _tpc_rows,
    _tpc_table,
    binarize_image,
    compute_rdf,
    compute_tpc,
    extract_particles,
    load_particles_csv,
    load_pgm,
)
from _oracles import (
    flood_fill_component_count,
    load_particles_by_line,
    rdf_pair_enumeration,
    tpc_counts_direct,
    tpc_counts_full_fft,
    tpc_pair_enumeration,
)


def image_from_mask(mask):
    mask = np.asarray(mask, dtype=bool)
    return MicrostructureImage(mask.astype(float), phase_mask=mask)


def ndimage_centroids(mask):
    """(x, y) of each 4-connected component, in scipy.ndimage's label order."""
    labels, n = ndimage.label(mask, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    centers = ndimage.center_of_mass(mask, labels, range(1, n + 1))
    return np.array([(col, row) for row, col in centers]).reshape(-1, 2)


def serpentine(n):
    """An n x n mask of one component: every other column, joined alternately
    at the top and the bottom row, so its path runs up and down n/2 times."""
    mask = np.zeros((n, n), dtype=bool)
    mask[:, ::2] = True
    mask[0, 1::4] = mask[-1, 3::4] = True
    return mask


class TestBinarize:
    def test_all_high(self):
        img = binarize_image(MicrostructureImage(np.full((4, 4), 0.9)), 0.5)
        assert img.phase_mask.all()

    def test_all_low(self):
        img = binarize_image(MicrostructureImage(np.full((4, 4), 0.1)), 0.5)
        assert not img.phase_mask.any()

    def test_gradient_fraction_matches_pixel_count(self):
        grid = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        img = binarize_image(MicrostructureImage(grid), 0.5)
        assert img.phase_mask.sum() == np.count_nonzero(grid >= 0.5)

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            binarize_image(MicrostructureImage(np.zeros((2, 2))), 1.0)

    def test_keeps_validated_intensities_without_checking_again(self, monkeypatch):
        img = MicrostructureImage(np.array([[0.2, 0.8], [0.5, 0.1]]))

        def checked_again(self, *args, **kwargs):
            raise AssertionError("intensities validated a second time")

        monkeypatch.setattr(MicrostructureImage, "__init__", checked_again)
        binary = binarize_image(img, 0.5)
        assert binary.intensities is img.intensities and img.phase_mask is None
        assert binary.phase_mask.tolist() == [[False, True], [True, False]]
        assert not binary.phase_mask.flags.writeable


def threshold_cases(maxval, levels):
    """k / maxval for each level k and its neighbouring doubles, inside (0, 1)."""
    ts = np.concatenate([[k / maxval, np.nextafter(k / maxval, 0.0), np.nextafter(k / maxval, 1.0)]
                         for k in levels])
    return ts[(ts > 0.0) & (ts < 1.0)]


class TestSampleThreshold:
    @pytest.mark.parametrize("maxval", [1, 255, 65535])
    def test_matches_float_threshold_at_every_level(self, tmp_path, maxval):
        dtype = ">u2" if maxval > 255 else "u1"
        levels = np.arange(maxval + 1)
        path = tmp_path / "levels.pgm"
        path.write_bytes(f"P5\n{maxval + 1} 1\n{maxval}\n".encode() + levels.astype(dtype).tobytes())
        img = load_pgm(path)
        ks = levels
        if maxval == 65535:  # every level costs too long; the ends and a sample
            ks = np.union1d(np.random.default_rng(0).choice(levels, 300, replace=False),
                            [0, 1, 2, 32767, 32768, 65533, 65534, 65535])
        for t in threshold_cases(maxval, ks):
            expected = levels / maxval >= t
            assert np.array_equal(binarize_image(img, t).phase_mask[0], expected), t
        assert "intensities" not in vars(img)


class TestIntensityOwnership:
    def test_writable_caller_array_is_copied(self):
        grid = np.array([[0.2, 0.8], [0.5, 0.1]])
        img = MicrostructureImage(grid)
        grid[0, 0] = 0.9
        assert img.intensities[0, 0] == 0.2
        assert not img.intensities.flags.writeable

    def test_read_only_view_is_copied(self):
        # the view does not own its data: its writable base could change it
        base = np.array([[0.2, 0.8], [0.5, 0.1]])
        view = base[:, :]
        view.setflags(write=False)
        img = MicrostructureImage(view)
        base[0, 0] = 0.9
        assert img.intensities[0, 0] == 0.2

    def test_owned_read_only_grid_is_copied(self):
        # its owner may make it writable again and overwrite checked values
        grid = np.array([[0.2, 0.8], [0.5, 0.1]])
        grid.setflags(write=False)
        img = MicrostructureImage(grid)
        grid.setflags(write=True)
        grid[0, 0] = 0.9
        assert img.intensities[0, 0] == 0.2


class TestTpc:
    def test_all_true_saturates(self):
        curve = compute_tpc(image_from_mask(np.ones((16, 16))), 6)
        assert np.array_equal(curve.values, np.ones(7))

    def test_all_false_is_zero(self):
        curve = compute_tpc(image_from_mask(np.zeros((16, 16))), 6)
        assert np.array_equal(curve.values, np.zeros(7))

    def test_zero_lag_equals_phase_fraction(self):
        rng = np.random.default_rng(5)
        mask = rng.random((20, 20)) < 0.4
        curve = compute_tpc(image_from_mask(mask), 4)
        assert curve.values[0] == mask.sum() / mask.size

    @pytest.mark.parametrize("periodic", [False, True])
    def test_matches_pair_enumeration_bitwise(self, periodic):
        rng = np.random.default_rng(11)
        for _ in range(5):
            h, w = rng.integers(8, 21, size=2)
            mask = rng.random((h, w)) < rng.uniform(0.2, 0.8)
            r_max = int(min(h, w) // 2 - 1)
            got = compute_tpc(image_from_mask(mask), r_max, periodic=periodic)
            expected = tpc_pair_enumeration(mask, r_max, periodic=periodic)
            assert np.array_equal(got.values, expected)

    def test_transpose_invariance_square_window(self):
        rng = np.random.default_rng(2)
        mask = rng.random((18, 18)) < 0.35
        a = compute_tpc(image_from_mask(mask), 6, periodic=False)
        b = compute_tpc(image_from_mask(mask.T), 6, periodic=False)
        assert np.array_equal(a.values, b.values)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_values_bounded(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((10, 12)) < rng.uniform(0.1, 0.9)
        curve = compute_tpc(image_from_mask(mask), 4)
        assert np.all(curve.values >= 0.0) and np.all(curve.values <= 1.0)

    def test_requires_mask(self):
        with pytest.raises(ValueError, match="phase mask"):
            compute_tpc(MicrostructureImage(np.zeros((8, 8))), 3)

    def test_r_max_window_guard(self):
        with pytest.raises(ValueError, match="half"):
            compute_tpc(image_from_mask(np.ones((8, 8))), 4)

    @pytest.mark.parametrize("r_max", [2.5, np.float64(0.5)])
    def test_fractional_r_max_is_rejected_not_truncated(self, r_max):
        with pytest.raises(ValueError) as err:
            compute_tpc(image_from_mask(np.ones((16, 16))), r_max)
        assert str(err.value) == f"r_max must be a whole number of pixels, got {r_max}"


class TestExtractParticles:
    def test_symmetric_block_centroid(self):
        mask = np.zeros((12, 12), dtype=bool)
        mask[4:7, 4:7] = True
        ps = extract_particles(image_from_mask(mask))
        assert ps.n_particles == 1
        assert np.allclose(ps.coordinates[0], (5.0, 5.0))

    def test_two_disjoint_blocks(self):
        mask = np.zeros((12, 12), dtype=bool)
        mask[1:3, 1:3] = True
        mask[8:10, 8:10] = True
        assert extract_particles(image_from_mask(mask)).n_particles == 2

    def test_l_shape_centroid_matches_pixel_mean(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[2:6, 2] = True
        mask[5, 2:5] = True
        ps = extract_particles(image_from_mask(mask))
        rows, cols = np.nonzero(mask)
        assert ps.n_particles == 1
        assert np.allclose(ps.coordinates[0], (cols.mean(), rows.mean()))

    def test_empty_mask(self):
        assert extract_particles(image_from_mask(np.zeros((5, 5)))).n_particles == 0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_count_matches_flood_fill(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((12, 12)) < 0.35
        got = extract_particles(image_from_mask(mask)).n_particles
        assert got == flood_fill_component_count(mask)

    @given(st.integers(0, 10 ** 6),
           st.sampled_from([(40, 56), (1, 300), (300, 1), (2, 400), (400, 3), (7, 900)]))
    @settings(max_examples=30, deadline=None)
    def test_centroids_match_ndimage_bitwise(self, seed, shape):
        rng = np.random.default_rng(seed)
        mask = rng.random(shape) < rng.uniform(0.2, 0.8)
        assert np.array_equal(extract_particles(image_from_mask(mask)).coordinates,
                              ndimage_centroids(mask))

    @pytest.mark.parametrize("mask", [
        np.ones((30, 41), dtype=bool),
        np.ones((1, 50), dtype=bool),
        np.ones((50, 1), dtype=bool),
        np.eye(1, 60, 59, dtype=bool),
        # each row's run ends on the right edge and the next row's starts on
        # the left: consecutive in raster order, yet not 4-connected
        np.array([[0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0], [1, 1, 1, 1]], dtype=bool),
        # full rows: runs that cover both edges, stacked
        np.array([[1, 1, 1], [1, 1, 1], [0, 0, 0], [1, 1, 1], [0, 1, 0]], dtype=bool),
        serpentine(64),
        serpentine(64).T,
    ], ids=["all_true", "1xN", "Nx1", "one_pixel_at_the_end", "row_wrap", "full_rows",
            "serpentine", "serpentine_rows"])
    def test_edge_shapes_match_ndimage(self, mask):
        assert np.array_equal(extract_particles(image_from_mask(mask)).coordinates,
                              ndimage_centroids(mask))

    def test_serpentine_2048_is_one_component(self):
        # ~2.1M one-pixel runs in one component whose path doubles back
        # 1024 times: labelling must finish
        mask = serpentine(2048)
        ps = extract_particles(image_from_mask(mask))
        assert np.array_equal(ps.coordinates, ndimage_centroids(mask))

    def test_diagonal_pixels_are_separate(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        assert extract_particles(image_from_mask(mask)).n_particles == 2


class TestRdf:
    def test_single_particle_degenerate(self):
        ps = ParticleSet([[0.5, 0.5]], (1.0, 1.0))
        curve = compute_rdf(ps, 0.2, 0.05)
        assert curve.degenerate
        assert np.array_equal(curve.values, np.zeros_like(curve.values))

    def test_no_interior_reference_degenerate(self):
        ps = ParticleSet([[0.01, 0.01], [0.99, 0.99]], (1.0, 1.0))
        curve = compute_rdf(ps, 0.4, 0.1)
        assert curve.degenerate

    def test_two_interior_particles_hand_value(self):
        # both particles interior, separated by exactly 0.5 along x
        ps = ParticleSet([[1.0, 1.25], [1.5, 1.25]], (2.5, 2.5))
        curve = compute_rdf(ps, 1.0, 0.1)
        m, m_int = 2, 2
        kappa = m / (2.5 * 2.5)
        area5 = np.pi * (0.6 ** 2 - 0.5 ** 2)
        expected = 2 / (m_int * kappa * area5)  # one pair seen from each reference
        nonzero = np.flatnonzero(curve.values)
        assert list(nonzero) == [5]
        assert curve.values[5] == pytest.approx(expected, rel=1e-12)

    def test_uniform_points_near_unity(self):
        rng = np.random.default_rng(42)
        ps = ParticleSet(rng.random((2000, 2)), (1.0, 1.0))
        curve = compute_rdf(ps, 0.1, 0.01)
        band = curve.values[2:10]  # bins covering [0.02, 0.1)
        assert np.all(band >= 0.9) and np.all(band <= 1.1)

    def test_scale_covariance(self):
        rng = np.random.default_rng(9)
        coords = rng.random((300, 2))
        base = compute_rdf(ParticleSet(coords, (1.0, 1.0)), 0.1, 0.01)
        c = 2.0
        scaled = compute_rdf(ParticleSet(coords * c, (c, c)), 0.1 * c, 0.01 * c)
        assert np.allclose(base.values, scaled.values, rtol=1e-12, atol=0.0)

    def test_exchangeable_identity(self):
        # binned estimator equals V*(M-1)/M times the tagged-particle bin
        # density averaged over reference/other pairs
        rng = np.random.default_rng(21)
        coords = rng.random((400, 2))
        ps = ParticleSet(coords, (1.0, 1.0))
        r_max, dr = 0.1, 0.02
        curve = compute_rdf(ps, r_max, dr)

        m = ps.n_particles
        interior = np.all((coords >= r_max) & (coords <= 1.0 - r_max), axis=1)
        refs = coords[interior]
        m_int = refs.shape[0]
        n_bins = curve.values.size
        density = np.zeros(n_bins)
        areas = np.pi * np.diff((np.arange(n_bins + 1) * dr) ** 2)
        for ref, ref_idx in zip(refs, np.flatnonzero(interior)):
            others = np.delete(coords, ref_idx, axis=0)
            dist = np.hypot(*(others - ref).T)
            counts = np.bincount(np.floor(dist / dr).astype(int)[dist < n_bins * dr],
                                 minlength=n_bins)[:n_bins]
            density += counts / ((m - 1) * areas)
        density /= m_int
        alt = 1.0 * (m - 1) / m * density  # V = 1 for the unit window
        assert np.allclose(curve.values, alt, rtol=1e-12, atol=1e-12)

    def test_r_max_guard(self):
        ps = ParticleSet([[0.5, 0.5], [0.6, 0.6]], (1.0, 1.0))
        with pytest.raises(ValueError, match="half the window"):
            compute_rdf(ps, 0.6, 0.1)

    @pytest.mark.parametrize("r_max, dr, name", [
        (np.nan, 0.1, "r_max"), (np.inf, 0.1, "r_max"), (0.2, np.nan, "dr"), (0.2, -np.inf, "dr"),
    ])
    def test_non_finite_radii_named(self, r_max, dr, name):
        ps = ParticleSet([[0.5, 0.5], [0.6, 0.6]], (1.0, 1.0))
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            compute_rdf(ps, r_max, dr)

    def test_dr_validation(self):
        ps = ParticleSet([[0.5, 0.5], [0.6, 0.6]], (1.0, 1.0))
        with pytest.raises(ValueError):
            compute_rdf(ps, 0.2, 0.0)
        with pytest.raises(ValueError):
            compute_rdf(ps, 0.05, 0.1)


class TestFileFormats:
    def test_load_p2(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n# comment\n3 2\n255\n0 128 255\n64 32 16\n")
        img = load_pgm(path)
        assert img.width == 3 and img.height == 2
        assert img.intensities[0, 1] == pytest.approx(128 / 255)

    def test_load_p5_8bit(self, tmp_path):
        path = tmp_path / "img.pgm"
        payload = bytes([0, 128, 255, 64, 32, 16])
        path.write_bytes(b"P5\n3 2\n255\n" + payload)
        img = load_pgm(path)
        assert img.intensities[1, 0] == pytest.approx(64 / 255)

    def test_load_p5_16bit(self, tmp_path):
        path = tmp_path / "img.pgm"
        vals = np.array([[0, 65535], [32768, 1024]], dtype=">u2")
        path.write_bytes(b"P5\n2 2\n65535\n" + vals.tobytes())
        img = load_pgm(path)
        assert img.intensities[0, 1] == 1.0
        assert img.intensities[1, 0] == pytest.approx(32768 / 65535)

    def test_load_p5_2048_builds_no_float_grid(self, tmp_path):
        # the image keeps the samples as a view of the bytes read; a float
        # grid would be 8 times the payload
        path = tmp_path / "big.pgm"
        pixels = np.random.default_rng(8).integers(0, 256, size=(2048, 2048), dtype=np.uint8)
        path.write_bytes(b"P5\n2048 2048\n255\n" + pixels.tobytes())
        tracemalloc.start()
        try:
            img = load_pgm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * pixels.nbytes
        assert np.array_equal(img.pixels, pixels) and img.maxval == 255

    def test_width_height_and_binarize_build_no_float_grid(self, tmp_path):
        path = tmp_path / "big.pgm"
        pixels = np.random.default_rng(9).integers(0, 256, size=(2048, 2048), dtype=np.uint8)
        path.write_bytes(b"P5\n2048 2048\n255\n" + pixels.tobytes())
        img = load_pgm(path)
        tracemalloc.start()
        try:
            assert (img.width, img.height) == (2048, 2048)
            binary = binarize_image(img, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * pixels.nbytes  # the mask is one payload; the grid is eight
        assert np.array_equal(binary.phase_mask, pixels / 255 >= 0.5)

    @pytest.mark.parametrize("maxval, dtype", [(255, "u1"), (65535, ">u2")])
    def test_intensities_built_on_access(self, tmp_path, maxval, dtype):
        path = tmp_path / "img.pgm"
        pixels = np.random.default_rng(maxval).integers(0, maxval + 1, size=(6, 7)).astype(dtype)
        path.write_bytes(f"P5\n7 6\n{maxval}\n".encode() + pixels.tobytes())
        img = load_pgm(path)
        grid = img.intensities
        assert grid.dtype == np.float64
        assert grid.tobytes() == (pixels / maxval).tobytes()
        assert not grid.flags.writeable and img.intensities is grid

    def test_tpc_pipeline_at_2048_peaks_below_64_mib(self, tmp_path, cold_spectrum):
        # with a float grid alive through compute_tpc the peak is ~83 MiB
        path = tmp_path / "big.pgm"
        rng = np.random.default_rng(10)
        pixels = np.where(rng.random((2048, 2048)) < 0.4, 220, 30).astype(np.uint8)
        path.write_bytes(b"P5\n2048 2048\n255\n" + pixels.tobytes())
        tracemalloc.start()
        try:
            curve = compute_tpc(binarize_image(load_pgm(path), 0.5), 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert curve.values[0] == np.count_nonzero(pixels == 220) / pixels.size

    def test_p2_p5_agree(self, tmp_path):
        rng = np.random.default_rng(13)
        vals = rng.integers(0, 256, size=(4, 5))
        ascii_path = tmp_path / "a.pgm"
        ascii_path.write_text("P2\n5 4\n255\n" + "\n".join(
            " ".join(str(v) for v in row) for row in vals) + "\n")
        bin_path = tmp_path / "b.pgm"
        bin_path.write_bytes(b"P5\n5 4\n255\n" + vals.astype("u1").tobytes())
        p2, p5 = load_pgm(ascii_path), load_pgm(bin_path)
        assert p2.pixels.dtype == p5.pixels.dtype and np.array_equal(p2.pixels, p5.pixels)
        assert np.array_equal(p2.intensities, p5.intensities)

    def test_particles_csv(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("# window 2.0 3.0\nx,y\n0.5,0.25\n1.5,2.75\n")
        ps = load_particles_csv(path)
        assert ps.window == (2.0, 3.0)
        assert np.array_equal(ps.coordinates, [[0.5, 0.25], [1.5, 2.75]])

    def test_particles_csv_missing_window(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n0.5,0.25\n")
        with pytest.raises(ValueError, match="window"):
            load_particles_csv(path)


def pairs_per_radius(shape, rrs, n_pairs):
    """The pixel pairs of each radius from the pairs of each displacement."""
    pairs = np.zeros(rrs.max(initial=0) + 1, dtype=np.int64)
    pairs[0] = shape[0] * shape[1]
    np.add.at(pairs, rrs, 2 * n_pairs)
    return pairs


class TestTpcFftEquivalence:
    @pytest.mark.parametrize("periodic", [False, True])
    def test_fft_matches_direct_bitwise(self, periodic):
        rng = np.random.default_rng(31)
        for _ in range(6):
            h, w = (int(n) for n in rng.integers(20, 70, size=2))
            mask = rng.random((h, w)) < rng.uniform(0.2, 0.8)
            r_max = min(h, w) // 2 - 1
            table = _tpc_table(h, w, r_max, periodic)
            dys, dxs, rrs = _half_plane_displacements(r_max)
            hit, n_pairs = tpc_counts_direct(mask, dys, dxs, periodic)
            assert np.array_equal(_tpc_counts_fft(mask, table), hit)
            assert np.array_equal(table.flat, dys * table.sw + dxs % table.sw)
            assert np.array_equal(table.radius, rrs)
            assert np.array_equal(table.pairs, pairs_per_radius((h, w), rrs, n_pairs))


class TestTpcTable:
    def test_alternating_shapes_match_pair_enumeration_bitwise(self):
        # one table is kept, so every change of shape, radius or mode
        # rebuilds it; each curve must still be the oracle's
        rng = np.random.default_rng(41)
        masks = {shape: rng.random(shape) < 0.4 for shape in ((12, 17), (20, 14))}
        runs = [((12, 17), 5, False), ((20, 14), 6, False), ((12, 17), 5, False),
                ((12, 17), 5, True), ((12, 17), 3, True), ((20, 14), 6, True),
                ((20, 14), 6, False), ((12, 17), 5, False)]
        _tpc_table.cache_clear()
        for shape, r_max, periodic in runs:
            got = compute_tpc(image_from_mask(masks[shape]), r_max, periodic=periodic)
            expected = tpc_pair_enumeration(masks[shape], r_max, periodic=periodic)
            assert got.values.tobytes() == expected.tobytes(), (shape, r_max, periodic)
        assert _tpc_table.cache_info().hits == 0

    def test_images_of_one_shape_share_the_table(self):
        rng = np.random.default_rng(42)
        _tpc_table.cache_clear()
        for _ in range(3):
            compute_tpc(image_from_mask(rng.random((16, 16)) < 0.5), 4)
        assert _tpc_table.cache_info()[:2] == (2, 1)  # hits, misses

    def test_table_arrays_are_read_only(self):
        table = _tpc_table(30, 40, 9, False)
        for name in ("flat", "radius", "pairs"):
            arr = getattr(table, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


class TestTpcBlocks:
    # 400 x 530 spans several row and column blocks, the last one partial,
    # at both radii and on both the padded and the periodic plane
    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("r_max", [30, 199])
    def test_blocked_matches_full_plane_bitwise(self, periodic, r_max):
        h, w = 400, 530
        table = _tpc_table(h, w, r_max, periodic)
        for n in (h, table.sw // 2 + 1):
            assert n > 2 * table.block and n % table.block
        rng = np.random.default_rng(r_max)
        mask = ndimage.gaussian_filter(rng.standard_normal((h, w)), 2.0) > 0.3
        dys, dxs, rrs = _half_plane_displacements(r_max)
        got = _tpc_counts_fft(mask, table)
        full = tpc_counts_full_fft(mask, dys, dxs, periodic, r_max)
        assert np.array_equal(got, full[0])
        assert np.array_equal(table.pairs, pairs_per_radius((h, w), rrs, full[1]))
        if r_max == 30:
            assert np.array_equal(got, tpc_counts_direct(mask, dys, dxs, periodic)[0])

    def test_padded_lengths_match_scipy_next_fast_len(self):
        assert ([_next_fast_len(n) for n in range(1, 20_001)]
                == [scipy_fft.next_fast_len(n) for n in range(1, 20_001)])

    def test_small_tile_is_one_block(self):
        table = _tpc_table(128, 128, 20, False)
        assert table.block >= max(128, table.sw // 2 + 1)

    def test_memory_is_one_half_spectrum(self, cold_spectrum):
        # the full-plane route peaks near 104 MiB here: a padded float plane,
        # a complex spectrum and its power; one half-spectrum is ~35 MiB
        rng = np.random.default_rng(21)
        img = image_from_mask(rng.random((2048, 2048)) < 0.4)
        tracemalloc.start()
        try:
            curve = compute_tpc(img, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert curve.values[0] == np.count_nonzero(img.phase_mask) / img.phase_mask.size


@pytest.fixture
def small_blocks(monkeypatch):
    """TPC blocks of a few hundred bytes, so masks of tens of pixels span
    many of them; the table that memoises the block size is dropped before
    and after."""
    monkeypatch.setattr(descriptors, "_TPC_BLOCK_BYTES", 512)
    _tpc_table.cache_clear()
    yield
    _tpc_table.cache_clear()


@pytest.fixture
def cold_spectrum():
    """Empties the half-spectrum buffer that TPC keeps between calls, so the
    next TPC allocates its own and a memory bound measures a first call;
    the fixture's value empties it again."""
    def empty():
        descriptors._tpc_half = np.empty(0, dtype=complex)

    empty()
    return empty


def rfft_threads(monkeypatch, n):
    """The set of threads that run a row transform from now on.  Each
    thread's first transform waits until n threads have started one, so a
    thread that claims no block times the test out."""
    seen, rfft, all_in = set(), np.fft.rfft, threading.Barrier(n)

    def spy(*args, **kwargs):
        name = threading.current_thread().name
        if name not in seen:
            seen.add(name)
            all_in.wait(timeout=30)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", spy)
    return seen


class TestTpcThreads:
    # the row and column blocks run on one thread per usable CPU;
    # _usable_cpus is patched to unpinned slots, so several threads run on
    # any host
    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("cpus", [2, 3, 8])
    def test_threads_match_direct_bitwise(self, small_blocks, monkeypatch, periodic, cpus):
        # more threads than cores, switching every few bytecodes: a thread
        # writing outside the blocks it claimed would change a count
        monkeypatch.setattr(descriptors, "_usable_cpus", lambda: [None] * cpus)
        seen = rfft_threads(monkeypatch, cpus)
        rng = np.random.default_rng(61 + cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(4):
                h, w = (int(n) for n in rng.integers(20, 70, size=2))
                mask = rng.random((h, w)) < rng.uniform(0.2, 0.8)
                r_max = min(h, w) // 2 - 1
                table = _tpc_table(h, w, r_max, periodic)
                dys, dxs, _ = _half_plane_displacements(r_max)
                seen.clear()
                got = _tpc_counts_fft(mask, table)
                assert len(seen) == cpus
                assert np.array_equal(got, tpc_counts_direct(mask, dys, dxs, periodic)[0])
        finally:
            sys.setswitchinterval(interval)

    def test_a_late_thread_takes_fewer_blocks(self, small_blocks, monkeypatch):
        # blocks go to whichever thread asks first, so a thread held up on
        # every block leaves the rest to the others, not half of them; the
        # calling thread only waits
        blocks, rfft, late = {}, np.fft.rfft, []

        def late_worker(*args, **kwargs):
            thread = threading.current_thread()
            blocks[thread] = blocks.get(thread, 0) + 1
            with lock:
                if not late:
                    late.append(thread)
            if thread is late[0]:
                time.sleep(0.05)
            return rfft(*args, **kwargs)

        lock = threading.Lock()
        monkeypatch.setattr(descriptors, "_usable_cpus", lambda: [None, None])
        monkeypatch.setattr(np.fft, "rfft", late_worker)
        mask = np.random.default_rng(66).random((60, 70)) < 0.5
        dys, dxs, _ = _half_plane_displacements(20)
        got = _tpc_counts_fft(mask, _tpc_table(60, 70, 20, False))
        assert np.array_equal(got, tpc_counts_direct(mask, dys, dxs, False)[0])
        assert threading.main_thread() not in blocks
        assert len(blocks) == 2 and sum(blocks.values()) == 60
        assert blocks[late[0]] < 60 // 2

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                        reason="needs two usable CPUs")
    def test_each_thread_keeps_to_its_own_usable_cpu(self, small_blocks, monkeypatch):
        # a kernel that never moves a thread would leave the threads on one
        # CPU, taking turns; the caller's own affinity stays as it was
        usable = os.sched_getaffinity(0)
        cpus = descriptors._usable_cpus()
        assert cpus == sorted(usable)
        cpus = cpus[:3]
        monkeypatch.setattr(descriptors, "_usable_cpus", lambda: cpus)
        rfft_threads(monkeypatch, len(cpus))  # every thread takes a block
        affinity, rfft = {}, np.fft.rfft

        def spy(*args, **kwargs):
            affinity.setdefault(threading.current_thread(), os.sched_getaffinity(0))
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", spy)
        _tpc_counts_fft(np.ones((40, 50), dtype=bool), _tpc_table(40, 50, 10, False))
        assert threading.main_thread() not in affinity
        assert os.sched_getaffinity(0) == usable
        assert sorted(affinity.values(), key=min) == [{cpu} for cpu in cpus]

    def test_without_cpu_affinity_threads_run_unpinned(self, small_blocks, monkeypatch):
        # a platform with no affinity calls has os.cpu_count() threads; with
        # both calls gone, a thread that tried to pin itself would fail
        for name in ("sched_getaffinity", "sched_setaffinity"):
            monkeypatch.delattr(os, name, raising=False)
        rng, rfft = np.random.default_rng(67), np.fft.rfft
        for n in (2, 3):
            monkeypatch.setattr(os, "cpu_count", lambda: n)
            assert descriptors._usable_cpus() == [None] * n
            monkeypatch.setattr(np.fft, "rfft", rfft)
            seen = rfft_threads(monkeypatch, n)
            mask = rng.random((50, 60)) < 0.5
            dys, dxs, _ = _half_plane_displacements(15)
            got = _tpc_counts_fft(mask, _tpc_table(50, 60, 15, False))
            assert np.array_equal(got, tpc_counts_direct(mask, dys, dxs, False)[0])
            assert len(seen) == n and threading.main_thread().name not in seen

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("h, w, r_max", [(400, 530, 60), (401, 530, 200)])
    def test_rows_are_the_same_bytes_for_one_and_two_threads(self, monkeypatch, periodic,
                                                             h, w, r_max):
        # at the default block size both shapes span several blocks; at an
        # odd height and the largest radius the rows and their inverse
        # reach past the half-spectrum
        rng = np.random.default_rng(62)
        mask = rng.random((h, w)) < 0.45
        table = _tpc_table(h, w, r_max, periodic)
        rows = {}
        for cpus in (1, 2):
            monkeypatch.setattr(descriptors, "_usable_cpus", lambda: [None] * cpus)
            rows[cpus] = _tpc_rows(mask, table)
        assert rows[1].shape == table.flat.shape
        assert rows[1].tobytes() == rows[2].tobytes()

    def test_one_block_image_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started or pinned for a one-block image")

        monkeypatch.setattr(descriptors, "_usable_cpus", lambda: [0, 1, 2, 3])
        monkeypatch.setattr(threading, "Thread", no_thread)
        monkeypatch.setattr(os, "sched_setaffinity", no_thread, raising=False)
        mask = np.random.default_rng(63).random((128, 128)) < 0.5
        dys, dxs, _ = _half_plane_displacements(20)
        got = _tpc_counts_fft(mask, _tpc_table(128, 128, 20, False))
        assert np.array_equal(got, tpc_counts_direct(mask, dys, dxs, False)[0])

    @pytest.mark.parametrize("fails", ["second call", "last thread"])
    def test_thread_error_is_raised_after_every_thread_ends(self, small_blocks, monkeypatch,
                                                            fails):
        # a thread that failed unseen would leave its blocks of the rows
        # unwritten, giving wrong counts without an error.  Every other
        # transform sleeps first, so other threads are still running when
        # the failure comes; they claim no block after it.  The last thread
        # to take a block fails on its first one, after the others began
        calls, ihfft = [], np.fft.ihfft

        def fails_once(*args, **kwargs):
            with lock:
                calls.append(threading.current_thread())
                if fails == "second call":
                    failing = len(calls) == 2
                else:
                    failing = calls.count(calls[-1]) == 1 and len(set(calls)) == 3
            if failing:
                raise FloatingPointError("injected")
            time.sleep(0.005)
            return ihfft(*args, **kwargs)

        lock = threading.Lock()
        monkeypatch.setattr(descriptors, "_usable_cpus", lambda: [None] * 3)
        monkeypatch.setattr(np.fft, "ihfft", fails_once)
        baseline = threading.active_count()
        mask = np.random.default_rng(64).random((60, 70)) < 0.5
        table = _tpc_table(60, 70, 20, False)
        with pytest.raises(FloatingPointError, match="injected"):
            compute_tpc(image_from_mask(mask), 20)
        assert threading.active_count() == baseline
        assert not descriptors._tpc_half_lock.locked()
        assert len(calls) < (table.sw // 2 + 1) // 2  # of 46 column blocks

    def test_memory_does_not_grow_with_the_threads(self, monkeypatch, cold_spectrum):
        # the peak falls in the column stage: the kept buffer, which also
        # takes the rows and their inverse, and ~3.6 MB of column buffers,
        # which two full-size blocks would double; the threads themselves
        # add a few kB.  Each call is a first one, which allocates the buffer
        rng = np.random.default_rng(65)
        mask = rng.random((1024, 1024)) < 0.4
        table = _tpc_table(1024, 1024, 100, False)
        peaks = {}
        for cpus in (1, 2):
            monkeypatch.setattr(descriptors, "_usable_cpus", lambda: [None] * cpus)
            cold_spectrum()
            tracemalloc.start()
            try:
                _tpc_counts_fft(mask, table)
                peaks[cpus] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2] <= peaks[1] + 2 ** 16


def kept_entries(h, table):
    """The complex entries a TPC of an h-row mask needs in the kept buffer:
    its (h, sw/2+1) half-spectrum, or its (r_max+1, sw/2+1) rows followed by
    their (r_max+1, sw) float inverse, whichever is larger."""
    nc, n_dy = table.sw // 2 + 1, table.pairs.size
    return max(h * nc, n_dy * nc + (n_dy * table.sw + 1) // 2)


class TestTpcKeptSpectrum:
    # one buffer is kept for the process, at the size of the largest TPC so
    # far: it holds the half-spectrum, then the rows in its first rows and
    # their x inverse after them.  A smaller TPC uses a prefix of it

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_alternating_tpcs_match_direct_bitwise(self, small_blocks, cold_spectrum,
                                                   monkeypatch, cpus):
        # the buffer grows, is reused by a smaller TPC right after a larger
        # one, and never shrinks; small blocks run each TPC on all ``cpus``
        # threads.  The TPCs of an odd height at the largest radius, the first among
        # them, need more than their half-spectrum
        monkeypatch.setattr(descriptors, "_usable_cpus", lambda: [None] * cpus)
        rng = np.random.default_rng(70)
        odd = {(41, 60): 20, (57, 57): 28, (45, 90): 22}
        shapes = (*odd, (40, 50), (120, 150), (90, 64))
        masks = {shape: rng.random(shape) < 0.45 for shape in shapes}
        runs = [((41, 60), 20, True), ((57, 57), 28, False), ((40, 50), 12, False),
                ((45, 90), 22, True), ((120, 150), 30, False), ((40, 50), 12, False),
                ((41, 60), 20, False), ((57, 57), 28, True), ((40, 50), 12, True),
                ((90, 64), 25, True), ((45, 90), 22, False), ((120, 150), 20, True),
                ((90, 64), 25, False), ((120, 150), 30, False), ((40, 50), 8, False)]
        largest = 0
        for shape, r_max, periodic in runs:
            table = _tpc_table(*shape, r_max, periodic)
            dys, dxs, _ = _half_plane_displacements(r_max)
            got = _tpc_counts_fft(masks[shape], table)
            expected = tpc_counts_direct(masks[shape], dys, dxs, periodic)[0]
            assert np.array_equal(got, expected), (shape, r_max, periodic)
            largest = max(largest, kept_entries(shape[0], table))
            assert descriptors._tpc_half.size == largest
        for (h, w), r_max in odd.items():
            for periodic in (False, True):
                table = _tpc_table(h, w, r_max, periodic)
                assert kept_entries(h, table) > h * (table.sw // 2 + 1)

    def test_a_failed_allocation_leaves_a_usable_buffer(self, cold_spectrum, monkeypatch):
        # the buffer is dropped before a larger one is taken; if taking it
        # fails, the next TPC must still find a buffer to grow
        empty = np.empty

        def fails_once(shape, *args, **kwargs):
            if np.prod(shape) > 0:
                monkeypatch.setattr(np, "empty", empty)
                raise MemoryError("injected")
            return empty(shape, *args, **kwargs)

        mask = np.random.default_rng(73).random((30, 40)) < 0.5
        table = _tpc_table(30, 40, 10, False)
        monkeypatch.setattr(np, "empty", fails_once)
        with pytest.raises(MemoryError, match="injected"):
            _tpc_counts_fft(mask, table)
        assert np.empty is empty
        assert not descriptors._tpc_half_lock.locked()
        dys, dxs, _ = _half_plane_displacements(10)
        got = _tpc_counts_fft(mask, table)
        assert np.array_equal(got, tpc_counts_direct(mask, dys, dxs, False)[0])
        assert descriptors._tpc_half.size == kept_entries(30, table)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_a_warm_call_allocates_neither_rows_nor_their_inverse(self, periodic):
        # a wide image has large rows and small column blocks: its rows alone
        # are ~1.7 MB and their inverse as much again, the row buffers 0.5 MiB
        rng = np.random.default_rng(74)
        mask = rng.random((256, 2048)) < 0.4
        table = _tpc_table(256, 2048, 100, periodic)
        rows_bytes = table.pairs.size * (table.sw // 2 + 1) * 16
        _tpc_counts_fft(mask, table)
        tracemalloc.start()
        try:
            _tpc_counts_fft(mask, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows_bytes

    def test_concurrent_tpcs_get_the_bytes_of_serial_calls(self, monkeypatch):
        # both callers fit in the buffer a larger TPC left.  Each caller's
        # column stage first waits up to 1 s for the other's: without the
        # lock both would by then have written their row stage into the one
        # buffer, each over the other; with it the first wait times out.
        # The first caller's hits then wait for the second caller's: were
        # they a view of the buffer, read once the lock is free, the second
        # caller's stages would have overwritten them
        monkeypatch.setattr(descriptors, "_usable_cpus", lambda: [None])
        rng = np.random.default_rng(71)
        compute_tpc(image_from_mask(rng.random((400, 530)) < 0.5), 60)
        cases = [(rng.random((300, 410)) < 0.4, 40, False),
                 (rng.random((260, 350)) < 0.5, 40, True)]
        serial = [compute_tpc(image_from_mask(mask), r_max, periodic).values.tobytes()
                  for mask, r_max, periodic in cases]
        both_in, both_out = threading.Barrier(2), threading.Barrier(2)
        column_rows, rows = descriptors._tpc_column_rows, descriptors._tpc_rows

        def wait(barrier):
            try:
                barrier.wait(timeout=1)
            except threading.BrokenBarrierError:
                pass

        def column_spy(*args, **kwargs):
            wait(both_in)
            return column_rows(*args, **kwargs)

        def rows_spy(*args, **kwargs):
            hits = rows(*args, **kwargs)
            wait(both_out)
            return hits

        monkeypatch.setattr(descriptors, "_tpc_column_rows", column_spy)
        monkeypatch.setattr(descriptors, "_tpc_rows", rows_spy)
        got = [None, None]

        def run(i):
            mask, r_max, periodic = cases[i]
            got[i] = compute_tpc(image_from_mask(mask), r_max, periodic).values.tobytes()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert got == serial

    def test_a_second_call_allocates_no_half_spectrum(self, cold_spectrum):
        rng = np.random.default_rng(72)
        mask = rng.random((1024, 1024)) < 0.4
        table = _tpc_table(1024, 1024, 100, False)
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                _tpc_counts_fft(mask, table)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] - 1024 * (table.sw // 2 + 1) * 16


def rdf_matches_oracle(coords, window, r_max, dr):
    ps = ParticleSet(coords, window)
    got = compute_rdf(ps, r_max, dr)
    assert not got.degenerate
    expected = rdf_pair_enumeration(ps.coordinates, ps.window, r_max, dr)
    assert np.array_equal(got.values, expected)
    return got


class TestRdfPairEnumeration:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_points_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        w, h = rng.uniform(5.0, 20.0, size=2)
        m = int(rng.integers(40, 160))
        coords = rng.random((m, 2)) * (w, h)
        r_max = float(rng.uniform(0.1, 0.45)) * min(w, h)
        dr = r_max / float(rng.uniform(3.0, 12.0))
        rdf_matches_oracle(coords, (w, h), r_max, dr)

    @pytest.mark.parametrize("dr", [1.0, 0.5, 0.25])
    def test_integer_lattice_on_bin_edges(self, dr):
        # lattice distances 1, 2, 3, 4 and the reach 5 itself are bin edges
        ys, xs = np.mgrid[0:12, 0:12]
        coords = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
        got = rdf_matches_oracle(coords, (11.0, 11.0), 5.0, dr)
        assert np.count_nonzero(got.values) > 0

    def test_coincident_particles(self):
        rng = np.random.default_rng(7)
        base = rng.random((50, 2)) * 10.0
        coords = np.vstack([base, base[:20], base[:5]])
        got = rdf_matches_oracle(coords, (10.0, 10.0), 2.0, 0.25)
        assert got.values[0] > 0.0  # coincident copies land in the first bin

    def test_references_exactly_r_max_from_edge(self):
        r_max = 2.5
        edge = [r_max, 10.0 - r_max]
        refs = [[x, y] for x in edge for y in edge]
        # partners at distance r_max and just inside it, out to the window edge
        partners = [[0.0, r_max], [r_max, 0.0], [10.0, 10.0 - r_max], [r_max + 2.4999, r_max]]
        rng = np.random.default_rng(3)
        coords = np.vstack([refs, partners, rng.random((30, 2)) * 10.0])
        rdf_matches_oracle(coords, (10.0, 10.0), r_max, 0.5)

    @pytest.mark.parametrize("r_max, dr", [(1.0, 0.3), (0.7, 0.2), (0.9, 0.25)])
    def test_dr_not_dividing_r_max(self, r_max, dr):
        rng = np.random.default_rng(11)
        coords = rng.random((150, 2)) * 4.0
        got = rdf_matches_oracle(coords, (4.0, 4.0), r_max, dr)
        assert got.values.size == int(np.floor(r_max / dr))

    @pytest.mark.parametrize("r_max, dr, ref, other", [
        # the tree's distance puts this pair just beyond n_bins * dr
        (8.38293146591274, 1.1975616379875345,
         [50.91057889880887, 50.86753147305248], [55.03630402089336, 43.5701393238535]),
        # the tree's distance and np.hypot fall on different sides of a bin edge
        (6.732655185893089, 1.3465310371786177,
         [50.040973523936195, 50.016527635528526], [45.40735999373295, 45.13203467260489]),
    ])
    def test_pairs_within_ulps_of_an_edge(self, r_max, dr, ref, other):
        rdf_matches_oracle(np.array([ref, other]), (100.0, 100.0), r_max, dr)

    def test_particles_on_the_far_window_edges(self):
        # x = w and y = h are inside the window; references r_max from them
        w, h, r_max = 10.0, 8.0, 2.4
        edge = [[w, 4.0], [5.0, h], [w, h], [w, 0.0], [0.0, h], [w - r_max, 4.0],
                [5.0, h - r_max], [w - r_max, h - r_max], [w - r_max, r_max]]
        rng = np.random.default_rng(5)
        coords = np.vstack([edge, rng.random((60, 2)) * (w, h)])
        rdf_matches_oracle(coords, (w, h), r_max, 0.4)

    @pytest.mark.parametrize("window, dr", [((6.0, 6.0), 0.75), ((10.0, 6.0), 0.5),
                                            ((7.0, 9.0), 0.35)])
    def test_r_max_half_the_shorter_side(self, window, dr):
        # the only references lie on the window's centre line(s)
        w, h = window
        r_max = min(w, h) / 2
        rng = np.random.default_rng(8)
        centre = [[w / 2, h / 2], [r_max, h / 2], [w / 2, r_max], [w - r_max, h - r_max]]
        coords = np.vstack([centre, rng.random((80, 2)) * window])
        rdf_matches_oracle(coords, window, r_max, dr)

    def test_coincident_particles_across_cell_boundaries(self):
        # copies of points on multiples of 1/8 and one ulp below them, on
        # both axes: a reach of 2.4 splits this window into cells 10/8 wide,
        # so every cell boundary has coincident copies on either side
        ticks = np.arange(1, 80) * 0.125
        below = np.nextafter(ticks, 0.0)
        pts = np.array([[a, b] for a in np.concatenate([ticks, below])[::7]
                        for b in np.concatenate([ticks, below])[::5]])
        coords = np.vstack([pts, pts, pts[::3]])
        got = rdf_matches_oracle(coords, (10.0, 10.0), 2.4, 0.4)
        assert got.values[0] > 0.0

    def test_memory_below_pair_squared(self):
        # a dense M_int x M float64 distance array alone would be ~2.9 GB here,
        # more than ten times the bound
        rng = np.random.default_rng(20)
        ps = ParticleSet(rng.random((20_000, 2)) * 2048.0, (2048.0, 2048.0))
        tracemalloc.start()
        try:
            curve = compute_rdf(ps, 50.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 2 ** 20
        assert 0.8 < curve.values[10:].mean() < 1.2


class TestNonFiniteInput:
    def test_nan_coordinate_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ParticleSet([[np.nan, 1.0], [2.0, 3.0]], (10.0, 10.0))

    @pytest.mark.parametrize("window", [(np.nan, 10.0), (10.0, np.inf)])
    def test_non_finite_window_rejected(self, window):
        with pytest.raises(ValueError, match="finite"):
            ParticleSet([[1.0, 1.0]], window)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_intensity_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MicrostructureImage(np.array([[bad, 0.5], [0.1, 0.2]]))

    def test_nan_row_in_particle_csv_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("# window 10 10\nx,y\n1,2\nnan,2\n")
        with pytest.raises(ValueError, match="finite") as err:
            load_particles_csv(path)
        assert str(path) in str(err.value)


VALID_CSV = ["# window 10 10", "x,y", "1,2", "3.5,4", "9,9.5"]


def assert_named_value_error(loader, path):
    with pytest.raises(ValueError) as err:
        loader(path)
    assert str(path) in str(err.value)


def load_or_name_path(loader, path):
    """Load ``path``; a failure must be a ValueError naming the file."""
    try:
        return loader(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return None


class TestMalformedInputNamesFile:
    @pytest.mark.parametrize("lines", [
        VALID_CSV[:2] + ["1,2,3"],
        VALID_CSV[:2] + ["1,abc"],
        ["# window ten 10"] + VALID_CSV[1:],
        VALID_CSV + ["4"],
        VALID_CSV + ["1,2", "3,4,5", "6,7"],
        ["# window -1 10"] + VALID_CSV[1:],
        VALID_CSV + ["11,1"],
    ])
    def test_particle_csv(self, tmp_path, lines):
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n")
        assert_named_value_error(load_particles_csv, path)

    def test_particle_csv_names_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("\n".join(VALID_CSV[:3] + ["", "1,abc"]) + "\n")
        with pytest.raises(ValueError, match="line 5"):
            load_particles_csv(path)

    @pytest.mark.parametrize("lines, lineno", [
        (["# window 1_0 10"] + VALID_CSV[1:], 1),
        (VALID_CSV[:3] + ["0_5,2"], 4),
    ])
    def test_particle_csv_rejects_digit_separators(self, tmp_path, lines, lineno):
        # float() reads '0_5' as 5.0 and '1_0' as 10.0; the dataset CSVs reject both
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line {lineno}: non-numeric") as err:
            load_particles_csv(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("text", [
        "P2\n2 1\n255\n0 x\n",
        "P2\nw 1\n255\n0 1\n",
        "P2\n2 1\n25x\n0 1\n",
        "P2\n2 1\n255\n0 300\n",
        "P2\n2 1\n255\n0 nan\n",
        "P7\n2 1\n255\n0 1\n",
        "P2\n2 1\n255\n0 3.5\n",
        "P2\n2 1\n255\n0 -0\n",
        "P2\n2 1\n255\n0 1e2\n",
        # int() reads this header as a 2 x 10 image with maxval 255
        "P2\n+2 1_0\n2_55\n" + "0 " * 20 + "\n",
        "P2\n+2 1\n255\n0 1\n",
        "P5\n2 1\n2_55\n\x00\x01",
    ])
    def test_pgm(self, tmp_path, text):
        path = tmp_path / "img.pgm"
        path.write_text(text)
        assert_named_value_error(load_pgm, path)

    @given(st.integers(2, len(VALID_CSV) - 1),
           st.one_of(st.text(alphabet="0123456789.,-eax ", max_size=12)
                     .filter(lambda t: t.count(",") != 1),
                     st.tuples(st.sampled_from(["1", "", "x", "1e", "--1", "1,2"]),
                               st.sampled_from(["abc", "", "1,2", "0x1", "1..2"]))
                     .map(",".join)))
    @settings(max_examples=60, deadline=None)
    def test_corrupt_csv_row_property(self, tmp_path_factory, row, bad):
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        lines = list(VALID_CSV)
        lines[row] = bad
        path.write_text("\n".join(lines) + "\n")
        if bad.strip():
            assert_named_value_error(load_particles_csv, path)
        else:  # a blank line is skipped
            assert load_particles_csv(path).n_particles == len(VALID_CSV) - 3

    @given(st.one_of(st.binary(max_size=80),
                     st.lists(st.sampled_from(VALID_CSV + ["1,abc", "#", "x,y,z", "1e999,1",
                                                          "# window 0 5"]),
                              max_size=6).map(lambda ls: "\n".join(ls).encode())))
    @settings(max_examples=120, deadline=None)
    def test_any_csv_loads_or_names_file(self, tmp_path_factory, content):
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        path.write_bytes(content)
        load_or_name_path(load_particles_csv, path)

    @pytest.mark.parametrize("rows, message", [
        (["1,2", "3,abc"], "line 4: non-numeric coordinate ['3', 'abc']"),
        (["1,2", "", "1,2,3"], "line 5: expected 2 fields 'x,y', got 3"),
        (["  ", "4"], "line 4: expected 2 fields 'x,y', got 1"),
        (["1,2", "1_0,2"], "line 4: non-numeric coordinate ['1_0', '2']"),
        (["1,2#c"], "line 3: non-numeric coordinate ['1', '2#c']"),
        (['"1",2'], "line 3: non-numeric coordinate ['\"1\"', '2']"),
        (["1,"], "line 3: non-numeric coordinate ['1', '']"),
        (["1,2", "11,1"], "particle coordinates must lie inside the window"),
        (["nan,1"], "particle coordinates must be finite"),
    ])
    def test_particle_csv_error_text(self, tmp_path, rows, message):
        path = tmp_path / "p.csv"
        path.write_text("\n".join(VALID_CSV[:2] + rows) + "\n")
        with pytest.raises(ValueError) as err:
            load_particles_csv(path)
        assert str(err.value) == f"{path}: {message}"

    def test_particle_csv_not_utf8(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"# window 10 10\nx,y\n1,2\n\xff,1\n")
        with pytest.raises(ValueError) as err:
            load_particles_csv(path)
        assert str(err.value) == f"{path}: not UTF-8 text (invalid start byte)"

    @pytest.mark.parametrize("content, message", [
        (b"P5\n4 4\n255\n" + bytes(10), "truncated PGM payload"),
        # past int64, so the sample array cannot be built
        (b"P2\n2 1\n255\n0 99999999999999999999\n", "PGM sample above maxval 255"),
    ])
    def test_pgm_error_text(self, tmp_path, content, message):
        path = tmp_path / "img.pgm"
        path.write_bytes(content)
        with pytest.raises(ValueError) as err:
            load_pgm(path)
        assert str(err.value) == f"{path}: {message}"

    @given(st.sampled_from(["P2", "P5", "P6", "p2"]),
           st.lists(st.sampled_from(["2", "1", "0", "-3", "w", "255", "65536", "1e3", "#c\n"]),
                    min_size=0, max_size=4),
           st.binary(max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_any_pgm_loads_or_names_file(self, tmp_path_factory, magic, header, payload):
        path = tmp_path_factory.mktemp("pgm") / "img.pgm"
        path.write_bytes(" ".join([magic] + header).encode() + b"\n" + payload)
        load_or_name_path(load_pgm, path)

    @given(st.lists(st.sampled_from(["0", "1", "255", "x", "-1", "1.5", "nan", "inf", "256"]),
                    min_size=4, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_p2_samples_load_or_name_file(self, tmp_path_factory, samples):
        path = tmp_path_factory.mktemp("pgm") / "img.pgm"
        path.write_text("P2\n2 2\n255\n" + " ".join(samples) + "\n")
        img = load_or_name_path(load_pgm, path)
        valid = all(s in ("0", "1", "255") for s in samples)
        assert (img is not None) == valid


# a coordinate in [0, 10] as text: shortest repr, exponent forms, a sign,
# padding, fixed point
COORD_TEXT = st.floats(0.0, 10.0).flatmap(lambda v: st.sampled_from(
    [repr(v), f"{v:e}", f"{v:+.17E}", f"+{v!r}", f" {v!r}\t", f"{v:.3f}"]))
ROW = st.tuples(COORD_TEXT, COORD_TEXT).map(",".join)
BLANK = st.sampled_from(["", "  ", "\t \t"])


@st.composite
def particle_csv(draw, bad_rows=st.nothing()):
    """The lines of a particle CSV: VALID_CSV's header, maybe after blank
    lines, then rows and blank or whitespace-only lines, any of them
    maybe ``bad_rows``."""
    lines = draw(st.lists(st.just(""), max_size=2)) + VALID_CSV[:2]
    return lines + draw(st.lists(st.one_of(ROW, BLANK, bad_rows), max_size=8))


class TestParticleReader:
    """load_particles_csv reads a particle CSV as the line-by-line float()
    loop does: the same window and coordinate bits, or the same error."""

    @given(st.one_of(particle_csv(), particle_csv(bad_rows=st.one_of(
               st.text(alphabet="0123456789.,-+eax_# ", min_size=1, max_size=10),
               st.sampled_from(["1_0,2", "1,2,", "١,2", "１,2", "\xa01\xa0,\xa02", "0x1,2",
                                "1;2", '"1",2', "1,2#3", "1e999,1", "nan,1", "11,1"])))),
           st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
    @settings(max_examples=250, deadline=None)
    def test_matches_line_loop(self, tmp_path_factory, lines, newline, last):
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        path.write_bytes((newline.join(lines) + last * newline).encode())
        try:
            expected = load_particles_by_line(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                load_particles_csv(path)
            assert str(err.value) == str(exc)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ps = load_particles_csv(path)
        assert ps.window == expected.window
        assert ps.coordinates.tobytes() == expected.coordinates.tobytes()
