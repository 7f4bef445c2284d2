from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degramix.data import BasisFamily, ModelConfig, UnitRecord, basis_columns
from degramix.design import (
    ZetaLayout,
    _pivoted_qr,
    build_design_matrices,
    layout_for,
    stacked_design,
)
from degramix.evaluation import table1_variants
from degramix.simulate import default_spec, generate_dataset
from _oracles import (
    build_observed_design,
    lapack_pivoted_qr,
    layout_names_and_split,
    stack_units,
    stacked_design_matrices,
)


def unit_with(times, scalars, uid="u1", grid_size=4):
    times = np.asarray(times, dtype=float)
    return UnitRecord(uid, times, np.zeros_like(times), np.asarray(scalars),
                      np.zeros((1, grid_size)))


def random_dataset(rng, n=14, m=5, p=2, s=1, grid_size=6):
    units = []
    for i in range(n):
        times = np.sort(rng.uniform(0.0, 3.0, size=m))
        while np.any(np.diff(times) <= 0):
            times = np.sort(rng.uniform(0.0, 3.0, size=m))
        units.append(UnitRecord(f"u{i + 1}", times, rng.normal(size=m),
                                rng.normal(size=p), rng.normal(size=(s, grid_size))))
    return stack_units(units, np.linspace(0.0, 2.0, grid_size))


def one_unit_design(unit, cfg, scores=None, r_support=10.0):
    """The design of a one-unit dataset on a 4-point grid of support
    ``r_support``; a single unit's design is rank deficient whenever it has
    more columns than rows, so skip the rank check."""
    ds = stack_units((unit,), np.linspace(0.0, r_support, 4))
    return build_design_matrices(ds, replace(cfg, ridge_jitter=True),
                                 scores=None if scores is None else np.asarray(scores)[None])


def one_unit_stacked(unit, cfg, scores=None, r_support=10.0):
    """(Omega, Lambda) of a one-unit dataset with one row per observation,
    as ``fit --dump-design`` writes them."""
    dm = one_unit_design(unit, cfg, scores, r_support)
    ds = stack_units((unit,), np.linspace(0.0, r_support, 4))
    return stacked_design(ds, cfg, dm.layout, None if scores is None else np.asarray(scores)[None])


def gram_of_blocks(dm):
    """Each unit's Gram matrix of [Omega_i Lambda_i y_i]: all that EM reads
    of the unit's rows."""
    blocks = np.concatenate([dm.omega, dm.lam, dm.y[:, :, None]], axis=2)
    return np.swapaxes(blocks, 1, 2) @ blocks


LATENT_ONLY = dict(include_scalar=False, include_functional=False, include_interaction=False)


class TestLatentDesign:
    def test_order_one(self):
        cfg = ModelConfig(center_baseline=False, **LATENT_ONLY)
        _, lam = one_unit_stacked(unit_with([1.0, 2.0], [0.0]), cfg)
        assert np.array_equal(lam, [[1.0, 1.0], [1.0, 2.0]])

    def test_order_two_at_zero(self):
        cfg = ModelConfig(basis=BasisFamily("polynomial", 2), center_baseline=False, **LATENT_ONLY)
        _, lam = one_unit_stacked(unit_with([0.0], [0.0]), cfg)
        assert np.array_equal(lam, [[1.0, 0.0, 0.0]])

    def test_centered_drops_constant_column(self):
        _, lam = one_unit_stacked(unit_with([1.0, 2.0], [0.0]), ModelConfig(**LATENT_ONLY))
        assert np.array_equal(lam, [[1.0], [2.0]])


class TestObservedDesign:
    def test_symbolic_example(self):
        # L=1 (levels 0,1), P=1, S=1, K=1, x=2, c=0.5, R=10
        omega, _ = one_unit_stacked(unit_with([1.0, 2.0], [2.0]), ModelConfig(center_baseline=False),
                                    np.array([[0.5]]), 10.0)
        assert omega.shape[1] == 8
        assert np.array_equal(omega, [
            [1.0, 1.0, 2.0, 2.0, 5.0, 5.0, 10.0, 10.0],
            [1.0, 2.0, 2.0, 4.0, 5.0, 10.0, 10.0, 20.0],
        ])

    def test_interaction_off_shrinks_layout(self):
        cfg = ModelConfig(include_interaction=False, center_baseline=False)
        dm = one_unit_design(unit_with([1.0, 2.0], [2.0]), cfg, np.array([[0.5]]), 10.0)
        assert dm.layout.size == 2 * (1 + 1 + 1)
        assert dm.omega.shape == (1, 3, 6)  # the unit's d + 1 compressed rows
        omega, _ = one_unit_stacked(unit_with([1.0, 2.0], [2.0]), cfg, np.array([[0.5]]), 10.0)
        assert omega.shape == (2, 6)

    def test_zero_scalars_zero_blocks(self):
        dm = one_unit_design(unit_with([1.0, 2.0], [0.0]), ModelConfig(center_baseline=False),
                             np.array([[0.5]]), 10.0)
        off = dm.layout.offsets
        assert np.all(dm.omega[..., off["beta"][0]:off["beta"][1]] == 0.0)
        assert np.all(dm.omega[..., off["b_int"][0]:off["b_int"][1]] == 0.0)

    def test_first_columns_equal_latent_design(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng)
        cfg = ModelConfig(center_baseline=False)
        scores = rng.normal(size=(ds.n_units, 1, 3))
        dm = build_design_matrices(ds, cfg, scores=scores)
        assert np.array_equal(dm.omega[..., :dm.layout.n_levels], dm.lam)

    def test_score_shape_mismatch(self):
        # two covariates' scores for a dataset with one functional covariate
        ds = random_dataset(np.random.default_rng(1), n=6)
        with pytest.raises(ValueError, match="scores shape"):
            build_design_matrices(ds, ModelConfig(), scores=np.ones((6, 2, 1)))


DESIGN_CASES = [(name, center, 1) for name in table1_variants() for center in (True, False)]
DESIGN_CASES.append(("Model7", True, 2))


class TestMatchesPerUnitOracle:
    @pytest.mark.parametrize("name,center,order", DESIGN_CASES)
    def test_bitwise(self, name, center, order):
        spec = default_spec(seed=40 + order, n_units=15, n_obs=7)
        ds, truth = generate_dataset(spec)
        # ragged series: unit i keeps its first 3 + i % 5 observations
        ds = stack_units((
            replace(u, times=u.times[:3 + i % 5], responses=u.responses[:3 + i % 5])
            for i, u in enumerate(ds.units)), ds.r_grid)
        cfg = table1_variants()[name].config
        basis = BasisFamily("polynomial", max(order, cfg.basis.order))
        cfg = replace(cfg, center_baseline=center, basis=basis)
        scores = truth.scores if cfg.include_functional else None
        dm = build_design_matrices(ds, cfg, scores=scores)
        ref = stacked_design_matrices(ds, cfg, scores)
        assert dm.layout == ref.layout and dm.unit_ids == ref.unit_ids
        omega, lam = stacked_design(ds, cfg, dm.layout, scores)
        assert np.array_equal(omega, ref.rows("omega")) and np.array_equal(lam, ref.rows("lam"))
        rows = (ds.n_units, dm.layout.n_levels + 1)
        assert dm.omega.shape[:2] == dm.lam.shape[:2] == dm.y.shape == rows
        assert dm.n_obs == ref.n_obs == ds.n_obs
        assert np.array_equal(dm.lam_gram, ref.lam_gram)

    @pytest.mark.parametrize("name,center,order", DESIGN_CASES)
    def test_compressed_blocks_keep_each_units_gram(self, name, center, order):
        # ragged series, including units with fewer observations than levels
        spec = default_spec(seed=50 + order, n_units=12, n_obs=7)
        ds, truth = generate_dataset(spec)
        ds = stack_units((
            replace(u, times=u.times[:1 + i % 7], responses=u.responses[:1 + i % 7])
            for i, u in enumerate(ds.units)), ds.r_grid)
        cfg = table1_variants()[name].config
        cfg = replace(cfg, center_baseline=center, ridge_jitter=True,
                      basis=BasisFamily("polynomial", max(order, cfg.basis.order)))
        scores = truth.scores if cfg.include_functional else None
        got = gram_of_blocks(build_design_matrices(ds, cfg, scores=scores))
        want = gram_of_blocks(stacked_design_matrices(ds, cfg, scores))
        scale = np.abs(want).max(axis=(1, 2))[:, None, None]
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


def int_dataset(rng, sizes, p=2):
    # integer times and scalars keep every product and sum exact
    units = []
    for i, m in enumerate(sizes):
        times = np.sort(rng.choice(np.arange(0, 12), size=m, replace=False)).astype(float)
        units.append(UnitRecord(f"u{i}", times, rng.integers(-5, 6, size=m),
                                rng.integers(-3, 4, size=p), np.zeros((1, 4))))
    return stack_units(units, np.arange(4.0))


# few units cannot span the scalar blocks, so these stacking checks skip the rank check
SCALAR_ORDER2 = ModelConfig(basis=BasisFamily("polynomial", 2), include_functional=False,
                            include_interaction=False, center_baseline=False,
                            ridge_jitter=True)


class TestStacking:
    def test_shapes(self):
        ds = int_dataset(np.random.default_rng(1), (3, 4))
        dm = build_design_matrices(ds, SCALAR_ORDER2)
        # each unit's d + 1 = 4 compressed rows, whatever its 3 or 4 observations
        assert dm.omega.shape == (2, 4, 9)
        assert dm.lam.shape == (2, 4, 3)
        assert dm.y.shape == (2, 4)
        assert dm.n_obs == 7
        assert dm.lam_gram.shape == (2, 3, 3)

    def test_lam_gram_is_per_unit_gram(self):
        ds = int_dataset(np.random.default_rng(5), (3, 4, 5, 3))
        dm = build_design_matrices(ds, SCALAR_ORDER2)
        for i, u in enumerate(ds.units):
            lam = basis_columns(SCALAR_ORDER2.basis, u.times, (0, 1, 2))
            assert np.array_equal(dm.lam_gram[i], lam.T @ lam)

    def test_single_unit_identity(self):
        ds = int_dataset(np.random.default_rng(2), (5,))
        u = ds.units[0]
        dm = build_design_matrices(ds, SCALAR_ORDER2)
        basis = SCALAR_ORDER2.basis
        omega = build_observed_design(u, basis, None, 1.0, dm.layout)
        lam = basis_columns(basis, u.times, (0, 1, 2))
        got_omega, got_lam = stacked_design(ds, SCALAR_ORDER2, dm.layout, None)
        assert np.array_equal(got_omega, omega) and np.array_equal(got_lam, lam)
        stacked = np.column_stack([omega, lam, u.responses])
        compressed = np.column_stack([dm.omega[0], dm.lam[0], dm.y[0]])
        assert np.allclose(compressed.T @ compressed, stacked.T @ stacked, rtol=0.0,
                           atol=1e-13 * np.abs(stacked.T @ stacked).max())
        # [R z; 0 rho]: triangular, with the latent block's last row zero
        assert np.array_equal(np.tril(np.column_stack([dm.lam[0], dm.y[0]]), -1), np.zeros((4, 4)))
        assert dm.y.shape == (1, 4) and dm.n_obs == 5

    def test_permutation_consistency(self):
        ds = int_dataset(np.random.default_rng(3), (3, 5, 4))
        dm = build_design_matrices(ds, SCALAR_ORDER2)
        perm = [2, 0, 1]
        dm_p = build_design_matrices(
            stack_units((ds.units[i] for i in perm), ds.r_grid), SCALAR_ORDER2)
        # permuting units permutes row blocks and Gram blocks, nothing else
        for field in ("omega", "lam", "y", "lam_gram"):
            assert np.array_equal(getattr(dm, field)[perm], getattr(dm_p, field))
        assert dm_p.unit_ids == tuple(dm.unit_ids[i] for i in perm)


class TestCoefficientIdentity:
    @given(st.integers(0, 10 ** 6), st.booleans(), st.booleans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_omega_zeta_reproduces_direct_formula(self, seed, scalar, functional, center):
        # Omega_i zeta and the layout's coefficient map must both equal
        # sum_l eta_li phi_l(t) with eta built term by term
        rng = np.random.default_rng(seed)
        interaction = scalar and functional
        cfg = ModelConfig(
            basis=BasisFamily("polynomial", int(rng.integers(1, 3))),
            include_scalar=scalar,
            include_functional=functional,
            include_interaction=interaction,
            include_latent=True,
            center_baseline=center,
        )
        p, s, k = 2, 2, 2
        times = np.sort(rng.uniform(0.1, 2.0, size=4))
        unit = UnitRecord("u1", times, np.zeros(4), rng.normal(size=p),
                          rng.normal(size=(s, 4)))
        scores = rng.normal(size=(s, k)) if functional else None
        r_support = 7.5
        dm = one_unit_design(unit, cfg, scores, r_support)
        layout = dm.layout
        zeta = rng.normal(size=layout.size)

        parts = layout.split(zeta)
        eta = parts["nu"].copy()
        if scalar:
            eta = eta + parts["beta"] @ unit.scalars
        if functional:
            eta = eta + r_support * np.einsum("lsk,sk->l", parts["b"], scores)
        if interaction:
            eta = eta + r_support * np.einsum("lpsk,p,sk->l", parts["b_int"],
                                              unit.scalars, scores)
        phi = np.power(times[:, None], np.array(cfg.levels, dtype=float)[None, :])
        omega, _ = one_unit_stacked(unit, cfg, scores, r_support)
        assert np.max(np.abs(omega @ zeta - phi @ eta)) <= 1e-12
        # a compressed row is a combination of observation rows: R_i eta_i
        assert np.max(np.abs(dm.omega @ zeta - dm.lam @ eta)) <= 1e-12 * max(
            1.0, np.abs(dm.lam).max() * np.abs(eta).max())
        features = layout.features(unit.scalars[None], None if scores is None else scores[None],
                                   r_support)
        mapped = sum(layout.components(zeta, features).values())[0]
        assert np.max(np.abs(mapped - eta)) <= 1e-12

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_column_count_matches_layout(self, seed):
        rng = np.random.default_rng(seed)
        cfg = ModelConfig(
            include_interaction=False if rng.integers(2) else True,
            center_baseline=bool(rng.integers(2)),
        )
        p, s, k = (int(rng.integers(1, 4)) for _ in range(3))
        layout = layout_for(cfg, p, s, k)
        nlev = len(cfg.levels)
        expected = nlev * (1 + p + s * k + (p * s * k if cfg.include_interaction else 0))
        assert layout.size == expected
        unit = UnitRecord("u1", np.sort(rng.uniform(0, 2, size=3)), np.zeros(3),
                          rng.normal(size=p), np.zeros((s, 4)))
        dm = one_unit_design(unit, cfg, rng.normal(size=(s, k)), 5.0)
        assert dm.layout == layout
        assert dm.omega.shape[2] == layout.size
        assert len(layout.names()) == layout.size


class TestLayoutTable:
    @pytest.mark.parametrize("scalar", [False, True])
    @pytest.mark.parametrize("functional", [False, True])
    @pytest.mark.parametrize("interaction", [False, True])
    @pytest.mark.parametrize("center", [False, True])
    def test_names_and_split_match_loop_oracle(self, scalar, functional, interaction, center):
        # P=2, S=2, K=2 under basis order 2 (levels 0..2, or 1..2 centred)
        levels = ModelConfig(basis=BasisFamily("polynomial", 2), center_baseline=center).levels
        layout = ZetaLayout(levels=levels, n_scalars=2, n_functional=2, n_components=2,
                            include_scalar=scalar, include_functional=functional,
                            include_interaction=interaction)
        zeta = np.arange(1.0, layout.size + 1.0)
        names, parts = layout_names_and_split(layout, zeta)
        assert layout.names() == names
        assert len(names) == layout.size
        got = layout.split(zeta)
        assert sorted(got) == sorted(parts)
        for key, expected in parts.items():
            assert got[key].shape == expected.shape and np.array_equal(got[key], expected), key


class TestRankCheck:
    def test_duplicate_scalar_column_names_offenders(self):
        rng = np.random.default_rng(5)
        units = []
        for i in range(4):
            x = rng.normal()
            units.append(UnitRecord(f"u{i}", np.arange(1.0, 5.0), rng.normal(size=4),
                                    np.array([x, x]), np.zeros((1, 4))))
        ds = stack_units(units, np.arange(4.0))
        cfg = ModelConfig(include_functional=False, include_interaction=False)
        with pytest.raises(ValueError, match="rank-deficient.*dependent columns: beta_l1_p2$"):
            build_design_matrices(ds, cfg)

    def test_ridge_jitter_bypasses_rank_check(self):
        rng = np.random.default_rng(6)
        units = []
        for i in range(4):
            x = rng.normal()
            units.append(UnitRecord(f"u{i}", np.arange(1.0, 5.0), rng.normal(size=4),
                                    np.array([x, x]), np.zeros((1, 4))))
        ds = stack_units(units, np.arange(4.0))
        cfg = ModelConfig(include_functional=False, include_interaction=False,
                          ridge_jitter=True)
        dm = build_design_matrices(ds, cfg)
        assert dm.omega.shape[2] == dm.layout.size


def _qr_rank(omega, r):
    """The rank ``_check_full_rank`` reads off a pivoted QR's diagonal."""
    diag = np.abs(np.diag(r))
    return int(np.count_nonzero(diag > max(omega.shape) * np.finfo(float).eps * diag[0]))


_RNG = np.random.default_rng(40)
_TALL = _RNG.normal(size=(60, 7))
QR_CASES = {
    "tall": _TALL,
    "wide": _RNG.normal(size=(5, 9)),
    "square": _RNG.normal(size=(6, 6)),
    "graded": _TALL * np.logspace(-6.0, 6.0, 7),
    "duplicated": np.column_stack([_TALL, _TALL[:, 2], _TALL[:, 5]]),
    "zero": np.column_stack([_TALL[:, :3], np.zeros(60), _TALL[:, 3:]]),
    "rescaled": np.column_stack([_TALL, 1e3 * _TALL[:, 1], -0.5 * _TALL[:, 4]]),
}


class TestPivotedQr:
    @pytest.mark.parametrize("name", QR_CASES)
    def test_matches_lapack(self, name):
        omega = QR_CASES[name]
        q, r, piv = _pivoted_qr(omega)
        q_ref, r_ref, piv_ref = lapack_pivoted_qr(omega)
        assert q.shape == q_ref.shape and r.shape == r_ref.shape
        rank = _qr_rank(omega, r)
        assert rank == _qr_rank(omega, r_ref)
        assert sorted(piv) == list(range(omega.shape[1]))
        assert np.array_equal(np.tril(r, -1), np.zeros_like(r))
        assert np.abs(omega[:, piv] - q @ r).max() <= 1e-12 * np.abs(omega).max()
        assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-12
        diag = np.abs(np.diag(r))
        assert np.all(diag[1:] <= diag[:-1] * (1.0 + 1e-12))
        if name != "duplicated":  # with exact copies, which one LAPACK drops is rounding
            assert sorted(piv[rank:]) == sorted(piv_ref[rank:])

    @pytest.mark.parametrize("name, dependent", [
        ("duplicated", [7, 8]), ("zero", [3]), ("rescaled", [1, 8]),
    ])
    def test_names_dependent_columns(self, name, dependent):
        # a copy is dependent on the column before it; of two rescaled
        # columns, the one of smaller norm is dependent
        omega = QR_CASES[name]
        q, r, piv = _pivoted_qr(omega)
        assert sorted(piv[_qr_rank(omega, r):]) == dependent
