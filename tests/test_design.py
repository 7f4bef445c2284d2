import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degramix.data import BasisFamily, DegradationDataset, ModelConfig, UnitRecord
from degramix.design import (
    ZetaLayout,
    build_design_matrices,
    build_latent_design,
    build_observed_design,
    layout_for,
    stack_population,
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
    return DegradationDataset(tuple(units), np.linspace(0.0, 2.0, grid_size))


class TestLatentDesign:
    def test_order_one(self):
        lam = build_latent_design(unit_with([1.0, 2.0], [0.0]), BasisFamily("polynomial", 1), (0, 1))
        assert np.array_equal(lam, [[1.0, 1.0], [1.0, 2.0]])

    def test_order_two_at_zero(self):
        lam = build_latent_design(unit_with([0.0], [0.0]), BasisFamily("polynomial", 2), (0, 1, 2))
        assert np.array_equal(lam, [[1.0, 0.0, 0.0]])

    def test_centered_drops_constant_column(self):
        lam = build_latent_design(unit_with([1.0, 2.0], [0.0]), BasisFamily("polynomial", 1), (1,))
        assert np.array_equal(lam, [[1.0], [2.0]])


class TestObservedDesign:
    def test_symbolic_example(self):
        # L=1 (levels 0,1), P=1, S=1, K=1, x=2, c=0.5, R=10
        layout = layout_for(ModelConfig(center_baseline=False), 1, 1, 1)
        unit = unit_with([1.0, 2.0], [2.0])
        omega = build_observed_design(unit, BasisFamily("polynomial", 1),
                                      np.array([[0.5]]), 10.0, layout)
        assert layout.size == 8
        assert np.array_equal(omega, [
            [1.0, 1.0, 2.0, 2.0, 5.0, 5.0, 10.0, 10.0],
            [1.0, 2.0, 2.0, 4.0, 5.0, 10.0, 10.0, 20.0],
        ])

    def test_interaction_off_shrinks_layout(self):
        cfg = ModelConfig(include_interaction=False, center_baseline=False)
        layout = layout_for(cfg, 1, 1, 1)
        assert layout.size == 2 * (1 + 1 + 1)
        omega = build_observed_design(unit_with([1.0, 2.0], [2.0]), cfg.basis,
                                      np.array([[0.5]]), 10.0, layout)
        assert omega.shape == (2, 6)

    def test_zero_scalars_zero_blocks(self):
        layout = layout_for(ModelConfig(center_baseline=False), 1, 1, 1)
        omega = build_observed_design(unit_with([1.0, 2.0], [0.0]), BasisFamily("polynomial", 1),
                                      np.array([[0.5]]), 10.0, layout)
        off = layout.offsets
        assert np.all(omega[:, off["beta"][0]:off["beta"][1]] == 0.0)
        assert np.all(omega[:, off["b_int"][0]:off["b_int"][1]] == 0.0)

    def test_first_columns_equal_latent_design(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng)
        cfg = ModelConfig(center_baseline=False)
        scores = rng.normal(size=(ds.n_units, 1, 3))
        dm = build_design_matrices(ds, cfg, scores=scores)
        assert np.array_equal(dm.omega[:, :dm.layout.latent_dim], dm.lam)

    def test_score_shape_mismatch(self):
        layout = layout_for(ModelConfig(center_baseline=False), 1, 1, 2)
        with pytest.raises(ValueError, match="scores shape"):
            build_observed_design(unit_with([1.0], [1.0]), BasisFamily("polynomial", 1),
                                  np.array([[0.5]]), 10.0, layout)


def stack(omegas, lambdas, ys):
    d, u = lambdas[0].shape[1], omegas[0].shape[1]
    layout = ZetaLayout(levels=tuple(range(d)), n_scalars=max(u - d, 0), n_functional=0,
                        n_components=0, include_scalar=u > d,
                        include_functional=False, include_interaction=False)
    return stack_population(layout, [f"u{i}" for i in range(len(omegas))], omegas, lambdas, ys)


def int_blocks(rng, sizes, width):
    # integer entries keep every sum exact, so stacked and per-unit forms compare bitwise
    return [rng.integers(-3, 4, size=(m, width)).astype(float) for m in sizes]


class TestStacking:
    def test_shapes(self):
        rng = np.random.default_rng(1)
        omegas = [rng.normal(size=(2, 4)), rng.normal(size=(3, 4))]
        lambdas = [rng.normal(size=(2, 2)), rng.normal(size=(3, 2))]
        ys = [rng.normal(size=2), rng.normal(size=3)]
        dm = stack(omegas, lambdas, ys)
        assert dm.omega.shape == (5, 4)
        assert dm.lam.shape == (5, 2)
        assert dm.y.shape == (5,)
        assert np.array_equal(dm.counts, [2, 3])
        assert dm.lam_gram.shape == (2, 2, 2)

    def test_lam_gram_is_per_unit_gram(self):
        rng = np.random.default_rng(5)
        sizes = (1, 4, 2, 3)
        lambdas = int_blocks(rng, sizes, 3)
        dm = stack(int_blocks(rng, sizes, 4), lambdas, [np.zeros(m) for m in sizes])
        for i, lam in enumerate(lambdas):
            assert np.array_equal(dm.lam_gram[i], lam.T @ lam)

    def test_single_unit_identity(self):
        rng = np.random.default_rng(2)
        om = rng.normal(size=(3, 4))
        la = rng.normal(size=(3, 2))
        y = rng.normal(size=3)
        dm = stack([om], [la], [y])
        assert np.array_equal(dm.omega, om)
        assert np.array_equal(dm.lam, la)
        assert np.array_equal(dm.y, y)
        assert np.array_equal(dm.counts, [3])

    def test_permutation_consistency(self):
        rng = np.random.default_rng(3)
        omegas = [rng.normal(size=(m, 3)) for m in (2, 4, 3)]
        lambdas = [rng.normal(size=(m, 2)) for m in (2, 4, 3)]
        ys = [rng.normal(size=m) for m in (2, 4, 3)]
        dm = stack(omegas, lambdas, ys)
        perm = [2, 0, 1]
        dm_p = stack([omegas[i] for i in perm], [lambdas[i] for i in perm],
                     [ys[i] for i in perm])
        # permuting units permutes row blocks, counts and Gram blocks, nothing else
        assert np.array_equal(np.vstack([omegas[i] for i in perm]), dm_p.omega)
        assert np.array_equal(np.vstack([lambdas[i] for i in perm]), dm_p.lam)
        assert np.array_equal(np.concatenate([ys[i] for i in perm]), dm_p.y)
        assert np.array_equal(dm.counts[perm], dm_p.counts)
        assert np.array_equal(dm.lam_gram[perm], dm_p.lam_gram)
        assert sorted(map(tuple, dm.omega)) == sorted(map(tuple, dm_p.omega))
        assert sorted(dm.y) == sorted(dm_p.y)

    def test_inconsistent_columns_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="column counts"):
            stack([rng.normal(size=(2, 3)), rng.normal(size=(2, 4))],
                  [np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)])

    def test_empty_unit_rejected(self):
        with pytest.raises(ValueError, match="at least one observation"):
            stack([np.ones((2, 2)), np.ones((0, 2))], [np.ones((2, 1)), np.ones((0, 1))],
                  [np.zeros(2), np.zeros(0)])


class TestCoefficientIdentity:
    @given(st.integers(0, 10 ** 6), st.booleans(), st.booleans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_omega_zeta_reproduces_direct_formula(self, seed, scalar, functional, center):
        # Omega_i zeta must equal sum_l eta_li phi_l(t) with eta built term by term
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
        layout = layout_for(cfg, p, s, k)
        times = np.sort(rng.uniform(0.1, 2.0, size=4))
        unit = UnitRecord("u1", times, np.zeros(4), rng.normal(size=p),
                          rng.normal(size=(s, 5)))
        scores = rng.normal(size=(s, k)) if functional else None
        r_support = 7.5
        zeta = rng.normal(size=layout.size)
        omega = build_observed_design(unit, cfg.basis, scores, r_support, layout)

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
        assert np.max(np.abs(omega @ zeta - phi @ eta)) <= 1e-12

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
        unit = unit_with(np.sort(rng.uniform(0, 2, size=3)), rng.normal(size=p))
        omega = build_observed_design(unit, cfg.basis, rng.normal(size=(s, k)), 5.0, layout)
        assert omega.shape[1] == layout.size
        assert len(layout.names()) == layout.size


class TestRankCheck:
    def test_duplicate_scalar_column_names_offenders(self):
        rng = np.random.default_rng(5)
        units = []
        for i in range(4):
            x = rng.normal()
            units.append(UnitRecord(f"u{i}", np.arange(1.0, 5.0), rng.normal(size=4),
                                    np.array([x, x]), np.zeros((1, 4))))
        ds = DegradationDataset(tuple(units), np.arange(4.0))
        cfg = ModelConfig(include_functional=False, include_interaction=False)
        with pytest.raises(ValueError, match="rank-deficient.*beta"):
            build_design_matrices(ds, cfg)

    def test_ridge_jitter_bypasses_rank_check(self):
        rng = np.random.default_rng(6)
        units = []
        for i in range(4):
            x = rng.normal()
            units.append(UnitRecord(f"u{i}", np.arange(1.0, 5.0), rng.normal(size=4),
                                    np.array([x, x]), np.zeros((1, 4))))
        ds = DegradationDataset(tuple(units), np.arange(4.0))
        cfg = ModelConfig(include_functional=False, include_interaction=False,
                          ridge_jitter=True)
        dm = build_design_matrices(ds, cfg)
        assert dm.omega.shape[1] == dm.layout.size
