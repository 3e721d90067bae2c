"""Coefficient-field generators: determinism, structure, and statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hlab.fields import (
    CoefficientField,
    GaussianFieldParams,
    gaussian_link,
    make_constant,
    make_laminate,
    mix64,
    sample_checkerboard,
    sample_gaussian_field,
    tile_unit_cell,
)
from hlab.lattice import GridSpec


class TestMix64:
    def test_deterministic(self):
        assert int(mix64(123, 456)) == int(mix64(123, 456))

    def test_vectorized_matches_scalar(self):
        counters = np.arange(10, dtype=np.uint64)
        vec = mix64(7, counters)
        for i, c in enumerate(counters):
            assert vec[i] == mix64(7, int(c))

    def test_spread(self):
        # consecutive counters land far apart in the 64-bit space
        vals = mix64(0, np.arange(1000, dtype=np.uint64))
        assert np.unique(vals).size == 1000
        bits = np.unpackbits(vals.view(np.uint8))
        assert abs(bits.mean() - 0.5) < 0.02

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**63), st.integers(0, 2**63))
    def test_order_independent(self, seed, counter):
        a = mix64(seed, counter)
        b = mix64(seed, counter + 1)
        assert int(a) == int(mix64(seed, counter))
        assert int(a) != int(b)


class TestConstant:
    def test_values_and_bounds(self):
        g = GridSpec(2, 1, 2)
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        f = make_constant(g, A)
        assert np.allclose(f.a, A)
        ev = np.linalg.eigvalsh(A)
        assert f.lam == pytest.approx(ev[0])
        assert f.Lam == pytest.approx(ev[1])
        f.validate()

    def test_rejects_bad_matrices(self):
        g = GridSpec(2, 1, 1)
        with pytest.raises(ValueError):
            make_constant(g, np.array([[1.0, 0.3], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            make_constant(g, np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        with pytest.raises(ValueError):
            make_constant(g, np.eye(3))  # wrong dimension

    def test_validate_catches_violations(self):
        g = GridSpec(2, 0, 2)
        f = make_constant(g, np.eye(2))
        f.a[0, 0] = np.array([[1.0, 0.2], [0.0, 1.0]])
        with pytest.raises(ValueError):
            f.validate()


class TestLaminate:
    def test_layer_structure(self):
        g = GridSpec(2, 1, 2)
        f = make_laminate(g, 1.0, 4.0, 1.0, axis=1)
        v = f.a[..., 0, 0]
        # layers vary along axis 1 only, one unit-half per layer
        assert np.ptp(v, axis=1).max() == 0.0
        assert list(v[:4, 0]) == [1.0, 4.0, 1.0, 4.0]
        assert np.allclose(f.a[..., 0, 1], 0.0)
        assert (f.lam, f.Lam) == (1.0, 4.0)

    def test_axis_2(self):
        g = GridSpec(2, 0, 4)
        f = make_laminate(g, 2.0, 3.0, 0.5, axis=2)
        v = f.a[..., 1, 1]
        assert np.ptp(v, axis=0).max() == 0.0

    def test_swapping_values_preserves_volume_fractions(self):
        g = GridSpec(2, 1, 2)
        a = make_laminate(g, 1.0, 4.0, 1.0, axis=1).a[..., 0, 0]
        b = make_laminate(g, 4.0, 1.0, 1.0, axis=1).a[..., 0, 0]
        assert a.mean() == b.mean()
        assert sorted(np.unique(a)) == sorted(np.unique(b))

    def test_unalignable_period_rejected(self):
        # odd cells per period cannot host equal-width halves
        with pytest.raises(ValueError):
            make_laminate(GridSpec(2, 1, 9), 1.0, 4.0, 1.0, axis=1)
        # period not dividing the side
        with pytest.raises(ValueError):
            make_laminate(GridSpec(2, 1, 2), 1.0, 4.0, 2.0, axis=1)

    def test_invalid_args(self):
        g = GridSpec(2, 1, 2)
        with pytest.raises(ValueError):
            make_laminate(g, -1.0, 4.0, 1.0, axis=1)
        with pytest.raises(ValueError):
            make_laminate(g, 1.0, 4.0, 1.0, axis=3)


class TestCheckerboard:
    def test_deterministic_and_seed_sensitive(self):
        g = GridSpec(2, 2, 1)
        a = sample_checkerboard(g, 10)
        b = sample_checkerboard(g, 10)
        c = sample_checkerboard(g, 11)
        assert a.a.tobytes() == b.a.tobytes()
        assert a.a.tobytes() != c.a.tobytes()

    def test_unit_cell_resolution_invariance(self):
        # randomness lives per unit cell: refining k only repeats values
        g1 = sample_checkerboard(GridSpec(2, 2, 1), 3)
        g3 = sample_checkerboard(GridSpec(2, 2, 3), 3)
        coarse = g3.a[::3, ::3]
        assert np.array_equal(coarse, g1.a)
        block = g3.a[..., 0, 0].reshape(9, 3, 9, 3)
        assert np.ptp(block, axis=(1, 3)).max() == 0.0

    def test_values_and_bounds(self):
        f = sample_checkerboard(GridSpec(2, 1, 1), 0, v_white=1.0, v_black=4.0)
        vals = np.unique(f.a[..., 0, 0])
        assert set(vals).issubset({1.0, 4.0})
        f.validate()

    def test_black_fraction_within_3_sigma(self):
        # 3^10 iid fair coins: fraction within 3 sigma, sigma = 1/(2*3^5)
        f = sample_checkerboard(GridSpec(2, 5, 1), 2024)
        frac = (f.a[..., 0, 0] == 4.0).mean()
        assert abs(frac - 0.5) <= 3.0 / (2 * 3**5)

    def test_p_black_extremes(self):
        g = GridSpec(2, 1, 1)
        assert (sample_checkerboard(g, 1, p_black=0.0).a[..., 0, 0] == 1.0).all()
        assert (sample_checkerboard(g, 1, p_black=1.0).a[..., 0, 0] == 4.0).all()

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            sample_checkerboard(GridSpec(2, 1, 1), 0, p_black=1.5)


class TestGaussianField:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            GaussianFieldParams(amplitude=-1.0, decay=1.0)
        with pytest.raises(ValueError):
            GaussianFieldParams(amplitude=1.0, decay=0.0)
        with pytest.raises(ValueError):
            GaussianFieldParams(amplitude=1.0, decay=1.0, truncation=0)

    def test_link_bounds(self):
        t = np.linspace(-50, 50, 101)
        v = gaussian_link(t, 4.0)
        assert v.min() >= 1.0 and v.max() <= 4.0
        assert gaussian_link(0.0, 4.0) == pytest.approx(2.5)

    def test_field_within_bounds_and_deterministic(self):
        params = GaussianFieldParams(amplitude=0.5, decay=1.0, truncation=2)
        g = GridSpec(2, 2, 1)
        a = sample_gaussian_field(g, 5, params)
        b = sample_gaussian_field(g, 5, params)
        assert np.array_equal(a.a, b.a)
        v = a.a[..., 0, 0]
        assert v.min() >= 1.0 and v.max() <= 4.0
        a.validate()

    def test_unit_cell_constancy(self):
        params = GaussianFieldParams(amplitude=0.5, decay=1.0, truncation=1)
        f = sample_gaussian_field(GridSpec(2, 1, 2), 9, params)
        block = f.a[..., 0, 0].reshape(3, 2, 3, 2)
        assert np.ptp(block, axis=(1, 3)).max() == 0.0

    def test_convolved_noise_variance_oracle(self):
        # invert the logistic link to recover the convolved noise; its
        # variance equals the sum of squared kernel weights (distinct
        # wrapped offsets on the 3-torus), within 5% over 1e4 seeds
        params = GaussianFieldParams(amplitude=0.5, decay=1.0, truncation=1)
        g = GridSpec(2, 1, 1)
        Lam = params.Lam
        vals = np.empty(10_000)
        for s in range(vals.size):
            a00 = sample_gaussian_field(g, s, params).a[0, 0, 0, 0]
            vals[s] = -np.log((Lam - 1.0) / (a00 - 1.0) - 1.0)
        xs = np.arange(-1, 2)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        r = np.sqrt((X**2 + Y**2).astype(float))
        w = params.amplitude * (1.0 + r) ** (-(1.0 + params.decay))
        w[r > 1] = 0.0
        oracle = (w**2).sum()
        assert abs(vals.var() - oracle) / oracle < 0.05

    def test_truncation_error_recorded(self):
        params = GaussianFieldParams(amplitude=0.5, decay=1.0, truncation=2)
        f = sample_gaussian_field(GridSpec(2, 1, 1), 0, params)
        assert f.provenance["kernel_l2_truncation_error"] > 0


class TestRestrictAndTile:
    def test_tile_unit_cell(self):
        unit = sample_checkerboard(GridSpec(2, 0, 2), 8)
        big = tile_unit_cell(unit, 1)
        assert big.grid == GridSpec(2, 1, 2)
        assert np.array_equal(big.a[:2, :2], unit.a)
        assert np.array_equal(big.a[2:4, 4:6], unit.a)

    def test_tile_requires_unit_cell(self):
        with pytest.raises(ValueError):
            tile_unit_cell(sample_checkerboard(GridSpec(2, 1, 1), 0), 1)

    def test_shape_mismatch_rejected(self):
        g = GridSpec(2, 1, 1)
        with pytest.raises(ValueError):
            CoefficientField(g, np.zeros((2, 2, 2, 2)), 1.0, 4.0)
