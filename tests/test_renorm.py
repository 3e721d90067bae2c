"""Heat-kernel coarsening, the renormalized coefficient, fluctuation cascades."""

import numpy as np
import pytest

from hlab.correctors import periodic_homogenized_matrix
from hlab.fields import make_constant, make_laminate, sample_checkerboard
from hlab.harness import cube_average_fluctuations, fluctuation_cascade
from hlab.lattice import GridSpec
from hlab.renorm import (
    PROXY_CAP,
    PROXY_DELTA,
    _local_min_scale,
    coarse_grained_b,
    heat_kernel_1d,
    heat_point_value,
)
from oracles import heat_convolve


class TestKernel:
    def test_unit_mass_and_symmetry(self):
        w = heat_kernel_1d(4.0, 1.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(w, w[::-1])

    def test_variance_matches_scale(self):
        # the kernel at scale r carries per-coordinate variance 2 r^2
        r, h = 4.0, 0.5
        w = heat_kernel_1d(r, h)
        n = (w.size - 1) // 2
        x = np.arange(-n, n + 1) * h
        assert (w * x**2).sum() == pytest.approx(2 * r**2, rel=1e-3)

    def test_radius_below_cell_rejected(self):
        with pytest.raises(ValueError):
            heat_kernel_1d(0.5, 1.0)

    def test_semigroup_up_to_truncation_floor(self):
        # smoothing twice at scale r matches one pass at r*sqrt(2); the
        # truncated tails cap the agreement near 1e-4 relative
        f = np.zeros((243, 243))
        f[121, 121] = 1.0
        a = heat_convolve(heat_convolve(f, 4.0, 1.0), 4.0, 1.0)
        b = heat_convolve(f, 4.0 * np.sqrt(2.0), 1.0)
        rel = np.abs(a - b).sum() / b.sum()
        assert rel < 1e-3


class TestConvolve:
    def test_preserves_mean_periodic(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(81, 81))
        g = heat_convolve(f, 2.0, 1.0)
        assert g.mean() == pytest.approx(f.mean(), abs=1e-12)

    def test_constant_fixed_point(self):
        f = np.full((50, 50), 3.3)
        assert np.abs(heat_convolve(f, 2.0, 1.0) - 3.3).max() < 1e-12

    def test_support_exceeding_torus_rejected(self):
        with pytest.raises(ValueError):
            heat_convolve(np.zeros((9, 9)), 4.0, 1.0)

    def test_point_value_matches_full_convolution(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(60, 60))
        full = heat_convolve(f, 2.0, 1.0)
        for pt in [(0, 0), (13, 44), (59, 1)]:
            assert heat_point_value(f, 2.0, 1.0, pt) == pytest.approx(
                full[pt], abs=1e-12)

    @pytest.mark.parametrize("pt", [(13.5, 44), (np.float64(13.0), 2), (True, 2)])
    def test_point_must_be_cell_indices(self, pt):
        with pytest.raises(ValueError, match=r"point .*cell shape \(60, 60\)"):
            heat_point_value(np.zeros((60, 60, 2)), 2.0, 1.0, pt)

    def test_vector_data_smoothing(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(60, 60, 2))
        g = heat_convolve(f, 2.0, 1.0, spatial_dims=2)
        assert g.shape == f.shape
        assert np.allclose(g.reshape(-1, 2).mean(axis=0),
                           f.reshape(-1, 2).mean(axis=0))


class TestCoarseGrainedB:
    def test_constant_field_recovers_matrix(self):
        A = np.array([[2.0, 0.3], [0.3, 1.5]])
        fld = make_constant(GridSpec(2, 3, 1), A)
        cset = periodic_homogenized_matrix(fld, with_flux_correctors=False)
        hc = coarse_grained_b(cset, fld, 2.0, [(0, 0), (13, 5)])
        for b, bh, c in zip(hc.b, hc.b_hat, hc.cond):
            assert np.abs(b - A).max() < 1e-8
            assert np.abs(bh - A).max() < 1e-8
            assert c < 10.0

    def test_laminate_within_bounds(self):
        fld = make_laminate(GridSpec(2, 3, 2), 1.0, 4.0, 1.0, axis=1)
        cset = periodic_homogenized_matrix(fld, with_flux_correctors=False)
        hc = coarse_grained_b(cset, fld, 2.0, [(0, 0)])
        ev = np.linalg.eigvalsh(0.5 * (hc.b[0] + hc.b[0].T))
        assert ev.min() > 0.5 and ev.max() < 5.0
        assert 0.0 <= hc.chi[0] <= 1.0

    def test_float_point_named(self):
        fld = make_constant(GridSpec(2, 3, 1), np.eye(2))
        cset = periodic_homogenized_matrix(fld, with_flux_correctors=False)
        with pytest.raises(ValueError, match=r"\(13\.5, 5\)"):
            coarse_grained_b(cset, fld, 2.0, [(13.5, 5)])

    def test_small_torus_rejected(self):
        fld = make_constant(GridSpec(2, 1, 1), np.eye(2))
        cset = periodic_homogenized_matrix(fld, with_flux_correctors=False)
        with pytest.raises(ValueError):
            coarse_grained_b(cset, fld, 4.0, [(0, 0)])

    def test_degenerate_points_blend_to_abar(self):
        # checkerboard, tiny radius: whatever the gate decides, the blended
        # value is a convex combination of b_hat and the homogenized matrix
        fld = sample_checkerboard(GridSpec(2, 3, 1), 3)
        cset = periodic_homogenized_matrix(fld, with_flux_correctors=False)
        hc = coarse_grained_b(cset, fld, 2.0, [(0, 0), (9, 9)])
        for b, bh, chi in zip(hc.b, hc.b_hat, hc.chi):
            if bh is None:
                assert np.array_equal(b, cset.abar)
            else:
                expect = chi * bh + (1 - chi) * cset.abar
                assert np.abs(b - expect).max() < 1e-12


class TestMinimalScale:
    """`_local_min_scale`, the minimal scale X that blends b_r toward abar."""

    def test_constant_field_converges_at_first_window(self):
        # anisotropic constant field: gaps vanish but Lam - lam > 0, so the
        # threshold is positive and the first multi-cell cube qualifies
        fld = make_constant(GridSpec(2, 2, 1), np.diag([1.0, 2.0]))
        assert _local_min_scale(fld, (4, 4), PROXY_DELTA, PROXY_CAP) == 3.0

    def test_checkerboard_finite(self):
        fld = sample_checkerboard(GridSpec(2, 3, 1), 2)
        assert _local_min_scale(fld, (13, 13), PROXY_DELTA, PROXY_CAP) in (3.0, 9.0, 27.0)
        # no cube up to the cap meets a tiny threshold: the sentinel 2 * 3^(cap + 1)
        assert _local_min_scale(fld, (13, 13), 1e-6, 2) == 54.0


class TestCascades:
    def test_fluctuation_cascade_structure(self):
        def make_field(seed, m):
            return sample_checkerboard(GridSpec(2, m, 1), seed)

        out = fluctuation_cascade(make_field, [1.0, 2.0, 4.0], n_seeds=4,
                                  master_seed=7)
        assert [row["r"] for row in out["per_r"]] == [1.0, 2.0, 4.0]
        for row in out["per_r"]:
            assert 3.0 ** row["torus_level"] >= 12.0 * row["r"]
            assert row["total_variance"] >= 0.0
        assert np.isfinite(out["fit"].fitted)

    def test_cube_average_fluctuations_decay(self):
        def make_field(seed, m):
            return sample_checkerboard(GridSpec(2, m, 1), seed)

        out = cube_average_fluctuations(make_field, [1, 2, 3], n_seeds=16,
                                        master_seed=3)
        var = [row["variance"] for row in out["per_n"]]
        assert var[2] < var[0]  # larger cubes fluctuate less
        assert out["fit"].fitted < 0

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError):
            fluctuation_cascade(lambda s, m: None, [1.0, 2.0, 4.0], n_seeds=1)
