"""Correctors, flux correctors, homogenized matrices, sublinearity."""

import numpy as np
import pytest

from hlab.correctors import (
    finite_volume_correctors,
    flux_corrector,
    periodic_homogenized_matrix,
    sublinearity_R,
)
from hlab.fields import make_constant, make_laminate, sample_checkerboard
from hlab.lattice import GridSpec, TriadicCube, discrete_gradient, weak_norm_estimate
from oracles import restrict


class TestFluxCorrector:
    def test_requires_mean_zero(self):
        g = np.ones((6, 6, 2))
        with pytest.raises(ValueError, match="mean zero"):
            flux_corrector(g, GridSpec(2, 1, 2))

    def test_rejects_a_flux_off_its_grid(self):
        # h comes from the grid, so a flux of another cell shape is an error
        g = np.zeros((6, 6, 2))
        with pytest.raises(ValueError, match=r"\(6, 6, 2\).*\(9, 9, 2\)"):
            flux_corrector(g, GridSpec(2, 1, 3))

    def test_skew_by_construction(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(9, 9, 2))
        g -= g.reshape(-1, 2).mean(axis=0)
        s, _ = flux_corrector(g, GridSpec(2, 1, 3))
        assert np.abs(s + np.swapaxes(s, -1, -2)).max() == 0.0
        assert abs(s[..., 0, 1].mean()) < 1e-12

    def test_divergence_exact_for_discrete_curls(self):
        # a rotated discrete gradient is exactly divergence-free, and the
        # reconstruction from the skew potential reproduces it exactly
        rng = np.random.default_rng(1)
        grid = GridSpec(2, 1, 2)
        psi = rng.normal(size=grid.cell_shape)
        grad = discrete_gradient(psi, grid.h, periodic=True)
        g = np.stack([grad[..., 1], -grad[..., 0]], axis=-1)
        _, residual = flux_corrector(g, grid)
        assert residual < 1e-11

    def test_even_torus_residual_is_the_parity_component(self):
        # on the even-sided 54^2 torus each centred flux has a (pi, pi) component, which
        # is divergence-free but the divergence of no skew potential: it is the residual
        f = sample_checkerboard(GridSpec(2, 3, 2), 5)
        n = f.grid.side
        parity = ((-1.0) ** np.add.outer(np.arange(n), np.arange(n)))[..., None]
        cset = periodic_homogenized_matrix(f)
        for g, residual in zip(cset.g, cset.div_residuals):
            part = parity * (g * parity).mean(axis=(0, 1))
            assert residual > 0.1
            assert residual == pytest.approx(weak_norm_estimate(part, f.grid), rel=1e-6)
            assert flux_corrector(g - part, f.grid)[1] < 1e-7

    def test_generic_field_residual_reported(self):
        # an arbitrary mean-zero field is not divergence-free; the residual
        # measures exactly its non-gradient part and stays finite
        rng = np.random.default_rng(2)
        g = rng.normal(size=(9, 9, 2))
        g -= g.reshape(-1, 2).mean(axis=0)
        _, residual = flux_corrector(g, GridSpec(2, 2, 1))
        assert np.isfinite(residual) and residual > 0


class TestPeriodicHomogenized:
    def test_constant_field(self):
        A = np.array([[2.0, 0.3], [0.3, 1.0]])
        cset = periodic_homogenized_matrix(make_constant(GridSpec(2, 1, 2), A))
        assert np.abs(cset.abar - A).max() < 1e-9
        assert max(np.abs(p).max() for p in cset.phi) < 1e-9
        assert max(cset.div_residuals) < 1e-8

    def test_laminate_harmonic_arithmetic(self):
        # layers normal to axis 1: harmonic mean across, arithmetic along
        lam = make_laminate(GridSpec(2, 1, 10), 1.0, 4.0, 1.0, axis=1)
        cset = periodic_homogenized_matrix(lam)
        assert np.abs(cset.abar - np.diag([1.6, 2.5])).max() < 1e-6

    def test_laminate_axis2(self):
        lam = make_laminate(GridSpec(2, 0, 4), 1.0, 4.0, 1.0, axis=2)
        cset = periodic_homogenized_matrix(lam)
        assert np.abs(cset.abar - np.diag([2.5, 1.6])).max() < 1e-6

    def test_corrector_flux_divergence_free_odd_torus(self):
        # on an odd-sided torus every Fourier mode is visible to the discrete
        # derivatives, so the skew reconstruction of the (divergence-free)
        # corrector flux is exact up to solver tolerance
        f = sample_checkerboard(GridSpec(2, 1, 3), 5)
        cset = periodic_homogenized_matrix(f)
        assert max(cset.div_residuals) < 1e-6
        for g in cset.g:
            assert np.abs(g.reshape(-1, 2).mean(axis=0)).max() < 1e-12

    def test_even_torus_parity_content_reported(self):
        # even-sided tori admit cell parity modes with identically zero
        # discrete divergence; flux content there cannot be represented by
        # any skew potential, and the residual reports it instead of hiding it
        f = sample_checkerboard(GridSpec(2, 1, 2), 5)
        cset = periodic_homogenized_matrix(f)
        assert all(np.isfinite(r) for r in cset.div_residuals)
        assert max(cset.div_residuals) < 1.0  # small relative to |g| = O(1)

    def test_abar_within_ellipticity_bounds(self):
        for seed in range(5):
            f = sample_checkerboard(GridSpec(2, 1, 1), seed)
            cset = periodic_homogenized_matrix(f, with_flux_correctors=False)
            ev = np.linalg.eigvalsh(cset.abar)
            assert ev.min() >= f.lam - 1e-7
            assert ev.max() <= f.Lam + 1e-7

    def test_phi_mean_zero(self):
        f = sample_checkerboard(GridSpec(2, 1, 1), 9)
        cset = periodic_homogenized_matrix(f, with_flux_correctors=False)
        for phi in cset.phi:
            assert abs(phi.mean()) < 1e-12


class TestFiniteVolume:
    def test_structure_and_centering(self):
        f = sample_checkerboard(GridSpec(2, 2, 1), 3)
        cset = finite_volume_correctors(f, 2)
        assert cset.mode == "finite-volume"
        assert cset.level == 2
        for phi, g in zip(cset.phi, cset.g):
            assert abs(phi.mean()) < 1e-12
            assert np.abs(g.reshape(-1, 2).mean(axis=0)).max() < 1e-12
        assert np.array_equal(cset.abar, cset.abar.T)
        # the periodization seam makes the reconstruction residual O(1);
        # it is reported, not asserted small
        assert all(np.isfinite(r) for r in cset.div_residuals)

    def test_abar_matches_dirichlet_coarse_matrix(self):
        from hlab.coarse import coarse_matrices
        from hlab.lattice import TriadicCube

        f = sample_checkerboard(GridSpec(2, 1, 1), 4)
        cset = finite_volume_correctors(f, 1)
        r = coarse_matrices(f, TriadicCube(1, (0, 0)))
        assert np.abs(cset.abar - r.a_upper).max() < 1e-6

    def test_constant_field_zero_correctors(self):
        f = make_constant(GridSpec(2, 1, 2), np.eye(2))
        cset = finite_volume_correctors(f, 1)
        assert max(np.abs(p).max() for p in cset.phi) < 1e-9
        assert sublinearity_R(cset) < 1e-9

    def test_cube_above_the_grid_rejected(self):
        f = sample_checkerboard(GridSpec(2, 1, 1), 0)
        with pytest.raises(ValueError, match="exceeds grid level"):
            finite_volume_correctors(f, 2)

    def test_subcube_of_a_larger_field(self):
        # the origin level-1 cube of a level-2 field gives the level-1 field's set
        f = sample_checkerboard(GridSpec(2, 2, 1), 6)
        sub = restrict(f, TriadicCube(1, (0, 0)))
        got, want = finite_volume_correctors(f, 1), finite_volume_correctors(sub, 1)
        assert got.grid == want.grid == sub.grid
        assert np.array_equal(got.abar, want.abar)
        for a, b in zip(got.s + got.phi, want.s + want.phi):
            assert np.array_equal(a, b)


class TestSublinearity:
    def test_requires_finite_volume_mode(self):
        f = sample_checkerboard(GridSpec(2, 1, 1), 0)
        cset = periodic_homogenized_matrix(f)
        with pytest.raises(ValueError):
            sublinearity_R(cset)

    def test_decreasing_ensemble_mean(self):
        # the normalized corrector size shrinks with the cube (8 seeds)
        means = []
        for m in (2, 3):
            vals = [sublinearity_R(finite_volume_correctors(
                sample_checkerboard(GridSpec(2, m, 1), 100 + s), m))
                for s in range(8)]
            means.append(np.mean(vals))
        assert means[1] < means[0]
