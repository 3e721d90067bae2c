"""Variational solves: closed-form oracles, exact identities, a dense reference."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from scipy import fft
from hypothesis import assume, example, given, settings, strategies as st

from hlab.fields import (
    CoefficientField,
    GaussianFieldParams,
    make_constant,
    make_laminate,
    sample_checkerboard,
    sample_gaussian_field,
)
from hlab.lattice import (
    GridSpec,
    TriadicCube,
    discrete_gradient,
    gradient_adjoint,
    stencil_matrix,
    triadic_partition,
)
from hlab import solver, spectral
from hlab.coarse import coarse_matrices, partition_matrices
from hlab.correctors import finite_volume_correctors
from hlab.solver import (
    _amul,
    _flux_load,
    _make_projector,
    _stencil,
    SolveOptions,
    SolverError,
    cg,
    solve_dirichlet_affine,
    solve_dirichlet_data,
    solve_neumann_affine,
    solve_periodic_cell,
)
from hlab.spectral import torus_solve_nodespace
from oracles import (
    amul,
    cell_to_node_adjoint,
    dict_stencil,
    dict_stencil_matrix,
    restrict,
    whole_dirichlet_affine,
    whole_dirichlet_data,
    whole_neumann_affine,
)

CUBE1 = TriadicCube(1, (0, 0))

# spectral grids: d in {2, 3}, 2 to 12 nodes per side of either parity
SHAPES = st.sampled_from([2, 3]).flatmap(
    lambda d: st.lists(st.integers(2, 12), min_size=d, max_size=d).map(tuple))
STEPS = st.floats(1.0 / 81.0, 2.0)


def laminate(m=1, k=10):
    return make_laminate(GridSpec(2, m, k), 1.0, 4.0, 1.0, axis=1)


def anisotropic(grid, seed):
    """A field of general SPD cells with off-diagonal entries."""
    m = np.random.default_rng(seed).normal(size=grid.cell_shape + (grid.d, grid.d))
    a = m @ np.swapaxes(m, -1, -2) + 0.5 * np.eye(grid.d)
    ev = np.linalg.eigvalsh(a)
    return CoefficientField(grid, a, float(ev.min()), float(ev.max()))


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(tol=0.5)
        with pytest.raises(ValueError):
            SolveOptions(maxiter=0)
        with pytest.raises(TypeError):
            SolveOptions(preconditioner="spectral")  # the preconditioner is not an option


class TestDirichletAffine:
    def test_constant_field_exact_affine(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        f = make_constant(GridSpec(2, 1, 3), A)
        p = np.array([1.0, -2.0])
        sol = solve_dirichlet_affine(f, CUBE1, p)
        assert np.abs(sol.gradient - p).max() < 1e-9
        assert sol.energy == pytest.approx(0.5 * p @ A @ p, abs=1e-10)

    def test_zero_slope(self):
        f = sample_checkerboard(GridSpec(2, 1, 1), 0)
        sol = solve_dirichlet_affine(f, CUBE1, [0.0, 0.0])
        assert np.abs(sol.u).max() < 1e-12
        assert sol.energy == 0.0

    def test_mean_gradient_exactly_p(self):
        # discrete Stokes: the cube-average of the minimizer's gradient is p
        f = sample_checkerboard(GridSpec(2, 2, 1), 5)
        p = np.array([0.8, -1.3])
        sol = solve_dirichlet_affine(f, TriadicCube(2, (0, 0)), p)
        assert np.abs(sol.gradient.mean(axis=(0, 1)) - p).max() < 1e-13

    def test_solution_fields_consistent(self):
        f = sample_checkerboard(GridSpec(2, 1, 2), 3)
        sol = solve_dirichlet_affine(f, CUBE1, [1.0, 0.0])
        sub = restrict(f, CUBE1)
        assert np.array_equal(sol.gradient,
                              discrete_gradient(sol.u, sub.grid.h))
        assert np.allclose(sol.flux,
                           np.einsum("...ij,...j->...i", sub.a, sol.gradient))
        assert sol.residual <= 1e-8

    def test_energy_exactly_quadratic(self):
        f = sample_checkerboard(GridSpec(2, 1, 1), 9)
        p = np.array([0.4, 0.7])
        e1 = solve_dirichlet_affine(f, CUBE1, p).energy
        e2 = solve_dirichlet_affine(f, CUBE1, 2.0 * p).energy
        assert e2 == pytest.approx(4.0 * e1, rel=1e-7)

    def test_laminate_interior_approaches_sawtooth(self):
        # transverse boundary faces pin the affine data, so the 1D
        # constant-flux profile (slope 1.6/a) emerges only in the interior,
        # with the deviation shrinking as the cube grows
        devs, energies = [], []
        for m in (1, 2):
            lam = laminate(m)
            sol = solve_dirichlet_affine(lam, TriadicCube(m, (0, 0)), [1.0, 0.0])
            slopes = 1.6 / lam.a[:, 0, 0, 0]
            mid = lam.grid.side // 2
            devs.append(np.abs(sol.gradient[:, mid, 0] - slopes).max())
            energies.append(sol.energy)
        assert devs[1] < 0.5 * devs[0]
        assert energies[0] > energies[1] > 0.5 * 1.6 - 1e-9

    def test_dirichlet_data_general_boundary(self):
        # affine boundary data through the general entry point matches
        f = sample_checkerboard(GridSpec(2, 1, 2), 2)
        g = f.grid
        x, y = np.meshgrid(*[np.arange(n) * g.h for n in g.node_shape], indexing="ij")
        sol_a = solve_dirichlet_affine(f, CUBE1, [1.0, 0.5])
        sol_b = solve_dirichlet_data(f, CUBE1, x + 0.5 * y)
        assert np.abs(sol_a.u - sol_b.u).max() < 1e-7

    def test_matches_dense_direct_solve(self):
        # interior operator assembled column by column from the grid calculus,
        # then solved directly: the CG minimizer must agree, on an isotropic and an
        # anisotropic field, in 3d, and for non-affine boundary data
        cases = {"checkerboard": (sample_checkerboard(GridSpec(2, 1, 2), 7), True),
                 "anisotropic": (anisotropic(GridSpec(2, 1, 2), 7), True),
                 "3d": (sample_checkerboard(GridSpec(3, 1, 2), 7), True),
                 "data": (anisotropic(GridSpec(2, 1, 2), 8), False)}
        for case, (f, affine) in cases.items():
            g = f.grid
            h, d = g.h, g.d
            cube = TriadicCube(1, (0,) * d)
            x = np.meshgrid(*[np.arange(n) * h for n in g.node_shape], indexing="ij")
            if affine:
                p = np.array([1.0, -1.0, 0.5][:d])
                lift = sum(pi * xi for pi, xi in zip(p, x))
                sol = solve_dirichlet_affine(f, cube, p)
            else:
                lift = np.sin(3.0 * x[0]) * np.cos(2.0 * x[1]) + x[0] * x[1] ** 2
                sol = solve_dirichlet_data(f, cube, lift)

            def apply(u):
                grad = discrete_gradient(u, h)
                return gradient_adjoint(np.einsum("...ij,...j->...i", f.a, grad), h)

            inner = (slice(1, -1),) * d
            n_inner = lift[inner].size
            A = np.empty((n_inner, n_inner))
            for k in range(n_inner):
                unit = np.zeros(g.node_shape)
                unit[inner].flat[k] = 1.0
                A[:, k] = apply(unit)[inner].ravel()
            direct = np.linalg.solve(A, -apply(lift)[inner].ravel())
            err = np.abs(sol.u[inner].ravel() - (lift[inner].ravel() + direct)).max()
            assert err < 1e-7, case

    def test_nonconvergence_raises(self):
        f = sample_checkerboard(GridSpec(2, 1, 2), 1)
        with pytest.raises(SolverError) as err:
            solve_dirichlet_affine(f, CUBE1, [1.0, 0.0], SolveOptions(maxiter=1))
        assert err.value.residual is not None


class TestNeumannAffine:
    def test_constant_field_closed_form(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        f = make_constant(GridSpec(2, 1, 3), A)
        q = np.array([1.0, 1.0])
        sol = solve_neumann_affine(f, CUBE1, q)
        assert sol.energy == pytest.approx(0.5 * q @ np.linalg.solve(A, q), abs=1e-9)
        assert np.abs(sol.gradient - np.linalg.solve(A, q)).max() < 1e-7

    def test_zero_flux(self):
        f = sample_checkerboard(GridSpec(2, 1, 1), 0)
        sol = solve_neumann_affine(f, CUBE1, [0.0, 0.0])
        assert sol.energy == 0.0

    def test_laminate_constant_flux_oracle(self):
        # dual value is half the reciprocal harmonic mean; flux is exactly e1
        lam = laminate()
        sol = solve_neumann_affine(lam, CUBE1, [1.0, 0.0])
        assert sol.energy == pytest.approx(0.5 / 1.6, abs=1e-9)
        assert np.abs(sol.flux - np.array([1.0, 0.0])).max() < 1e-9

    def test_mean_flux_exactly_q(self):
        f = sample_checkerboard(GridSpec(2, 2, 1), 8)
        q = np.array([0.3, -1.1])
        sol = solve_neumann_affine(f, TriadicCube(2, (0, 0)), q)
        assert np.abs(sol.flux.mean(axis=(0, 1)) - q).max() < 1e-12

    def test_fenchel_young(self):
        # primal energy + dual value >= p.q up to ten solver tolerances
        f = sample_checkerboard(GridSpec(2, 1, 1), 13)
        r = np.random.default_rng(0)
        for _ in range(20):
            p, q = r.normal(size=2), r.normal(size=2)
            mu = solve_dirichlet_affine(f, CUBE1, p).energy
            mustar = solve_neumann_affine(f, CUBE1, q).energy
            assert mu + mustar >= p @ q - 1e-7

    @pytest.mark.parametrize("d, m", [(2, 2), (3, 1)])
    def test_zero_guess_is_the_cold_start(self, d, m):
        f = sample_checkerboard(GridSpec(d, m, 1), 4)
        cubes = triadic_partition(TriadicCube(m, (0,) * d), m - 1)
        q = np.eye(d)
        cold = solve_neumann_affine(f, cubes, q)
        warm = solve_neumann_affine(f, cubes, q, x0=np.zeros_like(cold.u))
        assert np.array_equal(warm.column_iterations, cold.column_iterations)
        for name in ("u", "gradient", "flux", "energy", "column_residuals"):
            assert np.array_equal(getattr(warm, name), getattr(cold, name))

    def test_guess_changes_the_work_not_the_answer(self):
        # a guess at the cold solution takes no step and reports the same extremal
        f = sample_checkerboard(GridSpec(2, 2, 1), 9)
        cube = TriadicCube(2, (0, 0))
        cold = solve_neumann_affine(f, cube, [1.0, -0.5], SolveOptions(tol=1e-12))
        warm = solve_neumann_affine(f, cube, [1.0, -0.5], x0=cold.u.copy())
        assert cold.iterations > 0 and warm.iterations == 0
        assert warm.energy == pytest.approx(cold.energy, rel=1e-12)
        assert np.abs(warm.flux.mean(axis=(0, 1)) - [1.0, -0.5]).max() < 1e-12


class TestPeriodicCell:
    def test_constant_field_zero_corrector(self):
        f = make_constant(GridSpec(2, 1, 3), np.eye(2))
        sol = solve_periodic_cell(f, [1.0, 0.0])
        assert np.abs(sol.u).max() < 1e-10
        assert sol.energy == pytest.approx(0.5)

    def test_laminate_tangential_no_correction(self):
        sol = solve_periodic_cell(laminate(), [0.0, 1.0])
        assert np.abs(sol.u).max() < 1e-9
        assert sol.energy == pytest.approx(0.5 * 2.5, abs=1e-9)

    def test_laminate_sawtooth_exact(self):
        # on the torus the corrected slope is exactly 1.6/a in direction 1
        lam = laminate()
        sol = solve_periodic_cell(lam, [1.0, 0.0])
        slopes = 1.6 / lam.a[:, 0, 0, 0]
        corrected = sol.gradient[..., 0] + 1.0
        assert np.abs(corrected - slopes[:, None]).max() < 1e-8
        assert sol.energy == pytest.approx(0.5 * 1.6, abs=1e-8)

    def test_mean_zero(self):
        f = sample_checkerboard(GridSpec(2, 1, 2), 21)
        sol = solve_periodic_cell(f, [1.0, 0.0])
        assert abs(sol.u.mean()) < 1e-12


class TestPoissonPeriodic:
    """-lap u = rhs on the torus: the cell load spread to nodes, solved in the Fourier basis."""

    @staticmethod
    def _poisson(rhs, h):
        u = torus_solve_nodespace(cell_to_node_adjoint(rhs, periodic=True) * h**rhs.ndim, h)
        return u - u.mean()

    def test_zero_rhs(self):
        u = self._poisson(np.zeros((9, 9)), 1.0)
        assert np.abs(u).max() == 0.0

    def test_round_trip_identity(self):
        # feed the operator's own output back in and recover the input
        r = np.random.default_rng(4)
        h = 0.5
        u0 = r.normal(size=(12, 12))
        u0 -= u0.mean()
        b = gradient_adjoint(discrete_gradient(u0, h, True), h, True)
        u = torus_solve_nodespace(b, h)
        # agreement up to the operator kernel (constants and parity modes)
        resid = gradient_adjoint(discrete_gradient(u - u0, h, True), h, True)
        assert np.abs(resid).max() < 1e-10

    def test_dipole_antisymmetry(self):
        rhs = np.zeros((9, 9))
        rhs[2, 4] = 1.0
        rhs[6, 4] = -1.0
        u = self._poisson(rhs, 1.0)
        # the reflection x -> 9 - x exchanges the poles (cells 2 and 6);
        # on nodes it is j -> (9 - j) mod 9, so the solution is odd under it
        flipped = np.roll(u[::-1], 1, axis=0)
        assert np.abs(u + flipped).max() < 1e-9


class TestSpectralPlumbing:
    """The spectral solves invert the constant operator; the real transforms
    match the complex-FFT solves they replaced."""

    @staticmethod
    def _apply(u, h, periodic):
        return gradient_adjoint(discrete_gradient(u, h, periodic), h, periodic)

    @settings(max_examples=40, deadline=None)
    @given(SHAPES, STEPS, st.integers(0, 2**32 - 1))
    def test_torus_solve_inverts_operator(self, shape, h, seed):
        u = np.random.default_rng(seed).normal(size=shape)
        b = self._apply(u, h, True)
        b2 = self._apply(torus_solve_nodespace(b, h), h, True)
        assert np.abs(b - b2).max() < 1e-11 * np.abs(b).max()

    @settings(max_examples=40, deadline=None)
    @given(SHAPES, STEPS, st.integers(0, 2**32 - 1))
    def test_dirichlet_solve_inverts_operator(self, shape, h, seed):
        # `shape` is the interior grid; the boundary ring is zero
        from hlab.spectral import dirichlet_solve_nodespace

        inner = np.random.default_rng(seed).normal(size=shape)
        full = np.pad(inner, 1)
        b = self._apply(full, h, False)[tuple(slice(1, -1) for _ in shape)]
        v = dirichlet_solve_nodespace(b, h)
        assert np.abs(v - inner).max() < 1e-11 * np.abs(inner).max()

    @settings(max_examples=40, deadline=None)
    @given(SHAPES, STEPS, st.integers(0, 2**32 - 1))
    def test_neumann_solve_inverts_operator(self, shape, h, seed):
        from hlab.spectral import neumann_solve_nodespace

        u = np.random.default_rng(seed).normal(size=shape)
        b = self._apply(u, h, False)
        b2 = self._apply(neumann_solve_nodespace(b, h), h, False)
        assert np.abs(b - b2).max() < 1e-11 * np.abs(b).max()

    @settings(max_examples=40, deadline=None)
    @given(SHAPES, STEPS, st.integers(0, 2**32 - 1))
    def test_neumann_matches_reflected_torus_solve(self, shape, h, seed):
        from hlab.spectral import neumann_solve_nodespace

        b = np.random.default_rng(seed).normal(size=shape)
        # weight-2 boundary planes, even reflection onto the 2(n - 1) torus,
        # complex FFT solve with the full-spectrum symbol, restriction
        w = b.copy()
        for axis in range(b.ndim):
            w = np.moveaxis(w, axis, 0)
            w[0] *= 2.0
            w[-1] *= 2.0
            w = np.moveaxis(w, 0, axis)
        for axis in range(b.ndim):
            mirror = [slice(None)] * b.ndim
            mirror[axis] = slice(-2, 0, -1)
            w = np.concatenate([w, w[tuple(mirror)]], axis=axis)
        angles = [2.0 * np.pi * np.arange(n) / n for n in w.shape]
        ref = _fft_solve_reference(w, _full_symbol_reference(angles, h))
        ref = ref[tuple(slice(0, n) for n in shape)]
        got = neumann_solve_nodespace(b, h)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @settings(max_examples=40, deadline=None)
    @given(SHAPES, STEPS, st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
    def test_torus_matches_complex_fft_solve(self, shape, h, dt, seed):
        from hlab.spectral import network_symbol, torus_symbol

        b = np.random.default_rng(seed).normal(size=shape)
        angles = [2.0 * np.pi * np.arange(n) / n for n in shape]
        half = tuple(slice(None) for _ in shape[:-1]) + (slice(0, shape[-1] // 2 + 1),)
        full_element = _full_symbol_reference(angles, h)
        full_network = _full_symbol_reference(angles, h, network=True)
        np.testing.assert_allclose(torus_symbol(shape, h), full_element[half], rtol=1e-14)
        np.testing.assert_allclose(network_symbol(shape, h), full_network[half], rtol=1e-14)
        cases = [
            (None, full_element),
            (spectral.pseudo_inverse(network_symbol(shape, h)), full_network),
            (spectral.pseudo_inverse(1.0 + dt * network_symbol(shape, h)), 1.0 + dt * full_network),
        ]
        for inverse, full in cases:
            ref = _fft_solve_reference(b, full)
            got = torus_solve_nodespace(b, h, inverse=inverse)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


    @settings(max_examples=30, deadline=None)
    @given(SHAPES, STEPS, st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_leading_batch_axes_share_the_symbol(self, shape, h, batch, seed):
        # a stack of right-hand sides solves column by column, exactly
        b = np.random.default_rng(seed).normal(size=(batch,) + shape)
        for kind in ("torus", "dirichlet", "neumann"):
            solve = getattr(spectral, f"{kind}_solve_nodespace")
            inverse = spectral.pseudo_inverse(getattr(spectral, f"{kind}_symbol")(shape, h))
            got = solve(b, h, inverse=inverse)
            assert got.shape == b.shape
            for i in range(batch):
                assert np.array_equal(got[i], solve(b[i], h, inverse=inverse))

    @settings(max_examples=40, deadline=None)
    @given(SHAPES, STEPS, st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_float32_on_request(self, shape, h, batch, seed):
        # a float32 load and inverse solve in float32, near the float64 solve; a float64
        # load keeps the exact real-transform arithmetic, bit for bit
        b = np.random.default_rng(seed).normal(size=(batch,) + shape)
        for kind in ("torus", "dirichlet", "neumann"):
            solve = getattr(spectral, f"{kind}_solve_nodespace")
            inverse = spectral.pseudo_inverse(getattr(spectral, f"{kind}_symbol")(shape, h))
            exact = solve(b, h, inverse=inverse)
            assert exact.dtype == np.float64
            assert np.array_equal(exact, _real_transform_reference(kind, b, inverse))
            single = solve(b.astype(np.float32), h, inverse=inverse.astype(np.float32))
            assert single.dtype == np.float32 and single.shape == b.shape
            assert np.abs(single - exact).max() <= 1e-5 * np.abs(exact).max()


def _real_transform_reference(kind, b, inverse):
    """The float64 spectral solve written out: the weight-2 boundary planes of the
    Neumann reflection, the forward transform, one multiply, the inverse transform."""
    axes = tuple(range(-inverse.ndim, 0))
    if kind == "torus":
        return fft.irfftn(fft.rfftn(b, axes=axes) * inverse, s=b.shape[-inverse.ndim:], axes=axes)
    if kind == "dirichlet":
        return fft.idstn(fft.dstn(b, type=1, axes=axes) * inverse, type=1, axes=axes)
    w = b.copy()
    for axis in axes:
        ends = [slice(None)] * w.ndim
        ends[axis] = [0, -1]
        w[tuple(ends)] *= 2.0
    return fft.idctn(fft.dctn(w, type=1, axes=axes) * inverse, type=1, axes=axes)


def _full_symbol_reference(angles, h, network=False):
    """Full-spectrum symbol sum_k 4 sin^2(t_k/2)/h^2 prod_{j!=k} cos^2(t_j/2) on a mode mesh."""
    t = np.meshgrid(*angles, indexing="ij")
    d = len(t)
    sin2 = [np.sin(x / 2.0) ** 2 for x in t]
    cos2 = [np.ones_like(x) if network else np.cos(x / 2.0) ** 2 for x in t]
    return sum(4.0 * sin2[k] / h**2 * np.prod([cos2[j] for j in range(d) if j != k], axis=0)
               for k in range(d))


def _fft_solve_reference(b, symbol):
    """Complex-FFT pseudoinverse: zero on the modes below the 1e-12 eigenvalue floor."""
    bh = np.fft.fftn(b)
    keep = symbol > 1e-12 * symbol.max()
    out = np.zeros_like(bh)
    out[keep] = bh[keep] / symbol[keep]
    return np.fft.ifftn(out).real


# operator grids: d in {2, 3}; 1 to 7 cells per axis (3d: 1 to 4), either parity; 1 to 3 cubes
OPERATOR_GRIDS = st.sampled_from([2, 3]).flatmap(
    lambda d: st.tuples(st.just(d),
                        st.lists(st.integers(1, 7 if d == 2 else 4), min_size=d, max_size=d)
                        .map(tuple),
                        st.integers(1, 3)))
NODES = {"dirichlet": -1, "neumann": 1, "periodic": 0}   # nodes per axis minus cells


class TestAssembledOperator:
    """The assembled stencil is grad^T a grad, and its interior block the zero-boundary
    operator: the matrix-free product is their oracle."""

    @settings(max_examples=80, deadline=None)
    @given(OPERATOR_GRIDS, st.sampled_from(sorted(NODES)), st.booleans(), STEPS,
           st.integers(0, 2**32 - 1))
    @example(grid=(2, (2, 2), 2), bc="dirichlet", isotropic=False, h=1.0, seed=0)
    @example(grid=(3, (2, 2, 2), 3), bc="dirichlet", isotropic=False, h=0.5, seed=1)
    @example(grid=(2, (2, 5), 1), bc="dirichlet", isotropic=True, h=1.0, seed=2)
    @example(grid=(2, (3, 4), 2), bc="periodic", isotropic=False, h=1.0, seed=3)
    @example(grid=(3, (1, 2, 3), 2), bc="periodic", isotropic=False, h=1.0, seed=4)
    # 2 nodes per axis: offsets that share a flat step, such as (0, -1) and (-1, 1), share
    # one diagonal of the free-grid matrix
    @example(grid=(2, (3, 3), 1), bc="dirichlet", isotropic=False, h=1.0, seed=5)
    @example(grid=(2, (3, 3), 2), bc="dirichlet", isotropic=False, h=0.5, seed=6)
    @example(grid=(2, (1, 1), 2), bc="neumann", isotropic=False, h=1.0, seed=7)
    @example(grid=(3, (1, 1, 1), 1), bc="neumann", isotropic=False, h=1.0, seed=8)
    @example(grid=(3, (3, 3, 3), 1), bc="dirichlet", isotropic=False, h=1.0, seed=9)
    def test_product_matches_matrix_free(self, grid, bc, isotropic, h, seed):
        d, cells, ncube = grid
        assume(bc != "dirichlet" or min(cells) >= 2)     # an interior node on every axis
        r = np.random.default_rng(seed)
        if isotropic:
            a = r.uniform(1.0, 4.0, size=(ncube,) + cells)[..., None, None] * np.eye(d)
        else:
            # general SPD cells with off-diagonal entries
            m = r.normal(size=(ncube,) + cells + (d, d))
            a = m @ np.swapaxes(m, -1, -2) + 0.5 * np.eye(d)
        nodes = tuple(n + NODES[bc] for n in cells)
        u = r.normal(size=(ncube,) + nodes)
        periodic = bc == "periodic"
        full = np.pad(u, [(0, 0)] + [(1, 1)] * d) if bc == "dirichlet" else u
        ref = gradient_adjoint(np.einsum("...ij,...j->...i", a,
                                         discrete_gradient(full, h, periodic, d)), h, periodic)
        if bc == "dirichlet":
            ref = ref[(slice(None),) + (slice(1, -1),) * d]
        stencil = dict(_stencil(a, h, periodic)[1])
        if bc == "dirichlet":
            inner = (...,) + (slice(1, -1),) * d
            stencil = {delta: c[inner] for delta, c in stencil.items()}
        A = stencil_matrix(stencil.items(), periodic)
        got = (A @ u.ravel()).reshape(ref.shape)
        # relative to the size of the terms: their cancellation can leave ref near zero
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(a).max() * np.abs(u).max() / h**2
        # the cubes of a partition are blocks: no entry couples two cubes
        coo = A.tocoo()
        block = math.prod(nodes)
        assert np.array_equal(coo.row // block, coo.col // block)
        if periodic:
            # the torus keeps CSR; wrapped offsets would make full-length diagonals
            assert A.format == "csr" and A.indices.dtype == np.int32
        else:
            # one diagonal per distinct flat step, and no index array
            assert A.format == "dia" and len(set(A.offsets)) == len(A.offsets)
        if isotropic and d == 2 and (not periodic or min(nodes) >= 3):
            # axis-neighbour entries cancel exactly and drop out of the matrix (a torus
            # narrower than 3 nodes wraps diagonal neighbours onto axis neighbours)
            at = [np.array(np.unravel_index(i % block, nodes)) for i in (coo.row, coo.col)]
            offsets = (at[1] - at[0]) % np.array(nodes)[:, None]
            assert not ((offsets != 0).sum(axis=0) == 1).any()


def _full_stencil(a, h, periodic):
    """Every offset of grad^T a grad, zero or not: the reference for `_stencil`."""
    d = a.shape[-1]
    nodes = tuple(n + (not periodic) for n in a.shape[1:1 + d])
    pad = [(0, 0)] + [(1, 0) if periodic else (1, 1)] * d
    comps = {(k, l): np.pad(c, pad, mode="wrap" if periodic else "constant")
             for k, l in itertools.product(range(d), repeat=2) if (c := a[..., k, l]).any()}
    stencil = {}
    for delta in itertools.product((-1, 0, 1), repeat=d):
        coef = np.zeros(a.shape[:1] + nodes)
        for sigma in itertools.product((0, 1), repeat=d):
            tau = [s + t for s, t in zip(sigma, delta)]
            if all(0 <= t <= 1 for t in tau):
                view = (slice(None),) + tuple(slice(1 - s, 1 - s + n)
                                              for s, n in zip(sigma, nodes))
                for (k, l), comp in comps.items():
                    sign = (2 * sigma[k] - 1) * (2 * tau[l] - 1)
                    coef = coef + comp[view] if sign > 0 else coef - comp[view]
        stencil[delta] = coef / (h * h * 4 ** (d - 1))
    return stencil


class TestStencilOffsets:
    """`_stencil` leaves out the offsets whose coefficients all vanish; the matrix is the
    one the full stencil of every offset assembles to."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("kind", ["checkerboard", "anisotropic"])
    def test_matrix_equals_full_stencil_matrix(self, d, periodic, kind):
        grid = GridSpec(d, 2, 1)
        a = (sample_checkerboard(grid, 4) if kind == "checkerboard" else
             anisotropic(grid, 4)).a[None]
        stencil = dict(_stencil(a, grid.h, periodic)[1])
        full = _full_stencil(a, grid.h, periodic)
        assert all(full[delta].any() == (delta in stencil) for delta in full)
        if kind == "checkerboard" and d == 2:
            # isotropic cells: the four axis offsets cancel
            assert sorted(stencil) == [(-1, -1), (-1, 1), (0, 0), (1, -1), (1, 1)]
        if kind == "anisotropic":
            assert len(stencil) == 3**d
        got, ref = (stencil_matrix(s.items(), periodic) for s in (stencil, full))
        for name in ("indptr", "indices", "data") if periodic else ("offsets", "data"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))


class TestProjector:
    @pytest.mark.parametrize("nodes", [(7, 7), (7, 7, 7), (8, 8), (7, 8), (4, 4, 4)])
    def test_free_grid_projection(self, nodes):
        # odd node counts: the constant and parity modes overlap, and the
        # projector must still remove their whole span
        d = len(nodes)
        v = np.random.default_rng(d).normal(size=(2,) + nodes)
        project = _make_projector(nodes, periodic=False)
        pv = project(v.copy())
        assert np.abs(project(pv.copy()) - pv).max() <= 1e-14 * np.abs(pv).max()
        subsets = [()] + [s for r in range(2, d + 1) for s in itertools.combinations(range(d), r)]
        for axes in subsets:
            mode = np.ones(nodes)
            for ax in axes:
                mode = mode * ((-1.0) ** np.arange(nodes[ax])).reshape(
                    [-1 if i == ax else 1 for i in range(d)])
            along = np.abs(pv.reshape(2, -1) @ mode.ravel()) / np.linalg.norm(mode)
            assert along.max() <= 1e-14 * np.linalg.norm(v), axes



class TestKernel:
    """The projector, the operator and the spectral preconditioner agree on the kernel
    that the Neumann and periodic solves project off their loads, guesses and solutions."""

    SHAPES = [(5, 5), (6, 6), (5, 6), (3, 3, 3), (4, 4, 4), (3, 4, 4)]

    @staticmethod
    def _setup(bc, shape, checkerboard=False):
        # the projector, its modes as orthonormal rows, the operator of general SPD (or
        # contrast-4 checkerboard) cells, and the pseudo-inverse of its constant part
        periodic, h, d = bc == "torus", 1.0 / 3.0, len(shape)
        project = _make_projector(shape, periodic)
        n = math.prod(shape)
        eye = np.eye(n).reshape((n,) + shape)
        u, sv, _ = np.linalg.svd((eye - project(eye.copy())).reshape(n, n))
        modes = u[:, sv > 0.5].T
        cells = (1,) + tuple(k - (not periodic) for k in shape)
        r = np.random.default_rng(len(shape))
        if checkerboard:
            a = np.where(r.random(cells) < 0.5, 1.0, 4.0)[..., None, None] * np.eye(d)
        else:
            m = r.normal(size=cells + (d, d))
            a = m @ np.swapaxes(m, -1, -2) + 0.5 * np.eye(d)
        A = stencil_matrix(_stencil(a, h, periodic)[1], periodic=periodic)
        inverse = spectral.pseudo_inverse(getattr(spectral, f"{bc}_symbol")(shape, h))
        return project, modes, A, inverse, h

    @pytest.mark.parametrize("bc", ["neumann", "torus"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_operator_annihilates_the_modes_the_preconditioner_zeroes(self, bc, shape):
        project, modes, A, inverse, h = self._setup(bc, shape)
        scale = np.abs(A.toarray()).max()
        assert max(np.abs(A @ mode).max() for mode in modes) <= 1e-14 * scale
        if len(shape) == 2:
            # in 3d the pseudo-inverse zeroes more: (-1)^(i_r + i_s) f(i_t) has no gradient
            # either, and the projector leaves those modes to the loads, which have none
            assert len(modes) == np.count_nonzero(inverse == 0.0)
        if bc == "torus":
            # the torus pseudo-inverse zeroes them in the Euclidean product
            solved = spectral.torus_solve_nodespace(modes.reshape((-1,) + shape), h,
                                                    inverse=inverse)
            assert np.abs(solved).max() <= 1e-14 / scale

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_torus_preconditioner_keeps_projected_vectors_off_the_kernel(self, shape, dtype):
        project, modes, _, inverse, h = self._setup("torus", shape)
        v = project(np.random.default_rng(1).normal(size=(3,) + shape))
        z = spectral.torus_solve_nodespace(v.astype(dtype), h, inverse=inverse.astype(dtype))
        along = np.abs(z.astype(float).reshape(3, -1) @ modes.T).max()
        assert along <= 2 * np.finfo(dtype).eps * np.abs(z).max()

    @pytest.mark.parametrize("tol", [1e-8, 1e-13])
    @pytest.mark.parametrize("bc", ["neumann", "torus"])
    @pytest.mark.parametrize("shape", [(6, 6), (7, 7), (4, 4, 4), (5, 5, 5)])
    def test_projection_inside_the_loop_changes_no_step(self, bc, shape, tol):
        # the kernel part of a preconditioned residual reaches only the iterate (the
        # Neumann one has one in the Euclidean product: the DCT-I zeroes the modes in a
        # trapezoid-weighted one), so a CG that projects every preconditioned residual
        # takes the same steps as one that projects its load before and its iterate after
        project, modes, A, inverse, h = self._setup(bc, shape, checkerboard=True)
        dtype = np.float32 if tol >= solver._SINGLE_TOL else np.float64
        solve = getattr(spectral, f"{bc}_solve_nodespace")

        def precondition(r):
            return solve(r.astype(dtype), h, inverse=inverse.astype(dtype)).astype(float)

        # a load in the range of A, as every solve's is (in 3d the projector's modes are
        # not the whole kernel, so a projected random vector is not)
        b = (A @ np.random.default_rng(3).normal(size=A.shape[0])).reshape((1,) + shape)
        x, res, its = cg(A, b, precondition, tol, 500)
        x_in, res_in, its_in = cg(A, b, lambda r: project(precondition(r)), tol, 500)
        x = project(x)
        assert its[0] == its_in[0] > 0
        assert abs(res[0] - res_in[0]) <= 1e-3 * tol
        assert np.abs(x - x_in).max() <= tol * np.abs(x_in).max()
        assert np.abs(modes @ x.ravel()).max() <= 1e-14 * np.abs(x).max()

    def test_torus_guess_offset_by_a_constant_takes_no_step(self):
        # a solve projects its guess like its load, so a constant offset drops out
        grid = GridSpec(2, 1, 2)
        a = sample_checkerboard(grid, 5).a[None]
        A = stencil_matrix(_stencil(a, grid.h, True)[1], periodic=True)
        b = np.random.default_rng(4).normal(size=(1, 1) + grid.cell_shape)
        opts = SolveOptions(tol=1e-10)
        x = np.zeros_like(b)
        _, its = solver._solve(A, lambda i: b[i].copy(), x, grid.h, "periodic", opts)
        assert its[0, 0] > 0 and abs(x.mean()) <= 1e-15
        x2 = x + 3.0
        res2, its2 = solver._solve(A, lambda i: b[i].copy(), x2, grid.h, "periodic", opts,
                                   warm=True)
        assert its2[0, 0] == 0 and res2[0, 0] <= 1e-10
        assert np.abs(x2 - x).max() <= 1e-12 * np.abs(x).max()


# partitions: d in {2, 3}, macro level m <= 3 (3d: m <= 2), partition level n < m
PARTITIONS = st.sampled_from([2, 3]).flatmap(
    lambda d: st.integers(1, 3 if d == 2 else 2).flatmap(
        lambda m: st.tuples(st.just(d), st.just(m), st.integers(0, m - 1))))
FIELD_KINDS = st.sampled_from(["checkerboard", "gaussian"])


def partition_field(kind, d, m, seed):
    grid = GridSpec(d, m, 1)
    if kind == "checkerboard":
        return sample_checkerboard(grid, seed)
    return sample_gaussian_field(grid, seed, GaussianFieldParams(0.5, 1.0, truncation=2))


class TestBatchedCG:
    """One CG over a block of columns: per-column steps, residuals and stops."""

    @staticmethod
    def _diagonal_problem(spectrum, supports, seed):
        # a diagonal operator on a 4 x 4 grid, block-diagonal over the columns (its first
        # 16 x 16 block is one column's); column i has its load on supports[i]
        A = scipy.sparse.diags_array(np.tile(np.resize(spectrum, 16), len(supports)),
                                     format="csr")
        b = np.random.default_rng(seed).normal(size=(len(supports), 4, 4))
        for col, support in zip(b, supports):
            col.ravel()[np.setdiff1d(np.arange(16), support)] = 0.0
        return A, b

    def test_column_stopping_early_keeps_its_iterate(self):
        # column 0 (load on one eigenvalue) converges at once, column 1 (the
        # whole spread spectrum) runs on; each ends exactly where its solo run does
        A, b = self._diagonal_problem(np.linspace(1.0, 50.0, 16),
                                      [[3], np.arange(16), np.arange(0, 16, 3)], 0)
        x, res, its = cg(A, b, _identity, 1e-10, 100)
        assert its[0] == 1 and its[1] > its[2] > its[0]
        for i in range(len(b)):
            xi, ri, ti = cg(A[:16, :16], b[i:i + 1], _identity, 1e-10, 100)
            assert np.array_equal(x[i], xi[0])
            assert res[i] == ri[0] <= 1e-10 and its[i] == ti[0]

    def test_zero_columns_take_no_steps(self):
        A, b = self._diagonal_problem(np.linspace(1.0, 9.0, 16), [np.arange(16)] * 3, 1)
        b[1] = 0.0
        x, res, its = cg(A, b, _identity, 1e-10, 100)
        assert its[1] == 0 and res[1] == 0.0 and np.array_equal(x[1], np.zeros((4, 4)))
        assert its[0] > 0 and its[2] > 0
        x, res, its = cg(A, np.zeros_like(b), _identity, 1e-10, 100)
        assert not its.any() and not res.any() and not x.any()

    def test_failing_column_is_named(self):
        # only the third column loads the negative eigenvalue
        A, b = self._diagonal_problem([1.0] * 15 + [-1.0], [[0], [1], [15]], 2)
        with pytest.raises(SolverError, match="positive definiteness.* on column c"):
            cg(A, b, _identity, 1e-10, 100, labels=["a", "b", "column c"])
        A, b = self._diagonal_problem(np.linspace(1.0, 50.0, 16), [[0], np.arange(16)], 3)
        with pytest.raises(SolverError, match="in 2 iterations.* on slow") as err:
            cg(A, b, _identity, 1e-10, 2, labels=["fast", "slow"])
        assert err.value.iterations == 2 and err.value.residual > 1e-10

    def test_guess_at_the_solution_takes_no_step(self):
        A, b = self._diagonal_problem(np.linspace(1.0, 50.0, 16), [np.arange(16)] * 2, 4)
        exact = b / A.diagonal().reshape(b.shape)
        x, res, its = cg(A, b, _identity, 1e-10, 100, x0=exact)
        assert not its.any() and res.max() <= 1e-10 and np.array_equal(x, exact)

    def test_bad_guess_meets_the_tolerance_of_b(self):
        # the stopping rule is relative to b, not to the guess's residual
        A, b = self._diagonal_problem(np.linspace(1.0, 50.0, 16), [np.arange(16)] * 2, 5)
        guess = 1e3 * np.random.default_rng(6).normal(size=b.shape)
        x, res, its = cg(A, b, _identity, 1e-8, 100, x0=guess)
        assert np.all(its > 0) and np.all(res <= 1e-8)
        for xi, bi in zip(x, b):
            residual = bi.ravel() - A[:16, :16] @ xi.ravel()
            assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(bi)

    def test_zero_column_ignores_its_guess(self):
        A, b = self._diagonal_problem(np.linspace(1.0, 9.0, 16), [np.arange(16)] * 2, 7)
        b[1] = 0.0
        guess = np.random.default_rng(8).normal(size=b.shape)
        x, res, its = cg(A, b, _identity, 1e-10, 100, x0=guess)
        assert its[1] == 0 and res[1] == 0.0 and not x[1].any()
        assert its[0] > 0 and res[0] <= 1e-10

    def test_batched_guesses_equal_solo_runs(self):
        A, b = self._diagonal_problem(np.linspace(1.0, 50.0, 16),
                                      [[3], np.arange(16), np.arange(0, 16, 3)], 9)
        guess = np.random.default_rng(10).normal(size=b.shape)
        x, res, its = cg(A, b, _identity, 1e-10, 100, x0=guess)
        for i in range(len(b)):
            xi, ri, ti = cg(A[:16, :16], b[i:i + 1], _identity, 1e-10, 100, x0=guess[i:i + 1])
            assert np.array_equal(x[i], xi[0])
            assert res[i] == ri[0] <= 1e-10 and its[i] == ti[0]

    @pytest.mark.parametrize("guessed", [False, True])
    def test_preconditioner_may_return_its_argument(self, guessed):
        # a preconditioner that hands back the residual itself (plain CG) runs the same
        # steps, bit for bit, as one that returns a copy: no write to r comes before z is
        # consumed, with batched columns and with a column that stops first (nrun < ncol)
        A, b = self._diagonal_problem(np.linspace(1.0, 50.0, 16),
                                      [[3], np.arange(16), np.arange(0, 16, 3)], 14)
        # a guess on each column's support keeps column 0 on one eigenvalue
        x0 = np.random.default_rng(15).normal(size=b.shape) * (b != 0) if guessed else None
        seen = []

        def same(r):
            seen.append(r)
            return r

        x, res, its = cg(A, b, same, 1e-10, 100, x0=x0)
        x2, res2, its2 = cg(A, b, lambda r: r.copy(), 1e-10, 100, x0=x0)
        assert its.min() < its.max() and len(seen) == its.max()
        assert np.array_equal(x, x2) and np.array_equal(res, res2) and np.array_equal(its, its2)

    def test_overwritten_guess_becomes_the_iterate(self):
        # the copying run keeps its guess; the overwriting run returns the guess's buffer
        A, b = self._diagonal_problem(np.linspace(1.0, 50.0, 16), [np.arange(16)] * 2, 11)
        guess = np.random.default_rng(12).normal(size=b.shape)
        kept = guess.copy()
        x, res, its = cg(A, b, _identity, 1e-10, 100, x0=guess)
        assert np.array_equal(guess, kept)
        x2, res2, its2 = cg(A, b.copy(), _identity, 1e-10, 100, x0=guess, overwrite=True)
        assert np.shares_memory(x2, guess) and np.array_equal(x2, x)
        assert np.array_equal(res2, res) and np.array_equal(its2, its)

    def test_overwritten_load_becomes_the_residual(self):
        # every residual the overwriting run preconditions lives in b's buffer; the
        # default run leaves b as it was, and both runs agree bit for bit
        A, b = self._diagonal_problem(np.linspace(1.0, 50.0, 16), [np.arange(16)] * 2, 13)
        kept = b.copy()
        x, res, its = cg(A, b, _identity, 1e-10, 100)
        assert np.array_equal(b, kept)
        in_b = []

        def spy(r):
            in_b.append(np.shares_memory(r, b))
            return r

        x2, res2, its2 = cg(A, b, spy, 1e-10, 100, overwrite=True)
        assert len(in_b) == its.max() and all(in_b)
        assert np.array_equal(x2, x) and np.array_equal(res2, res) and np.array_equal(its2, its)
        # a load the CG cannot write to is copied, as without the flag
        locked = kept.copy()
        locked.flags.writeable = False
        x3, _, _ = cg(A, locked, _identity, 1e-10, 100, overwrite=True)
        assert np.array_equal(locked, kept) and np.array_equal(x3, x)


def _identity(v):
    return v


class TestPreconditionerPrecision:
    """tol >= 1e-12 preconditions in float32, a smaller tol in float64; the CG's
    residual, preconditioned residual and iterate are float64 either way."""

    @pytest.mark.parametrize("tol, dtype", [(1e-12, np.float32), (1e-13, np.float64)])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann", "torus"])
    def test_spectral_solve_dtype_follows_tol(self, monkeypatch, tol, dtype, bc):
        seen = {"spectral": set(), "cg": set()}
        for kind in ("torus", "dirichlet", "neumann"):
            real = getattr(spectral, f"{kind}_solve_nodespace")

            def spy(b, h, *, inverse=None, kind=kind, real=real):
                seen["spectral"].add((kind, b.dtype, inverse.dtype))
                return real(b, h, inverse=inverse)

            monkeypatch.setattr(spectral, f"{kind}_solve_nodespace", spy)

        def cg_spy(A, b, precondition, *args, **kwargs):
            def traced(r):
                z = precondition(r)
                seen["cg"].add(("r", r.dtype))
                seen["cg"].add(("z", z.dtype))
                return z

            x, res, its = cg(A, b, traced, *args, **kwargs)
            seen["cg"].add(("x", x.dtype))
            return x, res, its

        monkeypatch.setattr(solver, "cg", cg_spy)
        f = sample_checkerboard(GridSpec(2, 2, 1), 3)
        opts = SolveOptions(tol=tol)
        sol = {"dirichlet": lambda: solve_dirichlet_affine(f, f.grid.macro_cube(), np.eye(2), opts),
               "neumann": lambda: solve_neumann_affine(f, f.grid.macro_cube(), np.eye(2), opts),
               "torus": lambda: solve_periodic_cell(f, np.eye(2), opts)}[bc]()
        assert sol.iterations > 0 and sol.residual <= tol
        assert seen["spectral"] == {(bc, np.dtype(dtype), np.dtype(dtype))}
        assert seen["cg"] == {(name, np.dtype(np.float64)) for name in ("r", "z", "x")}


class TestBatchedSolves:
    """A stack of slopes and a list of same-level cubes is one batched solve;
    each column is that (slope, cube) pair's solve."""

    @settings(max_examples=12, deadline=None)
    @given(PARTITIONS, FIELD_KINDS, st.integers(0, 2**32 - 1))
    def test_columns_equal_single_cube_solves(self, dmn, kind, seed):
        d, m, n = dmn
        f = partition_field(kind, d, m, seed)
        cubes = triadic_partition(TriadicCube(m, (0,) * d), n)
        ps = np.random.default_rng(seed).normal(size=(2, d))
        for solve in (solve_dirichlet_affine, solve_neumann_affine):
            batch = solve(f, cubes, ps)
            assert batch.u.shape == (2, len(cubes)) + GridSpec(d, n, 1).node_shape
            assert batch.iterations == batch.column_iterations.sum()
            assert batch.residual == batch.column_residuals.max() <= 1e-8
            # the per-column arithmetic is that of the single solve, so columns match exactly
            for j, (i, cube) in itertools.product(range(2), enumerate(cubes)):
                one = solve(f, cube, ps[j])
                assert (batch.column_iterations[j, i], batch.column_residuals[j, i],
                        batch.energy[j, i]) == (one.iterations, one.residual, one.energy)
                for name in ("u", "gradient", "flux"):
                    assert np.array_equal(getattr(batch, name)[j, i], getattr(one, name))

    def test_nonconvergent_column_names_its_cube(self):
        f = sample_checkerboard(GridSpec(2, 2, 1), 1)
        cubes = triadic_partition(TriadicCube(2, (0, 0)), 1)
        named = r"on TriadicCube\(level=1, offset=\(\d, \d\)\)"
        with pytest.raises(SolverError, match=named) as err:
            solve_neumann_affine(f, cubes, [1.0, 0.0], SolveOptions(maxiter=1))
        assert err.value.iterations == 1 and err.value.residual > 1e-8

    def test_indefinite_cube_is_named(self):
        # flip the sign of one subcube's coefficients: only its column loses definiteness
        f = sample_checkerboard(GridSpec(2, 2, 1), 4)
        f.a[3:6, 6:9] *= -1.0
        cubes = triadic_partition(TriadicCube(2, (0, 0)), 1)
        named = r"definiteness.* on TriadicCube\(level=1, offset=\(3, 6\)\)"
        with pytest.raises(SolverError, match=named):
            solve_dirichlet_affine(f, cubes, [1.0, 0.0])

    def test_mixed_levels_rejected(self):
        f = sample_checkerboard(GridSpec(2, 2, 1), 0)
        with pytest.raises(ValueError, match="one level"):
            solve_dirichlet_affine(f, [TriadicCube(1, (0, 0)), TriadicCube(0, (0, 0))], [1.0, 0.0])


class TestPerDirectionCG:
    """Each basis direction runs its own CG; every output equals that of one CG over all
    the directions' columns, bit for bit."""

    @staticmethod
    def _count_columns(monkeypatch):
        # the number of columns of each CG call, so a test sees which path ran
        calls = []

        def counting_cg(A, b, *args, **kwargs):
            calls.append(len(b))
            return cg(A, b, *args, **kwargs)

        monkeypatch.setattr(solver, "cg", counting_cg)
        return calls

    @staticmethod
    def _repeat_blocks(A, k):
        # the block-diagonal operator of k copies of A, each row summed in A's order
        n = A.shape[0]
        if isinstance(A, scipy.sparse.dia_array):
            return scipy.sparse.dia_array((np.tile(A.data, (1, k)), A.offsets), shape=(k * n,) * 2)
        indices = np.concatenate([A.indices + i * n for i in range(k)])
        indptr = np.concatenate([A.indptr[:-1] + i * A.nnz for i in range(k)] + [[k * A.nnz]])
        return scipy.sparse.csr_array((np.tile(A.data, k), indices, indptr), shape=(k * n,) * 2)

    @classmethod
    def _one_cg(cls, monkeypatch):
        # the reference: fold the k directions into the cube axis, so the k B columns of a
        # solve run in one CG over k copies of the operator, each direction's cubes
        # labelled again
        per_direction = solver._solve

        def one_cg(A, load, x, h, bc, opts, labels=None, warm=False):
            fold = (1, -1) + x.shape[2:]
            b = np.stack([load(i) for i in range(len(x))]).reshape(fold)
            res, its = per_direction(cls._repeat_blocks(A, len(x)), b.__getitem__, x.reshape(fold),
                                     h, bc, opts, None if labels is None else labels * len(x), warm)
            return res.reshape(x.shape[:2]), its.reshape(x.shape[:2])

        monkeypatch.setattr(solver, "_solve", one_cg)

    @pytest.mark.parametrize("d, m", [(2, 3), (3, 2)])
    def test_coarse_pair_is_bit_identical(self, monkeypatch, d, m):
        f = sample_checkerboard(GridSpec(d, m, 1), 3)
        cube = TriadicCube(m, (0,) * d)
        calls = self._count_columns(monkeypatch)
        split = coarse_matrices(f, cube)
        assert calls == [1] * (2 * d)
        calls.clear()
        self._one_cg(monkeypatch)
        batched = coarse_matrices(f, cube)
        assert calls == [d, d]
        for name in ("a_upper", "a_lower", "basis_iterations", "dirichlet_means",
                     "neumann_means"):
            assert np.array_equal(getattr(split, name), getattr(batched, name)), name
        assert (split.residual, split.iterations) == (batched.residual, batched.iterations)

    def test_periodic_and_finite_volume_columns_are_bit_identical(self, monkeypatch):
        f = sample_checkerboard(GridSpec(2, 3, 1), 6)
        calls = self._count_columns(monkeypatch)
        periodic, fv = solve_periodic_cell(f, np.eye(2)), finite_volume_correctors(f, 2)
        assert calls == [1] * 4
        calls.clear()
        self._one_cg(monkeypatch)
        periodic2, fv2 = solve_periodic_cell(f, np.eye(2)), finite_volume_correctors(f, 2)
        assert calls == [2, 2]
        for name in ("u", "gradient", "flux", "energy", "column_iterations",
                     "column_residuals"):
            assert np.array_equal(getattr(periodic2, name), getattr(periodic, name)), name
        assert np.array_equal(fv2.abar, fv.abar)
        for name in ("phi", "g", "s"):
            assert all(np.array_equal(x, y) for x, y in zip(getattr(fv2, name), getattr(fv, name)))

    def test_partition_keeps_its_cubes_and_its_guess(self, monkeypatch):
        # each direction's CG spans every cube, and a handed-over guess becomes the solution
        f = sample_checkerboard(GridSpec(2, 3, 1), 8)
        cubes = triadic_partition(TriadicCube(3, (0, 0)), 2)
        guess = np.random.default_rng(9).normal(size=(2, len(cubes)) + (10, 10))
        guess0 = guess.copy()
        calls = self._count_columns(monkeypatch)
        split = solve_neumann_affine(f, cubes, np.eye(2), x0=guess)
        assert calls == [len(cubes)] * 2
        assert np.shares_memory(split.u, guess)
        calls.clear()
        self._one_cg(monkeypatch)
        batched = solve_neumann_affine(f, cubes, np.eye(2), x0=guess0)
        assert calls == [2 * len(cubes)]
        for name in ("u", "flux", "energy", "column_iterations", "column_residuals"):
            assert np.array_equal(getattr(split, name), getattr(batched, name)), name

    def test_nonconvergence_names_a_cube(self):
        f = sample_checkerboard(GridSpec(2, 2, 1), 1)
        named = r"on TriadicCube\(level=1, offset=\(\d, \d\)\)"
        with pytest.raises(SolverError, match=named) as err:
            partition_matrices(f, TriadicCube(2, (0, 0)), 1, SolveOptions(maxiter=1))
        assert err.value.iterations == 1 and err.value.residual > 1e-8


def _cells(kind, d, cells, ncube, seed):
    """Coefficient blocks (ncube, *cells, d, d): isotropic, general SPD, or diagonal cells whose
    axis-offset terms alternate in sign from one layer of cells to the next."""
    r = np.random.default_rng(seed)
    shape = (ncube,) + (cells,) * d
    if kind == "isotropic":
        return r.uniform(1.0, 4.0, size=shape)[..., None, None] * np.eye(d)
    if kind == "anisotropic":
        m = r.normal(size=shape + (d, d))
        return m @ np.swapaxes(m, -1, -2) + 0.5 * np.eye(d)
    # diag(1, 2) and diag(2, 1) layers along the last axis: on interior nodes the two cells
    # of each axis-0 edge cancel exactly, so the interior block drops those offsets
    layer = np.arange(cells) % 2
    a = np.zeros(shape + (d, d))
    a[..., 0, 0] = 1.0 + layer
    a[..., 1, 1] = 2.0 - layer
    return a


class TestStreamedAssembly:
    """The free-grid operator is streamed into its diagonals, one offset at a time: its
    offsets and data equal those built from the whole stencil dict, bit for bit, and its
    data holds the kept diagonals only."""

    CASES = [(kind, d, cells, ncube) for kind in ("isotropic", "anisotropic")
             for d in (2, 3) for cells in (1, 3, 5) for ncube in (1, 3)]

    @staticmethod
    def _streamed(a, h, interior):
        inner = (...,) + (slice(1, -1),) * a.shape[-1]
        offsets, stencil = _stencil(a, h, False)
        if interior:
            stencil = ((delta, c[inner]) for delta, c in stencil)
        return stencil_matrix(stencil, offsets=offsets)

    @staticmethod
    def _whole(a, h, interior):
        inner = (...,) + (slice(1, -1),) * a.shape[-1]
        stencil = dict_stencil(a, h, False)
        if interior:
            stencil = {delta: c[inner] for delta, c in stencil.items()}
        return dict_stencil_matrix(stencil)

    @staticmethod
    def _assert_same(got, ref):
        rows = got.shape[0]
        assert np.array_equal(got.offsets, ref.offsets)
        assert got.data.tobytes() == ref.data.tobytes()
        # one owned row per kept diagonal, none of them all zero
        assert got.data.shape == (len(got.offsets), rows) and got.data.base is None
        assert got.data.any(axis=1).all()

    @pytest.mark.parametrize("kind, d, cells, ncube", CASES)
    def test_equals_dict_builder(self, kind, d, cells, ncube):
        a = _cells(kind, d, cells, ncube, seed=cells + 10 * ncube)
        h = 0.5
        stream = dict(_stencil(a, h, False)[1])
        whole = dict_stencil(a, h, False)
        assert list(stream) == list(whole)
        assert all(stream[delta].tobytes() == whole[delta].tobytes() for delta in whole)
        for interior in (False, True) if cells >= 2 else (False,):
            self._assert_same(self._streamed(a, h, interior), self._whole(a, h, interior))
        if kind == "isotropic" and d == 2:
            # the 2d axis offsets cancel exactly on isotropic cells: they are not computed
            assert sorted(_stencil(a, h, False)[0]) == [(-1, -1), (-1, 1), (0, 0), (1, -1), (1, 1)]

    def test_two_node_axes_share_a_flat_step(self):
        # on a 2 x 2 interior grid (0, -1) and (-1, 1) both step by -1: one summed diagonal
        a = _cells("anisotropic", 2, 3, 2, seed=5)
        got, ref = self._streamed(a, 1.0, True), self._whole(a, 1.0, True)
        self._assert_same(got, ref)
        assert len(got.offsets) < 9

    def test_offset_that_vanishes_on_the_interior_is_cut(self):
        # every computed offset gets a row when the data is allocated; the axis-0 offsets
        # vanish on the interior block only, so their rows are cut off
        a = _cells("layered", 2, 6, 1, seed=0)
        got, ref = self._streamed(a, 1.0, True), self._whole(a, 1.0, True)
        self._assert_same(got, ref)
        assert len(got.offsets) == 7 and len(self._streamed(a, 1.0, False).offsets) == 9

    @pytest.mark.parametrize("d", [2, 3])
    def test_torus_stencil_equals_dict(self, d):
        a = _cells("anisotropic", d, 3, 1, seed=d)
        stream, whole = dict(_stencil(a, 0.5, True)[1]), dict_stencil(a, 0.5, True)
        assert list(stream) == list(whole)
        assert all(stream[delta].tobytes() == whole[delta].tobytes() for delta in whole)


def _same_solution(got, ref):
    for name in ("u", "gradient", "flux", "energy", "column_iterations", "column_residuals"):
        x, y = getattr(got, name), getattr(ref, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), name
    assert (got.iterations, got.residual) == (ref.iterations, ref.residual)


class TestWholeArrayRoute:
    """The streamed assembly, the loads made one direction at a time, the lift made again
    after the CG and the row-wise products give the whole-array route's arrays, bit for bit."""

    SETUPS = [("checkerboard", 2, 3, 2), ("checkerboard", 3, 2, 1), ("gaussian", 2, 3, 1)]

    @pytest.mark.parametrize("kind, d, m, n", SETUPS)
    def test_dirichlet_affine(self, kind, d, m, n):
        f = partition_field(kind, d, m, 11)
        cube = TriadicCube(m, (0,) * d)
        opts = SolveOptions(tol=1e-10)
        slopes = np.random.default_rng(2).normal(size=(2, d))
        for target in (cube, triadic_partition(cube, n)):
            _same_solution(solve_dirichlet_affine(f, target, slopes, opts),
                           whole_dirichlet_affine(f, target, slopes, opts))

    @pytest.mark.parametrize("kind, d, m, n", SETUPS)
    def test_dirichlet_data(self, kind, d, m, n):
        f = partition_field(kind, d, m, 12)
        boundary = np.random.default_rng(3).normal(size=f.grid.node_shape)
        opts = SolveOptions(tol=1e-10)
        _same_solution(solve_dirichlet_data(f, f.grid.macro_cube(), boundary, opts),
                       whole_dirichlet_data(f, f.grid.macro_cube(), boundary, opts))

    @pytest.mark.parametrize("kind, d, m, n", SETUPS)
    def test_neumann_affine(self, kind, d, m, n):
        f = partition_field(kind, d, m, 13)
        cube = TriadicCube(m, (0,) * d)
        opts = SolveOptions(tol=1e-10)
        fluxes = np.eye(d)
        rng = np.random.default_rng(4)
        for target in (cube, triadic_partition(cube, n)):
            ncube = 1 if isinstance(target, TriadicCube) else len(target)
            guess = rng.normal(size=(d, ncube) + GridSpec(d, n if ncube > 1 else m, 1).node_shape)
            if ncube == 1:
                guess = guess[:, 0]
            _same_solution(solve_neumann_affine(f, target, fluxes, opts),
                           whole_neumann_affine(f, target, fluxes, opts))
            # the guess is handed over to the CG, so each route gets its own copy
            _same_solution(solve_neumann_affine(f, target, fluxes, opts, x0=guess.copy()),
                           whole_neumann_affine(f, target, fluxes, opts, x0=guess.copy()))

    @pytest.mark.parametrize("d", [2, 3])
    def test_row_wise_amul(self, d):
        r = np.random.default_rng(d)
        a = r.normal(size=(3,) + (4,) * d + (d, d))
        g = r.normal(size=(2, 3) + (4,) * d + (d,))
        assert _amul(a, g).tobytes() == amul(a, g).tobytes()
        # a constant row per column, as the periodic solve's affine part
        e = r.normal(size=(2, 1) + (1,) * d + (d,))
        assert _amul(a[:1], e).tobytes() == amul(a[:1], e).tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("cells", [1, 2, 5])
    def test_flux_load_is_the_adjoint_bit_for_bit(self, d, cells):
        grid = GridSpec(d, 0, cells)
        for q in (np.eye(d)[0], np.random.default_rng(cells).normal(size=d), np.zeros(d)):
            ref = gradient_adjoint(np.broadcast_to(q, (3,) + grid.cell_shape + (d,)), grid.h)
            load = _flux_load(q, 3, grid)
            assert load.tobytes() == ref.tobytes()
            inner = load[(slice(None),) + (slice(1, -1),) * d]
            assert not inner.any()      # the load lives on the boundary nodes


class TestWorkingSet:
    """A coarse pair's peak of traced allocations, in units of one node field, stays below
    the whole-array route's: assembly, loads and products stay under the CG's working set."""

    @pytest.mark.parametrize("d, m, bound", [(2, 4, 16.0), (3, 2, 56.0)])
    def test_coarse_pair_peak(self, d, m, bound):
        f = sample_checkerboard(GridSpec(d, m, 1), 7)
        field = 8 * f.grid.node_shape[0] ** d
        cube = f.grid.macro_cube()
        coarse_matrices(f, cube)        # warm caches outside the measurement
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            coarse_matrices(f, cube)
            peak = (tracemalloc.get_traced_memory()[1] - start) / field
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < bound, f"pair peak {peak:.2f} node fields >= {bound}"
