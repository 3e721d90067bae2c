"""Coarse-grained matrix pair: ordering, subadditivity, duality bookkeeping."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hlab.coarse
import hlab.solver
from hlab import spectral
from hlab.coarse import (
    CascadeRecord,
    cascade_record,
    coarse_matrices,
    duality_defect,
    partition_matrices,
    spatial_average_identities,
    subadditivity_ledger,
)
from hlab.fields import (
    GaussianFieldParams,
    make_constant,
    make_laminate,
    sample_checkerboard,
    sample_gaussian_field,
)
from hlab.harness import ExperimentConfig, run_experiment
from hlab.lattice import GridSpec, TriadicCube, triadic_partition
from hlab.solver import (
    SolveOptions,
    SolverError,
    cg,
    solve_dirichlet_affine,
    solve_neumann_affine,
)
from oracles import J_value

TOL10 = 1e-7  # ten solver tolerances


def min_eig(M):
    return float(np.linalg.eigvalsh(M).min())


class TestCoarseMatrices:
    def test_constant_field_both_exact(self):
        A = np.array([[2.0, 0.4], [0.4, 1.5]])
        f = make_constant(GridSpec(2, 1, 2), A)
        r = coarse_matrices(f, TriadicCube(1, (0, 0)))
        assert np.abs(r.a_upper - A).max() < 1e-8
        assert np.abs(r.a_lower - A).max() < 1e-8

    def test_single_cell_closed_form(self):
        f = sample_checkerboard(GridSpec(2, 1, 1), 3)
        cube = TriadicCube(0, (1, 2))
        r = coarse_matrices(f, cube)
        acell = f.a[1, 2]
        assert np.array_equal(r.a_upper, acell)
        assert np.array_equal(r.a_lower, acell)
        assert r.iterations == 0

    def test_symmetry_enforced(self):
        f = sample_checkerboard(GridSpec(2, 1, 1), 1)
        r = coarse_matrices(f, TriadicCube(1, (0, 0)))
        assert np.array_equal(r.a_upper, r.a_upper.T)
        assert np.array_equal(r.a_lower, r.a_lower.T)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(1, 2))
    def test_bilinear_readout_matches_polarization(self, seed, d, m):
        # reference: each matrix polarized from energies at e_i, e_j and e_i + e_j
        f = sample_checkerboard(GridSpec(d, m, 1), seed)
        cube = TriadicCube(m, (0,) * d)
        es = np.eye(d)

        def polarize(solve):
            E = lambda v: solve(f, cube, v).energy
            diag = [E(e) for e in es]
            M = np.diag(2.0 * np.array(diag))
            for i in range(d):
                for j in range(i + 1, d):
                    M[i, j] = M[j, i] = E(es[i] + es[j]) - diag[i] - diag[j]
            return M

        r = coarse_matrices(f, cube)
        assert np.abs(r.a_upper - polarize(solve_dirichlet_affine)).max() < 1e-12
        a_lower = np.linalg.inv(polarize(solve_neumann_affine))
        assert np.abs(r.a_lower - a_lower).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_d_basis_solves_per_kind(self, d, monkeypatch):
        calls = {"dirichlet": [], "neumann": []}

        def spy(kind, solve):
            def counted(*args, **kwargs):
                sol = solve(*args, **kwargs)
                calls[kind].append(sol)
                return sol
            return counted

        monkeypatch.setattr(hlab.coarse, "solve_dirichlet_affine",
                            spy("dirichlet", solve_dirichlet_affine))
        monkeypatch.setattr(hlab.coarse, "solve_neumann_affine",
                            spy("neumann", solve_neumann_affine))
        r = coarse_matrices(sample_checkerboard(GridSpec(d, 1, 1), 4), TriadicCube(1, (0,) * d))
        # the d basis solves of each kind are the d columns of one call
        assert [s.column_iterations.shape for s in calls["dirichlet"]] == [(d, 1)]
        assert [s.column_iterations.shape for s in calls["neumann"]] == [(d, 1)]
        assert r.iterations == sum(s.iterations for s in calls["dirichlet"] + calls["neumann"]) > 0

    def test_ordering_chain_20_seeds(self):
        # lam I <= a*(U) <= a(U) <= cube mean of a <= Lam I as PSD inequalities
        g = GridSpec(2, 1, 1)
        cube = TriadicCube(1, (0, 0))
        for seed in range(20):
            f = sample_checkerboard(g, seed)
            r = coarse_matrices(f, cube)
            mean_a = f.a.mean(axis=(0, 1))
            assert min_eig(r.a_lower - f.lam * np.eye(2)) >= -TOL10
            assert min_eig(r.a_upper - r.a_lower) >= -TOL10
            assert min_eig(mean_a - r.a_upper) >= -TOL10
            assert min_eig(f.Lam * np.eye(2) - mean_a) >= -TOL10

    def test_laminate_large_cube_converges(self):
        # both matrices pinch toward diag(1.6, 2.5) as the cube grows
        lam = make_laminate(GridSpec(2, 2, 2), 1.0, 4.0, 1.0, axis=1)
        r = coarse_matrices(lam, TriadicCube(2, (0, 0)))
        target = np.diag([1.6, 2.5])
        assert np.abs(r.a_lower - target).max() < 0.2
        assert np.abs(r.a_upper - target).max() < 0.5
        assert min_eig(r.a_upper - r.a_lower) >= -TOL10


class TestSinglePrecisionPreconditioner:
    """Float32 preconditioner transforms leave the pair and its CG counts where the
    float64 preconditioner puts them; below tol 1e-12 the solves stay float64."""

    @pytest.mark.parametrize("d, m", [(2, 3), (3, 2)])
    def test_pair_matches_float64_preconditioned_reference(self, monkeypatch, d, m):
        f = sample_checkerboard(GridSpec(d, m, 1), 2)
        cube, h = TriadicCube(m, (0,) * d), f.grid.h
        got = coarse_matrices(f, cube)

        # the reference: the same solves, each CG preconditioned by the float64 spectral solve
        kinds = {(3**m - 1,) * d: "dirichlet", (3**m + 1,) * d: "neumann"}
        used = []

        def cg64(A, b, precondition, *args, **kwargs):
            kind = kinds[b.shape[1:]]
            used.append(kind)
            inverse = spectral.pseudo_inverse(getattr(spectral, f"{kind}_symbol")(b.shape[1:], h))
            solve = getattr(spectral, f"{kind}_solve_nodespace")
            return cg(A, b, lambda r: solve(r, h, inverse=inverse), *args, **kwargs)

        monkeypatch.setattr(hlab.solver, "cg", cg64)
        ref = coarse_matrices(f, cube)
        assert used == ["dirichlet"] * d + ["neumann"] * d      # one CG per basis direction
        assert got.iterations == ref.iterations
        for name in ("a_upper", "a_lower"):
            want = getattr(ref, name)
            assert np.abs(getattr(got, name) - want).max() <= 1e-12 * np.abs(want).max()

    def test_tol_below_cutoff_converges_in_float64(self):
        # with float32 transforms this pair stalls at a residual near 2.5e-14 and runs out
        # its 2,000 iterations; the float64 preconditioner converges in 120 (126 when the
        # Neumann half starts from zero)
        f = sample_checkerboard(GridSpec(2, 5, 1), 5)
        r = coarse_matrices(f, TriadicCube(5, (0, 0)), SolveOptions(tol=1e-14, maxiter=2000))
        assert r.iterations == 120 and r.residual <= 1e-14


class TestNeumannWarmStart:
    """The Neumann half starts from the Dirichlet extremals combined through a(U)^-1:
    fewer CG steps, a(U) untouched and a*(U) within the CG tolerance of the cold start."""

    @pytest.mark.parametrize("d, m, seed", [(2, 5, 7), (3, 3, 7)])
    def test_matches_the_cold_start(self, monkeypatch, d, m, seed):
        f = sample_checkerboard(GridSpec(d, m, 1), seed)
        cube = TriadicCube(m, (0,) * d)
        warm = coarse_matrices(f, cube)
        guesses = []

        def cold_solve(a_field, cube, q, opts=None, x0=None):
            guesses.append(x0)
            return solve_neumann_affine(a_field, cube, q, opts)

        monkeypatch.setattr(hlab.coarse, "solve_neumann_affine", cold_solve)
        cold = coarse_matrices(f, cube)
        # the guess has the extremals' shape: a column per basis flux
        assert len(guesses) == 1 and guesses[0].shape == (d, 1) + (3**m + 1,) * d
        assert np.array_equal(warm.a_upper, cold.a_upper)
        assert np.abs(warm.a_lower - cold.a_lower).max() <= 1e-12 * np.abs(cold.a_lower).max()
        neumann = [r.basis_iterations[1].sum() for r in (warm, cold)]
        assert neumann[0] < neumann[1]
        assert warm.iterations - neumann[0] == cold.iterations - neumann[1]

    def test_level5_pair_saves_neumann_steps(self):
        r = coarse_matrices(sample_checkerboard(GridSpec(2, 5, 1), 7), TriadicCube(5, (0, 0)))
        # 20 per column from a zero start
        assert r.basis_iterations[1].tolist() == [17, 17]


class TestPartitionMatrices:
    """One batched solve per basis problem covers every subcube of a partition."""

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(
               lambda d: st.integers(1, 3 if d == 2 else 2).flatmap(
                   lambda m: st.tuples(st.just(d), st.just(m), st.integers(0, m - 1)))),
           st.sampled_from(["checkerboard", "gaussian"]), st.integers(0, 2**32 - 1))
    def test_equals_per_cube_pairs(self, dmn, kind, seed):
        d, m, n = dmn
        grid = GridSpec(d, m, 1)
        f = (sample_checkerboard(grid, seed) if kind == "checkerboard" else
             sample_gaussian_field(grid, seed, GaussianFieldParams(0.5, 1.0, truncation=2)))
        cube = TriadicCube(m, (0,) * d)
        batch = partition_matrices(f, cube, n)
        loop = [coarse_matrices(f, c) for c in triadic_partition(cube, n)]
        assert [r.cube for r in batch] == [r.cube for r in loop]
        for got, ref in zip(batch, loop):
            assert got.iterations == ref.iterations
            for name in ("a_upper", "a_lower"):
                a, b = getattr(got, name), getattr(ref, name)
                assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()

    def test_constant_subcubes_take_no_dirichlet_steps(self):
        # two subcubes hold one cell matrix: their Dirichlet columns have a zero
        # right-hand side, report 0 iterations and read a(U) exactly
        f = sample_checkerboard(GridSpec(2, 2, 1), 6)
        f.a[0:3, 0:3] = np.eye(2)
        f.a[3:6, 3:6] = 4.0 * np.eye(2)
        results = partition_matrices(f, TriadicCube(2, (0, 0)), 1)
        for k, value in ((0, 1.0), (4, 4.0)):
            r = results[k]
            assert r.basis_iterations[0].tolist() == [0, 0]
            assert np.array_equal(r.a_upper, value * np.eye(2))
            assert np.abs(r.a_lower - value * np.eye(2)).max() < 1e-12
        others = [r for k, r in enumerate(results) if k not in (0, 4)]
        assert all((r.basis_iterations[0] > 0).all() for r in others)

    def test_d_solves_per_kind_for_729_cubes(self, monkeypatch):
        calls = {"dirichlet": [], "neumann": []}

        def spy(kind, solve):
            def counted(*args, **kwargs):
                sol = solve(*args, **kwargs)
                calls[kind].append(sol)
                return sol
            return counted

        monkeypatch.setattr(hlab.coarse, "solve_dirichlet_affine",
                            spy("dirichlet", solve_dirichlet_affine))
        monkeypatch.setattr(hlab.coarse, "solve_neumann_affine",
                            spy("neumann", solve_neumann_affine))
        f = sample_checkerboard(GridSpec(2, 4, 1), 3)
        results = partition_matrices(f, TriadicCube(4, (0, 0)), 1)
        assert len(results) == 729
        # one call per kind, with a column per (basis direction, cube)
        assert len(calls["dirichlet"]) == 1 and len(calls["neumann"]) == 1
        assert calls["dirichlet"][0].column_iterations.shape == (2, 729)
        assert sum(r.iterations for r in results) == sum(
            s.iterations for s in calls["dirichlet"] + calls["neumann"])
        # each cube's per-basis counts are its columns of the batched solves
        for k in (0, 728):
            assert results[k].basis_iterations.tolist() == [
                calls[kind][0].column_iterations[:, k].tolist()
                for kind in ("dirichlet", "neumann")]

    def test_nonconvergence_names_a_cube(self):
        f = sample_checkerboard(GridSpec(2, 2, 1), 1)
        named = r"on TriadicCube\(level=1, offset=\(\d, \d\)\)"
        with pytest.raises(SolverError, match=named) as err:
            partition_matrices(f, TriadicCube(2, (0, 0)), 1, SolveOptions(maxiter=1))
        assert err.value.iterations == 1 and err.value.residual > 1e-8


class TestPairMemory:
    """A coarse pair keeps d x d numbers, not fields, and frees the Dirichlet batch
    before the Neumann CG."""

    @pytest.mark.parametrize("d, m, n", [(2, 3, 3), (2, 3, 1), (2, 2, 0), (3, 2, 1)])
    def test_results_hold_no_cell_or_node_array(self, d, m, n):
        results = partition_matrices(sample_checkerboard(GridSpec(d, m, 1), 2),
                                     TriadicCube(m, (0,) * d), n)
        for r in results:
            assert r.iterations == r.basis_iterations.sum()
            for name, value in vars(r).items():
                assert not isinstance(value, (list, tuple, hlab.solver.Solution)), name
                if isinstance(value, np.ndarray):
                    root = value
                    while isinstance(root.base, np.ndarray):
                        root = root.base
                    # at most 2 d x d numbers per cube, the size of the means
                    assert root.size <= 2 * d * d * len(results), name

    def test_stored_means_are_the_extremals_means(self):
        f = sample_checkerboard(GridSpec(2, 3, 1), 5)
        cube = TriadicCube(3, (0, 0))
        r = coarse_matrices(f, cube)
        dirs = solve_dirichlet_affine(f, cube, np.eye(2))
        neus = solve_neumann_affine(f, cube, np.eye(2))
        cells = (1, 2)
        for stored, sol, tol in ((r.dirichlet_means, dirs, 1e-15), (r.neumann_means, neus, TOL10)):
            for got, field in zip(stored, (sol.gradient, sol.flux)):
                assert np.abs(got - field.mean(axis=cells)).max() <= tol
        assert r.basis_iterations[0].tolist() == dirs.column_iterations.tolist()

    def test_level5_pair_traced_peak(self):
        # the pair's traced peak reads 8.75 MB; the bound leaves 10% for allocator detail
        f = sample_checkerboard(GridSpec(2, 5, 1), 7)
        cube = TriadicCube(5, (0, 0))
        # a small pair first, so that nothing a first call sets up counts
        coarse_matrices(sample_checkerboard(GridSpec(2, 2, 1), 7), TriadicCube(2, (0, 0)))
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            r = coarse_matrices(f, cube)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert r.iterations == 68
        assert peak <= 1.1 * 8.75 * 2**20


class TestJAndDuality:
    def test_J_nonnegative_random(self):
        f = sample_checkerboard(GridSpec(2, 1, 1), 7)
        r = coarse_matrices(f, TriadicCube(1, (0, 0)))
        rng = np.random.default_rng(0)
        for _ in range(50):
            p, q = rng.normal(size=2), rng.normal(size=2)
            assert J_value(r, p, q) >= -TOL10 * (1 + p @ p + q @ q)

    def test_J_vanishes_at_matched_data(self):
        # constant field: q = A p saturates both energies
        A = np.diag([2.0, 3.0])
        f = make_constant(GridSpec(2, 1, 2), A)
        r = coarse_matrices(f, TriadicCube(1, (0, 0)))
        p = np.array([1.0, -1.0])
        assert abs(J_value(r, p, A @ p)) < 1e-7

    def test_duality_defect_controls_gap(self):
        # empirical calibration: the basis J sum bounds the spectral gap
        # within a factor 10 across seeds (d = 2, values {1, 4})
        g = GridSpec(2, 2, 1)
        cube = TriadicCube(2, (0, 0))
        for seed in range(30):
            r = coarse_matrices(sample_checkerboard(g, seed), cube)
            dd = duality_defect(r)
            assert dd["bound"] >= -TOL10
            assert dd["gap"] <= 10.0 * dd["bound"] + TOL10
            # the closed form tr(a - a*) / 2 is the basis J sum at q = a* p
            J_sum = sum(J_value(r, e, r.a_lower @ e) for e in np.eye(2))
            assert dd["bound"] == pytest.approx(J_sum, rel=1e-12)


class TestSubadditivity:
    def test_slacks_nonnegative_50_seeds(self):
        # parent upper matrix below the child arithmetic mean; parent lower
        # matrix above the child harmonic mean
        g = GridSpec(2, 2, 1)
        for seed in range(50):
            f = sample_checkerboard(g, seed)
            led = subadditivity_ledger(f, 2, 1)
            assert led["upper_slack_min_eig"] >= -TOL10
            assert led["lower_slack_min_eig"] >= -TOL10

    def test_level_validation(self):
        f = sample_checkerboard(GridSpec(2, 1, 1), 0)
        with pytest.raises(ValueError):
            subadditivity_ledger(f, 1, 1)


class TestSpatialAverages:
    def test_first_variation_identities(self):
        # mean gradient of the Dirichlet extremal is exactly the slope;
        # mean flux of the Neumann extremal is exactly the flux datum;
        # the cross averages match the coarse matrices to ten tolerances
        g = GridSpec(2, 1, 1)
        for seed in range(10):
            r = coarse_matrices(sample_checkerboard(g, seed), TriadicCube(1, (0, 0)))
            drift = spatial_average_identities(r)
            assert drift["grad_exact"] < 1e-12
            assert drift["flux_exact"] < 1e-12
            assert drift["flux_vs_matrix"] < TOL10
            assert drift["grad_vs_matrix"] < TOL10

    def test_single_cell_trivial(self):
        f = sample_checkerboard(GridSpec(2, 0, 1), 0)
        r = coarse_matrices(f, TriadicCube(0, (0, 0)))
        assert spatial_average_identities(r)["max"] == 0.0


class TestCascadeCsv:
    def test_cascade_levels_and_round_trip(self, tmp_path):
        f = sample_checkerboard(GridSpec(2, 2, 1), 6)
        cube = TriadicCube(2, (0, 0))
        recs = [cascade_record(n, partition_matrices(f, cube, n)) for n in (0, 1, 2)]
        assert [r.level for r in recs] == [0, 1, 2]
        assert recs[0].gap_mean == pytest.approx(0.0, abs=1e-12)  # single cells
        assert recs[2].gap_mean > 0
        # the stacked level statistics equal the means of the per-cube defects
        per_cube = [duality_defect(r) for r in partition_matrices(f, cube, 1)]
        assert recs[1].gap_mean == pytest.approx(np.mean([dd["gap"] for dd in per_cube]),
                                                 rel=1e-12)
        assert recs[1].defect_bound_mean == pytest.approx(
            np.mean([dd["bound"] for dd in per_cube]), rel=1e-12)
        # the coarsen experiment writes the same records to cascade.csv, losslessly
        run_experiment(ExperimentConfig(kind="coarsen", grid={"d": 2, "m": 2, "k": 1},
                                        scales=[0, 1, 2], master_seed=6,
                                        output_dir=str(tmp_path)))
        with open(tmp_path / "cascade.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        ij = ["00", "01", "10", "11"]
        blocks = ("a_upper_mean", "a_upper_var", "a_lower_harm")
        assert reader.fieldnames == (["level", "gap_mean", "defect_bound_mean"]
                                     + [f"{name}_{k}" for name in blocks for k in ij])
        for rec, row in zip(recs, rows, strict=True):
            assert int(row["level"]) == rec.level
            assert float(row["gap_mean"]) == rec.gap_mean
            assert float(row["defect_bound_mean"]) == rec.defect_bound_mean
            for name, matrix in zip(blocks, (rec.a_upper_mean, rec.a_upper_var,
                                             rec.a_lower_harmonic)):
                assert [float(row[f"{name}_{k}"]) for k in ij] == matrix.ravel().tolist()
