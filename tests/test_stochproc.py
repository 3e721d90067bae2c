"""Conductance network, random walk covariance, parabolic Green function."""

import numpy as np
import pytest
import scipy.special
import scipy.stats

import hlab.spectral
import hlab.stochproc
from hlab.fields import (
    make_constant,
    make_laminate,
    sample_checkerboard,
)
from hlab.lattice import GridSpec
from hlab.solver import cg
from hlab.stochproc import (
    _site_rates,
    _walk_displacements,
    _walk_tables,
    build_network,
    green_symmetry_check,
    network_homogenized_matrix,
    network_operator,
    parabolic_green,
    simulate_walks,
)
from oracles import event_loop_walks, uniformized_laws, zero_start_green


class TestNetwork:
    def test_constant_identity_conductances(self):
        net = build_network(make_constant(GridSpec(2, 1, 1), np.eye(2)))
        for c in net.cond:
            assert np.abs(c - 1.0).max() == 0.0

    def test_harmonic_mean_edges(self):
        lam = make_laminate(GridSpec(2, 0, 4), 1.0, 4.0, 1.0, axis=1)
        net = build_network(lam)
        # inside a layer: 1 or 4; crossing a 1|4 interface: 2/(1 + 1/4) = 1.6
        vals = np.unique(net.cond[0].round(12))
        assert set(vals) == {1.0, 1.6, 4.0}
        # tangential edges stay inside one layer
        assert set(np.unique(net.cond[1])) == {1.0, 4.0}

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])   # odd and even torus sides
    def test_operator_matches_edge_sum(self, d, k):
        net = build_network(sample_checkerboard(GridSpec(d, 1, k), 3))
        h = net.grid.h
        v = np.random.default_rng(k).normal(size=net.grid.cell_shape)
        ref = np.zeros_like(v)
        for j, c in enumerate(net.cond):
            flux = c * (np.roll(v, -1, axis=j) - v) / h
            ref += (np.roll(flux, 1, axis=j) - flux) / h      # D_j^T (c_j D_j v)
        got = (network_operator(net) @ v.ravel()).reshape(v.shape)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(v).max() * net.Lam / h**2

    def test_homogenized_constant_exact(self):
        net = build_network(make_constant(GridSpec(2, 2, 1), np.diag([2.0, 3.0])))
        ab = network_homogenized_matrix(net)
        assert np.abs(ab - np.diag([2.0, 3.0])).max() < 1e-9

    def test_homogenized_laminate_exact(self):
        # the network inherits the 1D structure: harmonic mean across the
        # layers, arithmetic along them
        lam = make_laminate(GridSpec(2, 1, 2), 1.0, 4.0, 1.0, axis=1)
        ab = network_homogenized_matrix(build_network(lam))
        assert np.abs(ab - np.diag([1.6, 2.5])).max() < 1e-8

    def test_homogenized_within_bounds(self):
        f = sample_checkerboard(GridSpec(2, 2, 1), 5)
        ab = network_homogenized_matrix(build_network(f))
        ev = np.linalg.eigvalsh(ab)
        assert ev.min() > 0.5 * f.lam
        assert ev.max() < 1.5 * f.Lam

    @pytest.mark.parametrize("d", [2, 3])
    def test_homogenized_matches_dense_cell_problem(self, monkeypatch, d):
        # each axis is one CG of one row; the matrix is that of a dense least-squares solve
        # of L chi_k = -D_k^T c_k, read as the mean corrected edge flux
        # mean(c_j (D_j chi_k + delta_jk)) on the 9^d torus
        net = build_network(sample_checkerboard(GridSpec(d, 2, 1), 11))
        rows = []

        def counting_cg(A, b, *args, **kwargs):
            rows.append(len(b))
            return cg(A, b, *args, **kwargs)

        monkeypatch.setattr(hlab.stochproc, "cg", counting_cg)
        got = network_homogenized_matrix(net)
        assert rows == [1] * d
        h, L = net.grid.h, network_operator(net).toarray()
        ref = np.empty((d, d))
        for k, ck in enumerate(net.cond):
            load = (ck - np.roll(ck, 1, axis=k)) / h
            chi = np.linalg.lstsq(L, load.ravel(), rcond=None)[0].reshape(load.shape)
            for j, cj in enumerate(net.cond):
                ref[j, k] = (cj * ((np.roll(chi, -1, axis=j) - chi) / h + (j == k))).mean()
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def _table_laws(table, n_sites):
    """Each outcome's probability read back from one level's cut and alias tables."""
    cut, alias, _, disp = table
    n = len(disp)
    accept = cut.reshape(n_sites, n) - np.arange(n)
    prob = accept.copy()
    np.add.at(prob, (np.arange(n_sites)[:, None], alias.reshape(n_sites, n)), 1.0 - accept)
    return prob / n


def _moment_errors(X):
    """Per coordinate, the standard deviation of X and of each centred product."""
    Y = X - X.mean(axis=0)
    return Y.std(axis=0), np.einsum("pi,pj->pij", Y, Y).std(axis=0)


class TestWalks:
    @pytest.mark.parametrize("fld, levels", [
        (sample_checkerboard(GridSpec(2, 1, 1), 3), 3),
        (make_laminate(GridSpec(2, 1, 2), 1.0, 4.0, 1.0, axis=1), 3),   # h = 1/2
        (sample_checkerboard(GridSpec(3, 1, 1), 4), 2),
    ], ids=["checkerboard-2d", "laminate-2d", "checkerboard-3d"])
    def test_block_laws_are_kernel_powers(self, fld, levels):
        # each level's outcome probabilities, read back from its alias tables, are the
        # 2^l-th power of the lifted one-step kernel: the dense tilted-matrix oracle
        net = build_network(fld)
        grid = net.grid
        n_sites = grid.side**grid.d
        rate, laws = uniformized_laws(net, 2**levels, 2**levels)
        box = laws.shape[-1]
        tables = _walk_tables(grid, _site_rates(net), levels)
        assert len(tables) == levels + 1
        assert _site_rates(net).sum(axis=1).max() == pytest.approx(rate, rel=1e-15)
        coords = np.indices(grid.cell_shape).reshape(grid.d, -1).T
        for level, table in enumerate(tables):
            _, alias, dest, disp = table
            assert np.abs(disp).sum(axis=1).max() == 2**level
            want = laws[2**level][(slice(None),) + tuple((disp % box).T)]
            assert np.abs(_table_laws(table, n_sites) - want).max() <= 1e-13
            assert np.abs(want.sum(axis=1) - 1.0).max() <= 1e-13     # no mass off the ball
            ends = np.ravel_multi_index(tuple((coords[:, None] + disp).T), grid.cell_shape,
                                        mode="wrap").T
            assert np.array_equal(dest.reshape(n_sites, -1), ends)
            assert alias.dtype.itemsize == 1 and dest.dtype.itemsize == 1

    def test_displacement_law_chi_square(self):
        # X_T on a 3^2 checkerboard with Lam* T = 3 against the uniformization series
        # sum_n Poisson(n; Lam* T) P_n(0, .), truncated where the tail is below 1e-15
        net = build_network(sample_checkerboard(GridSpec(2, 1, 1), 3))
        steps = 25
        rate, laws = uniformized_laws(net, steps, steps)
        T = 3.0 / rate
        n = np.arange(steps + 1)
        weights = np.exp(n * np.log(3.0) - 3.0 - scipy.special.gammaln(n + 1))
        law = np.tensordot(weights, laws[:, 0], axes=1)
        n_paths = 20_000
        X, counts, *_ = _walk_displacements(net, [T], n_paths, seed=2024)
        box = law.shape[0]
        observed = np.zeros_like(law)
        np.add.at(observed, tuple((X[0] % box).T), 1)
        expected = n_paths * law
        big = expected >= 5.0
        obs = np.append(observed[big], observed[~big].sum())
        exp = np.append(expected[big], expected[~big].sum())
        stat = ((obs - exp) ** 2 / exp).sum()
        assert big.sum() > 20
        assert scipy.stats.chi2.sf(stat, len(obs) - 1) >= 1e-3
        assert counts.mean() == pytest.approx(3.0, rel=0.05)

    @pytest.mark.parametrize("fld, T", [
        (make_laminate(GridSpec(2, 1, 2), 1.0, 4.0, 1.0, axis=1), 8.0),
        (sample_checkerboard(GridSpec(3, 1, 1), 5), 10.0),
    ], ids=["laminate-2d", "checkerboard-3d"])
    def test_moments_match_event_loop(self, fld, T):
        # mean and covariance at two sample times agree with the jump-by-jump oracle
        # within 4 standard errors of their difference
        net = build_network(fld)
        times = [T / 3.0, T]
        n_paths = 4000
        rep = simulate_walks(net, T, n_paths, seed=8, sample_times=times)
        assert rep.metadata["block"] >= 4
        ref = event_loop_walks(net, T, n_paths, 9, times)
        for mean, cov, X in zip(rep.mean_displacement, rep.covariances, ref):
            sd, sd_prod = _moment_errors(X)
            scale = np.sqrt(2.0 / n_paths)
            assert np.all(np.abs(mean - X.mean(axis=0)) <= 4.0 * scale * sd)
            assert np.all(np.abs(cov - np.cov(X.T)) <= 4.0 * scale * sd_prod)

    def test_steps_bounded_by_blocks(self):
        # the bench laminate with the bench's 10^4 paths takes blocks of K = 8; each
        # segment takes at most ceil(max count / K) + log2 K loop steps, and the report's
        # counters say so
        net = build_network(make_laminate(GridSpec(2, 2, 2), 1.0, 4.0, 1.0, axis=1))
        times = [0.0, 25.0, 25.0, 100.0]
        _, counts, rate, block, steps = _walk_displacements(net, times, 10_000, seed=5)
        assert (rate, block) == (pytest.approx(44.8, rel=1e-14), 8)
        assert steps <= sum(-(-c.max() // block) + np.log2(block) for c in counts if c.max())
        assert steps >= sum(c.max() // block for c in counts)
        rep = simulate_walks(net, 100.0, 10_000, seed=5, sample_times=times)
        assert rep.metadata == {"rate": rate, "block": block, "events": int(counts.sum()),
                                "steps": steps}
        assert np.array_equal(rep.covariances[0], np.zeros((2, 2)))

    @pytest.mark.parametrize("T, block", [(20.0, 1), (30.0, 2)])
    def test_block_pays_for_its_tables(self, T, block):
        # on 18^3 the K = 2 tables, 7 + 25 slots a site, exceed TABLE_SLOTS, and K = 2 is
        # still taken once it pays: SLOT_DRAWS * 5,832 sites * 25 outcomes = 1.17e6 slot
        # costs against the 1000 * Lam* T / 2 path draws it saves, 0.96e6 at T = 20 and
        # 1.44e6 at T = 30
        net = build_network(sample_checkerboard(GridSpec(3, 2, 2), 3))
        assert 18**3 * (7 + 25) > hlab.stochproc.TABLE_SLOTS
        assert hlab.stochproc.SLOT_DRAWS == 8
        _, _, rate, got, _ = _walk_displacements(net, [T], 1000, seed=0)
        assert (rate, got) == (96.0, block)

    @pytest.mark.parametrize("n_paths", [2.5, 2.0, "16", None])
    def test_paths_must_be_an_integer(self, n_paths):
        net = build_network(make_constant(GridSpec(2, 1, 1), np.eye(2)))
        with pytest.raises(ValueError, match="n_paths"):
            simulate_walks(net, 2.0, n_paths, 0)

    def test_numpy_integer_paths(self):
        net = build_network(make_constant(GridSpec(2, 1, 1), np.eye(2)))
        a = simulate_walks(net, 2.0, np.int64(16), 0)
        b = simulate_walks(net, 2.0, 16, 0)
        assert np.array_equal(a.covariances[-1], b.covariances[-1])

    def test_reproducible_and_seed_sensitive(self):
        net = build_network(sample_checkerboard(GridSpec(2, 1, 1), 0))
        a = simulate_walks(net, 4.0, 64, seed=1)
        b = simulate_walks(net, 4.0, 64, seed=1)
        c = simulate_walks(net, 4.0, 64, seed=2)
        assert np.array_equal(a.covariances[-1], b.covariances[-1])
        assert not np.array_equal(a.covariances[-1], c.covariances[-1])

    def test_constant_identity_covariance(self):
        # simple random walk: cov(X_t) = 2 t I, within sampling error; with 12,000 paths
        # the mean's bound is 3.5 standard errors, sqrt(2 t / paths) = 0.058 each
        net = build_network(make_constant(GridSpec(2, 1, 1), np.eye(2)))
        rep = simulate_walks(net, 20.0, 12_000, seed=11, sample_times=[20.0])
        C = rep.covariances[0] / 20.0
        assert np.abs(C - 2.0 * np.eye(2)).max() < 0.25
        assert np.abs(rep.mean_displacement[0]).max() < 0.2
        assert np.abs(rep.target - 2.0 * np.eye(2)).max() < 1e-8

    def test_sample_times_validated(self):
        net = build_network(make_constant(GridSpec(2, 1, 1), np.eye(2)))
        with pytest.raises(ValueError):
            simulate_walks(net, 4.0, 16, seed=0, sample_times=[8.0])
        with pytest.raises(ValueError):
            simulate_walks(net, 4.0, 1, seed=0)

    @pytest.mark.parametrize("T, times, named", [
        (0.0, None, "0.0"), (-5.0, [1.0], "-5.0"), (np.inf, [1.0], "inf"),
        (4.0, [], "sample_times"), (4.0, [-1.0, 4.0], "-1.0"),
        # a NaN is named wherever it sits: sorting would leave it inside the list
        (60.0, [10.0, np.nan, 50.0], "nan"), (60.0, [50.0, np.nan, 10.0], "nan"),
    ])
    def test_bad_walk_inputs_named(self, T, times, named):
        net = build_network(make_constant(GridSpec(2, 1, 1), np.eye(2)))
        with pytest.raises(ValueError, match=named):
            simulate_walks(net, T, 16, seed=0, sample_times=times)

    def test_covariance_grows_with_time(self):
        net = build_network(sample_checkerboard(GridSpec(2, 1, 1), 7))
        rep = simulate_walks(net, 16.0, 2000, seed=3, sample_times=[4.0, 16.0])
        assert np.trace(rep.covariances[1]) > np.trace(rep.covariances[0])


class TestGreen:
    @pytest.mark.parametrize("dt", [0.125, 0.05])
    def test_steps_match_zero_start_reference(self, dt):
        # neither the extrapolated guess nor dropping the preconditioner moves the
        # density beyond the solver's tolerance, and the guess carries the exact mass
        fld = sample_checkerboard(GridSpec(2, 3, 1), 2)
        rep = parabolic_green(fld, 4.0, (13, 13), dt=dt)
        ref = zero_start_green(fld, 4.0, (13, 13), dt)
        assert np.abs(rep.green_field - ref).max() <= 1e-9 * ref.max()
        assert rep.mass_drift <= 1e-13

    def test_steps_run_no_transform(self, monkeypatch):
        # each implicit-Euler step is plain CG: no spectral solve per iteration
        calls = []
        real = hlab.spectral.torus_solve_nodespace
        monkeypatch.setattr(hlab.spectral, "torus_solve_nodespace",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        net = build_network(sample_checkerboard(GridSpec(2, 2, 1), 3))
        _, steps, iters, _ = hlab.stochproc._green_steps(net, 2.0, (4, 4), 0.05)
        assert steps == 40 and iters > steps and calls == []
        network_homogenized_matrix(net)
        assert calls                    # the spy sees the cell problem's preconditioner

    def test_mass_conserved_and_gaussian_match(self):
        fld = make_constant(GridSpec(2, 3, 1), np.eye(2))
        rep = parabolic_green(fld, 9.0, (13, 13), dt=0.1)
        assert rep.mass_drift < 1e-10
        assert rep.green_errors["sup_rel_bulk"] < 0.05
        assert rep.green_errors["l1_rel"] < 0.05

    def test_nash_margins_bracket_one_for_identity(self):
        fld = make_constant(GridSpec(2, 3, 1), np.eye(2))
        rep = parabolic_green(fld, 9.0, (13, 13), dt=0.1)
        assert 0.5 < rep.nash_margins["lower_c"] <= 1.5
        assert 0.5 <= rep.nash_margins["upper_C"] < 2.0

    def test_nash_margins_random_field(self):
        # heat-kernel bounds: the density sits between Gaussians with the
        # extreme conductivities, up to moderate constants
        fld = sample_checkerboard(GridSpec(2, 3, 1), 4)
        rep = parabolic_green(fld, 4.0, (13, 13), dt=0.25)
        assert rep.nash_margins["lower_c"] > 0.05
        assert rep.nash_margins["upper_C"] < 20.0
        assert rep.mass_drift < 1e-10

    def test_symmetry(self):
        fld = sample_checkerboard(GridSpec(2, 2, 1), 6)
        assert green_symmetry_check(fld, 2.0, (1, 4), (7, 2), dt=0.25) < 1e-10

    def test_symmetry_check_solves_no_cell_problem(self, monkeypatch):
        # the check needs only the two densities: the same value as from two full
        # `parabolic_green` reports, without their cell problems
        fld = sample_checkerboard(GridSpec(2, 3, 1), 5)
        x, y = (1, 4), (20, 11)
        expected = abs(parabolic_green(fld, 2.0, x).green_field[y]
                       - parabolic_green(fld, 2.0, y).green_field[x])
        calls = []
        real = hlab.stochproc.network_homogenized_matrix
        monkeypatch.setattr(hlab.stochproc, "network_homogenized_matrix",
                            lambda net: calls.append(net) or real(net))
        assert green_symmetry_check(fld, 2.0, x, y) == expected
        assert calls == []
        parabolic_green(fld, 2.0, x)
        assert len(calls) == 1          # the spy sees the report's cell problem

    def test_horizon_must_divide(self):
        fld = make_constant(GridSpec(2, 2, 1), np.eye(2))
        with pytest.raises(ValueError, match=r"t_final = 1\.0 .* dt = 0\.3"):
            parabolic_green(fld, 1.0, (0, 0), dt=0.3)
        with pytest.raises(ValueError, match=r"t_final = 1e-09 .* dt = 1\.0"):
            parabolic_green(fld, 1e-9, (0, 0), dt=1.0)

    @pytest.mark.parametrize("t_final, dt, named", [
        (1.0, -0.25, "dt"), (1.0, 0.0, "dt"), (1.0, np.nan, "dt"), (1.0, np.inf, "dt"),
        (0.0, 0.25, "t_final"), (-1.0, 0.25, "t_final"), (np.nan, 0.25, "t_final"),
        (np.inf, 0.25, "t_final"),
    ])
    @pytest.mark.parametrize("entry", ["green", "symmetry"])
    def test_bad_time_inputs_named(self, monkeypatch, entry, t_final, dt, named):
        # refused before any solve, by name, from either entry point
        monkeypatch.setattr(hlab.stochproc, "cg", None)
        fld = make_constant(GridSpec(2, 2, 1), np.eye(2))
        with pytest.raises(ValueError, match=rf"\b{named} must be finite and > 0, got"):
            if entry == "green":
                parabolic_green(fld, t_final, (0, 0), dt=dt)
            else:
                green_symmetry_check(fld, t_final, (0, 0), (1, 1), dt=dt)

    @pytest.mark.parametrize("source", [(9, 0), (0, -1), (4.5, 4), (4,), (True, 4)])
    def test_source_must_be_a_cell(self, source):
        fld = make_constant(GridSpec(2, 2, 1), np.eye(2))
        with pytest.raises(ValueError, match=r"source .*cell shape \(9, 9\)"):
            parabolic_green(fld, 1.0, source)
