"""Conductance network, random walk covariance, parabolic Green function."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hlab.spectral
import hlab.stochproc
from hlab.fields import (
    GaussianFieldParams,
    make_constant,
    make_laminate,
    sample_checkerboard,
    sample_gaussian_field,
)
from hlab.lattice import GridSpec
from hlab.solver import cg
from hlab.stochproc import (
    build_network,
    green_symmetry_check,
    network_homogenized_matrix,
    network_operator,
    parabolic_green,
    simulate_walks,
)
from oracles import zero_start_green


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


def _reference_walks(net, T, n_paths, seed, sample_times):
    """The event loop that gathers each path's rates from the edge arrays at every
    step; the oracle for `simulate_walks`, which must make the same draws.

    Returns the covariances and mean displacements at the sample times, and each
    path's last jump time before T (0 if it never jumped).
    """
    d, h, side = net.grid.d, net.grid.h, net.grid.side
    sample_times = sorted(float(s) for s in sample_times)
    rng = np.random.default_rng(seed)
    pos = np.zeros((n_paths, d), dtype=np.int64)
    t = np.zeros(n_paths)
    recorded = np.zeros((len(sample_times), n_paths, d))
    last_jump = np.zeros(n_paths)
    inv_h2 = 1.0 / (h * h)
    active = t < T
    while active.any():
        idx = np.nonzero(active)[0]
        site = tuple((pos[idx, j] % side) for j in range(d))
        rates = np.empty((idx.size, 2 * d))
        for j in range(d):
            rates[:, 2 * j] = net.cond[j][site] * inv_h2
            back = list(site)
            back[j] = (site[j] - 1) % side
            rates[:, 2 * j + 1] = net.cond[j][tuple(back)] * inv_h2
        total = rates.sum(axis=1)
        tn = t[idx] + rng.exponential(1.0 / total)
        for si, s in enumerate(sample_times):
            hit = (t[idx] <= s) & (s < tn)
            if hit.any():
                recorded[si, idx[hit]] = pos[idx[hit]]
        u = rng.random(idx.size) * total
        choice = (rates.cumsum(axis=1) < u[:, None]).sum(axis=1)
        choice = np.minimum(choice, 2 * d - 1)
        pos[idx, choice // 2] += np.where(choice % 2 == 0, 1, -1)
        t[idx] = tn
        active = t < T
        last_jump[idx[tn < T]] = tn[tn < T]
    X = recorded * h
    return [np.cov(x.T) for x in X], [x.mean(axis=0) for x in X], last_jump


def _walk_field(kind, d, k, seed):
    if kind == "laminate":    # periodic layers need an even side: k -> 2k (h = 1/6 at k = 3)
        return make_laminate(GridSpec(d, 1, 2 * k), 1.0, 4.0, 1.0, axis=1 + seed % d)
    if kind == "checkerboard":
        return sample_checkerboard(GridSpec(d, 1, k), seed)
    return sample_gaussian_field(GridSpec(d, 1, k), seed,
                                 GaussianFieldParams(amplitude=0.5, decay=1.0))


class TestWalks:
    @settings(max_examples=30, deadline=None)
    @given(d=st.sampled_from([2, 3]), kind=st.sampled_from(["laminate", "checkerboard", "gaussian"]),
           k=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1),
           n_paths=st.integers(2, 300), steps=st.floats(0.5, 20.0),
           fractions=st.lists(st.sampled_from([0.0, 1e-4, 0.5]) | st.floats(0.0, 1.0),
                              min_size=1, max_size=3))
    @example(d=3, kind="checkerboard", k=3, seed=5, n_paths=300, steps=10.0,
             fractions=[1e-4, 0.5, 0.5])
    @example(d=2, kind="laminate", k=3, seed=0, n_paths=2, steps=3.0, fractions=[1.0, 0.0, 1.0])
    def test_matches_reference_event_loop(self, d, kind, k, seed, n_paths, steps, fractions):
        # a repeated time, one inside the first holding interval (1e-4 T) and paths
        # that pass T on different steps all take the same draws as the oracle;
        # T = steps h^2 keeps the expected jumps per path near 2d steps mean(c).
        # The last jump time of each of the first four paths, and the float just
        # below it, are sample times too: a jump time off by one ulp either way
        # records the position on the wrong side of that jump.
        net = build_network(_walk_field(kind, d, k, seed))
        T = steps * net.grid.h**2
        _, _, last_jump = _reference_walks(net, T, n_paths, seed, [T])
        edges = [s for s in last_jump[:4] if s > 0]
        times = [f * T for f in fractions] + edges + list(np.nextafter(edges, 0.0))
        rep = simulate_walks(net, T, n_paths, seed, times)
        covs, means, _ = _reference_walks(net, T, n_paths, seed, times)
        assert rep.times == sorted(times)
        for got, ref in zip(rep.covariances + rep.mean_displacement, covs + means):
            assert np.array_equal(got, ref)

    def test_reproducible_and_seed_sensitive(self):
        net = build_network(sample_checkerboard(GridSpec(2, 1, 1), 0))
        a = simulate_walks(net, 4.0, 64, seed=1)
        b = simulate_walks(net, 4.0, 64, seed=1)
        c = simulate_walks(net, 4.0, 64, seed=2)
        assert np.array_equal(a.covariances[-1], b.covariances[-1])
        assert not np.array_equal(a.covariances[-1], c.covariances[-1])

    def test_constant_identity_covariance(self):
        # simple random walk: cov(X_t) = 2 t I, within sampling error
        net = build_network(make_constant(GridSpec(2, 1, 1), np.eye(2)))
        rep = simulate_walks(net, 20.0, 3000, seed=11, sample_times=[20.0])
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
