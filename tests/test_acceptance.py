"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints a single summary line with the measured quantity and its
pinned tolerance.  Ensemble sizes, seeds, grids, and tolerances are fixed;
no test adapts its threshold to the data.
"""

import time

import numpy as np
import pytest

from hlab.coarse import coarse_matrices, subadditivity_ledger, spatial_average_identities
from hlab.correctors import (
    finite_volume_correctors,
    flux_corrector,
    periodic_homogenized_matrix,
    sublinearity_R,
)
from hlab.fields import (
    make_constant,
    make_laminate,
    sample_checkerboard,
    sample_gaussian_field,
    GaussianFieldParams,
    tile_unit_cell,
)
from hlab.harness import EnsembleStats, cube_average_fluctuations, fluctuation_cascade, rate_fit
from hlab.lattice import GridSpec, TriadicCube
from hlab.solver import solve_dirichlet_affine, solve_neumann_affine
from hlab.stochproc import (
    build_network,
    green_symmetry_check,
    network_homogenized_matrix,
    parabolic_green,
    simulate_walks,
)
from hlab.twoscale import dirichlet_error


def report(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_laminate_homogenized_matrix():
    # {1,4} equal-width laminate: exact harmonic/arithmetic means
    # diag(1.6, 2.5).  Resolution k = 10 (an odd k cannot host equal-width
    # half-period layers); max entry error <= 1e-6.
    t0 = time.perf_counter()
    lam = make_laminate(GridSpec(2, 1, 10), 1.0, 4.0, 1.0, axis=1)
    cset = periodic_homogenized_matrix(lam)
    err = np.abs(cset.abar - np.diag([1.6, 2.5])).max()
    report("criterion 1 (laminate homogenized matrix)", err <= 1e-6,
           f"max entry error {err:.2e} <= 1e-6, {time.perf_counter() - t0:.1f}s")


def test_criterion_02_ordering_and_bounds_chain():
    # 100 seeded checkerboards on the level-3 cube: the PSD chain
    # lam I <= a*(U) <= a(U) <= <a> <= Lam I holds to ten tolerances.
    t0 = time.perf_counter()
    g = GridSpec(2, 3, 1)
    cube = TriadicCube(3, (0, 0))
    worst = np.inf
    for seed in range(100):
        f = sample_checkerboard(g, seed)
        r = coarse_matrices(f, cube)
        mean_a = f.a.mean(axis=(0, 1))
        worst = min(
            worst,
            np.linalg.eigvalsh(r.a_lower - f.lam * np.eye(2)).min(),
            np.linalg.eigvalsh(r.a_upper - r.a_lower).min(),
            np.linalg.eigvalsh(mean_a - r.a_upper).min(),
            np.linalg.eigvalsh(f.Lam * np.eye(2) - mean_a).min(),
        )
    report("criterion 2 (ordering chain, 100 seeds)", worst >= -1e-7,
           f"worst slack eigenvalue {worst:.2e} >= -1e-7, {time.perf_counter() - t0:.0f}s")


def test_criterion_03_subadditivity_and_fenchel():
    # matrix subadditivity on 20 seeds plus the primal/dual inequality
    # mu(p) + mu*(q) >= p.q - 1e-7 on 100 random (field, p, q) instances.
    t0 = time.perf_counter()
    worst_sub = np.inf
    for seed in range(20):
        led = subadditivity_ledger(sample_checkerboard(GridSpec(2, 2, 1), seed), 2, 1)
        worst_sub = min(worst_sub, led["upper_slack_min_eig"],
                        led["lower_slack_min_eig"])
    rng = np.random.default_rng(0)
    cube = TriadicCube(1, (0, 0))
    worst_fen = np.inf
    for seed in range(100):
        f = sample_checkerboard(GridSpec(2, 1, 1), 10_000 + seed)
        p, q = rng.normal(size=2), rng.normal(size=2)
        mu = solve_dirichlet_affine(f, cube, p).energy
        mustar = solve_neumann_affine(f, cube, q).energy
        worst_fen = min(worst_fen, mu + mustar - p @ q)
    ok = worst_sub >= -1e-7 and worst_fen >= -1e-7
    report("criterion 3 (subadditivity + Fenchel)", ok,
           f"min subadditivity slack {worst_sub:.2e}, min Fenchel slack "
           f"{worst_fen:.2e}, both >= -1e-7, {time.perf_counter() - t0:.0f}s")


@pytest.mark.slow
def test_criterion_04_duality_gap_decay():
    # 16-seed checkerboard ensemble: the mean spectral gap |a - a*| on the
    # level-6 cube is at most half its level-3 value.
    t0 = time.perf_counter()
    g = GridSpec(2, 6, 1)
    gap3, gap6 = [], []
    for i in range(16):
        f = sample_checkerboard(g, 1000 + i)
        r3 = coarse_matrices(f, TriadicCube(3, (0, 0)))
        r6 = coarse_matrices(f, TriadicCube(6, (0, 0)))
        gap3.append(np.linalg.norm(r3.a_upper - r3.a_lower, 2))
        gap6.append(np.linalg.norm(r6.a_upper - r6.a_lower, 2))
    ratio = np.mean(gap6) / np.mean(gap3)
    report("criterion 4 (duality-gap decay)", ratio <= 0.5,
           f"mean gap n=6 / n=3 = {np.mean(gap6):.4f}/{np.mean(gap3):.4f} "
           f"= {ratio:.3f} <= 0.5, {time.perf_counter() - t0:.0f}s")


@pytest.mark.slow
def test_criterion_05_fluctuation_scaling():
    # 64 seeds: ensemble variance of e1.a(cube)e1 over levels 2..5 and of
    # the smoothed coefficient at the origin over radii 4..32; both fitted
    # log-log slopes must land in [-2.7, -1.3] (CLT target -2 in d = 2).
    t0 = time.perf_counter()

    def make_field(seed, m):
        return sample_checkerboard(GridSpec(2, m, 1), seed)

    cubes = cube_average_fluctuations(make_field, [2, 3, 4, 5], n_seeds=64,
                                      master_seed=2718)
    slope_cube = cubes["fit"].fitted
    casc = fluctuation_cascade(make_field, [4.0, 8.0, 16.0, 32.0], n_seeds=64,
                               master_seed=3141)
    slope_b = casc["fit"].fitted
    ok = (-2.7 <= slope_cube <= -1.3) and (-2.7 <= slope_b <= -1.3)
    report("criterion 5 (fluctuation scaling, 64 seeds)", ok,
           f"cube-average slope {slope_cube:.2f}, smoothed-coefficient slope "
           f"{slope_b:.2f}, both in [-2.7, -1.3], {time.perf_counter() - t0:.0f}s")


def test_criterion_06_two_scale_rate():
    # laminate Dirichlet problem with affine macro data over scale ratios
    # 1/3, 1/9, 1/27: the corrected-gradient error decays with rate >= 0.4.
    t0 = time.perf_counter()
    unit = make_laminate(GridSpec(2, 0, 10), 1.0, 4.0, 1.0, axis=1)
    cset = periodic_homogenized_matrix(unit)
    p = [1.0, 0.0]
    eps_list = [1 / 3, 1 / 9, 1 / 27]
    errors = []
    for eps in eps_list:
        M = round(-np.log(eps) / np.log(3.0))
        rep = dirichlet_error(tile_unit_cell(unit, M), p, cset, eps)
        errors.append(rep.grad_error)
    fit = rate_fit(eps_list, errors)
    report("criterion 6 (two-scale rate)", fit.fitted >= 0.4,
           f"gradient errors {[f'{e:.3f}' for e in errors]}, fitted rate "
           f"{fit.fitted:.3f} >= 0.4, {time.perf_counter() - t0:.0f}s")


def test_criterion_07_corrector_sublinearity():
    # ensemble mean of the normalized corrector size R(m), 16 seeds,
    # m = 2..5: strictly decreasing with fitted slope <= -0.3 per level.
    t0 = time.perf_counter()
    means = []
    for m in (2, 3, 4, 5):
        vals = [sublinearity_R(finite_volume_correctors(
            sample_checkerboard(GridSpec(2, m, 1), 500 + s), m))
            for s in range(16)]
        means.append(float(np.mean(vals)))
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    slope = rate_fit([3.0**m for m in (2, 3, 4, 5)], means).fitted
    ok = decreasing and slope <= -0.3
    report("criterion 7 (corrector sublinearity)", ok,
           f"R means {[f'{x:.4f}' for x in means]} strictly decreasing, "
           f"slope {slope:.2f} <= -0.3, {time.perf_counter() - t0:.0f}s")


def test_criterion_08_invariance_principle():
    # walk covariance at t = 100 with 1e4 paths: within 5% of 2I for the
    # identity medium and within 10% of twice the network homogenized
    # matrix for the laminate network.
    t0 = time.perf_counter()
    net = build_network(make_constant(GridSpec(2, 2, 1), np.eye(2)))
    rep = simulate_walks(net, 100.0, 10_000, seed=12345, sample_times=[100.0])
    dev_id = np.abs(rep.covariances[0] / 100.0 - 2.0 * np.eye(2)).max() / 2.0

    lam = make_laminate(GridSpec(2, 2, 2), 1.0, 4.0, 1.0, axis=1)
    net2 = build_network(lam)
    target = 2.0 * network_homogenized_matrix(net2)   # 2 diag(1.6, 2.5)
    rep2 = simulate_walks(net2, 100.0, 10_000, seed=777, sample_times=[100.0])
    C = rep2.covariances[0] / 100.0
    dev_lam = (np.abs(np.diag(C) - np.diag(target)) / np.diag(target)).max()
    ok = dev_id <= 0.05 and dev_lam <= 0.10
    report("criterion 8 (invariance principle)", ok,
           f"identity rel dev {dev_id:.3f} <= 0.05, laminate rel dev "
           f"{dev_lam:.3f} <= 0.10, {time.perf_counter() - t0:.1f}s")


def test_criterion_09_green_function():
    # identity medium at t = 25 on the side-81 torus, dt = 0.05: Gaussian
    # sup-relative bulk error <= 2%, mass conserved to 1e-8 per step,
    # source/target symmetry to 1e-10.
    t0 = time.perf_counter()
    fld = make_constant(GridSpec(2, 4, 1), np.eye(2))
    rep = parabolic_green(fld, 25.0, (40, 40), dt=0.05)
    sym = green_symmetry_check(sample_checkerboard(GridSpec(2, 3, 1), 5),
                               4.0, (3, 7), (20, 11), dt=0.25)
    ok = (rep.green_errors["sup_rel_bulk"] <= 0.02
          and rep.mass_drift <= 1e-8 and sym <= 1e-10)
    report("criterion 9 (Green-function homogenization)", ok,
           f"sup-rel bulk {rep.green_errors['sup_rel_bulk']:.4f} <= 0.02, "
           f"mass drift {rep.mass_drift:.1e} <= 1e-8, symmetry {sym:.1e} "
           f"<= 1e-10, {time.perf_counter() - t0:.1f}s")


def test_criterion_10_exact_identity_suite():
    # 100 random instances: spatial-average identities (mean gradient and
    # mean flux of the extremals exact / to ten tolerances), flux-corrector
    # skewness, streaming-statistics merge identity, and byte-level seed
    # reproducibility of both random generators.
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_exact = 0.0
    worst_matrix = 0.0
    worst_skew = 0.0
    worst_div = 0.0
    worst_merge = 0.0
    repro = True
    gparams = GaussianFieldParams(amplitude=0.5, decay=1.0, truncation=1)
    for i in range(100):
        f = sample_checkerboard(GridSpec(2, 1, 1), 5000 + i)
        r = coarse_matrices(f, TriadicCube(1, (0, 0)))
        drift = spatial_average_identities(r)
        worst_exact = max(worst_exact, drift["grad_exact"], drift["flux_exact"])
        worst_matrix = max(worst_matrix, drift["flux_vs_matrix"],
                           drift["grad_vs_matrix"])
        if i < 20:
            cset = periodic_homogenized_matrix(f)
            for s in cset.s:
                worst_skew = max(worst_skew,
                                 np.abs(s + np.swapaxes(s, -1, -2)).max())
            worst_div = max(worst_div, max(cset.div_residuals))
            vals = rng.normal(size=12)
            a = EnsembleStats.from_values(vals[:5])
            b = EnsembleStats.from_values(vals[5:])
            whole = EnsembleStats.from_values(vals)
            m = a.merge(b)
            worst_merge = max(worst_merge, abs(m.mean - whole.mean),
                              abs(m.variance - whole.variance))
            g = GridSpec(2, 1, 1)
            repro &= (sample_checkerboard(g, i).a.tobytes()
                      == sample_checkerboard(g, i).a.tobytes())
            repro &= (sample_gaussian_field(g, i, gparams).a.tobytes()
                      == sample_gaussian_field(g, i, gparams).a.tobytes())
    ok = (worst_exact <= 1e-12 and worst_matrix <= 1e-7 and worst_skew == 0.0
          and worst_div <= 1e-6 and worst_merge <= 1e-12 and repro)
    report("criterion 10 (exact identities)", ok,
           f"extremal averages exact to {worst_exact:.1e} (<=1e-12), matrix "
           f"averages {worst_matrix:.1e} (<=1e-7), skew drift {worst_skew:.1e} "
           f"(=0), divergence residual {worst_div:.1e} (<=1e-6), merge drift "
           f"{worst_merge:.1e} (<=1e-12), byte repro {repro}, "
           f"{time.perf_counter() - t0:.0f}s")
