"""The four pinned workloads: inputs from a seed, one timed pass, a correctness gate.

Every workload is a list of tasks.  A task is one call into hlab (one coarse
pair, one corrector set or one `run_experiment`), its output, and a check of
that output.  A task fails when it raises or when its check finds a problem;
checks run after the timed pass.  The solve tolerance is pinned here, so a
changed library default cannot quietly shorten solves.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import hlab.coarse
import hlab.correctors
import hlab.fields
import hlab.harness
import hlab.lattice
import hlab.solver

# every layer module loads during set-up, so import time counts there and the
# tracer finds each module before the pass
import hlab.renorm  # noqa: F401
import hlab.spectral  # noqa: F401
import hlab.stochproc  # noqa: F401
import hlab.twoscale  # noqa: F401

TOL = 1e-8            # pinned CG tolerance; a reported residual above it fails the task
EXACT_TOL = 1e-7      # ordering chain, spatial-average identities, subadditivity slacks
WALK_REL_TOL = 0.10   # walk covariance vs 2 abar_net (criterion 8)
MASS_TOL = 1e-8       # Green-function mass drift (criterion 9)
TWOSCALE_RATE = 0.4   # laminate two-scale rate (criterion 6)

@dataclass
class Task:
    name: str
    run: Callable[[], object]            # the timed call; returns the output
    check: Callable[[object], list]      # problems found in the output (empty: pass)
    digest: Callable[[object], dict]     # byte-exact fingerprints of the output
    out_dir: Path = None                 # where a run_experiment task writes files


# ---------------------------------------------------------------------------
# shared checks and fingerprints
# ---------------------------------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _experiment_digest(out_dir: Path) -> dict:
    """Hash of every output file except metadata.json, which records a wall time."""
    return {p.name: _sha(p.read_bytes()) for p in sorted(out_dir.iterdir())
            if p.name != "metadata.json"}


def _psd_floor(m) -> float:
    return float(np.linalg.eigvalsh(0.5 * (m + m.T)).min())


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def _experiment_task(name, out_dir: Path, check, **cfg) -> Task:
    config = hlab.harness.ExperimentConfig(output_dir=str(out_dir), solver={"tol": TOL}, **cfg)
    return Task(name, lambda: hlab.harness.run_experiment(config, jobs=1), check,
                lambda _out: _experiment_digest(out_dir), out_dir)


# ---------------------------------------------------------------------------
# coarse-large: one coarse pair on a level-6 checkerboard cube (729^2 cells)
# ---------------------------------------------------------------------------


def _coarse_large(seed, tiny, work):
    level = 2 if tiny else 6
    grid = hlab.lattice.GridSpec(2, level, 1)
    fld = hlab.fields.sample_checkerboard(grid, seed)
    cube = hlab.lattice.TriadicCube(level, (0, 0))
    opts = hlab.solver.SolveOptions(tol=TOL)

    def check(r):
        return check_coarse_pair(r, fld)

    def digest(r):
        return {"a_upper": _sha(r.a_upper.tobytes()), "a_lower": _sha(r.a_lower.tobytes()),
                "iterations": str(r.iterations)}

    return [Task("pair", lambda: hlab.coarse.coarse_matrices(fld, cube, opts), check, digest)]


def check_coarse_pair(r, fld) -> list:
    """lam I <= a* <= a <= <a> <= Lam I, spatial-average identities, residual."""
    problems = []
    d = r.a_upper.shape[0]
    mean_a = fld.a.reshape(-1, d, d).mean(axis=0)
    chain = min(_psd_floor(r.a_lower - fld.lam * np.eye(d)),
                _psd_floor(r.a_upper - r.a_lower),
                _psd_floor(mean_a - r.a_upper),
                _psd_floor(fld.Lam * np.eye(d) - mean_a))
    if not (_finite(r.a_upper, r.a_lower) and chain >= -EXACT_TOL):
        problems.append(f"ordering chain slack {chain:.3e} < -{EXACT_TOL}")
    drift = hlab.coarse.spatial_average_identities(r)["max"]
    if not drift <= EXACT_TOL:
        problems.append(f"spatial-average identity drift {drift:.3e} > {EXACT_TOL}")
    if not r.residual <= TOL:
        problems.append(f"residual {r.residual:.3e} > {TOL}")
    return problems


# ---------------------------------------------------------------------------
# coarsen-small: cascade + subadditivity ledger on small cubes, 2d and 3d
# ---------------------------------------------------------------------------


def check_coarsen(summary) -> list:
    problems = []
    slacks = summary["subadditivity_slacks"]
    for side in ("upper", "lower"):
        if not slacks[side] >= -EXACT_TOL:
            problems.append(f"{side} subadditivity slack {slacks[side]:.3e} < -{EXACT_TOL}")
    gaps = list(summary["gap_by_level"].values())
    if not (_finite(gaps) and min(gaps) >= -EXACT_TOL):
        problems.append(f"duality gaps {gaps} not finite and nonnegative")
    return problems


def _coarsen_small(seed, tiny, work):
    cb = {"name": "checkerboard"}
    return [
        _experiment_task("coarsen-2d", work / "coarsen-2d", check_coarsen, kind="coarsen",
                         generator=cb, grid={"d": 2, "m": 2 if tiny else 4, "k": 1},
                         scales=[1, 2] if tiny else [1, 2, 3, 4], master_seed=seed),
        _experiment_task("coarsen-3d", work / "coarsen-3d", check_coarsen, kind="coarsen",
                         generator=cb, grid={"d": 3, "m": 1 if tiny else 2, "k": 1},
                         scales=[0, 1] if tiny else [1, 2], master_seed=seed),
    ]


# ---------------------------------------------------------------------------
# ensemble-experiments: torus path, correctors, renormalization, two-scale
# ---------------------------------------------------------------------------


def check_homogenized(abar, lam, Lam) -> list:
    abar = np.asarray(abar, dtype=float)
    if not _finite(abar):
        return [f"homogenized matrix not finite: {abar.tolist()}"]
    if not np.array_equal(abar, abar.T):
        return [f"homogenized matrix not symmetric: {abar.tolist()}"]
    eig = np.linalg.eigvalsh(abar)
    if not (eig.min() >= lam - EXACT_TOL and eig.max() <= Lam + EXACT_TOL):
        return [f"homogenized eigenvalues {eig.tolist()} outside [{lam}, {Lam}]"]
    return []


def check_periodic_correctors(out) -> list:
    cset, fld = out
    problems = check_homogenized(cset.abar, fld.lam, fld.Lam)
    skew = max(float(np.abs(s + np.swapaxes(s, -1, -2)).max()) for s in cset.s)
    if skew != 0.0:
        problems.append(f"flux corrector skewness drift {skew:.3e} != 0")
    return problems


def check_corrector(summary) -> list:
    R = [row[1] for row in summary["R_table"]]
    if not (_finite(R, summary["fit"]["fitted"]) and min(R) > 0):
        return [f"sublinearity table {summary['R_table']} not finite and positive"]
    return []


def check_cascade(summary) -> list:
    variances = [row[2] for row in summary["per_r"]] + [v for _, v in summary["cube_per_n"]]
    if not (_finite(variances, summary["fit"]["fitted"], summary["cube_fit"]["fitted"])
            and min(variances) >= 0):
        return [f"cascade variances {variances} not finite and nonnegative"]
    return []


def check_twoscale(summary) -> list:
    problems = check_homogenized(summary["abar"], 1.0, 4.0)  # laminate values {1, 4}
    rate = summary["grad_rate"]["fitted"]
    if not rate >= TWOSCALE_RATE:
        problems.append(f"two-scale rate {rate:.3f} < {TWOSCALE_RATE}")
    return problems


def _ensemble_experiments(seed, tiny, work):
    cb = {"name": "checkerboard"}
    size = 2 if tiny else 8
    torus = hlab.fields.sample_checkerboard(hlab.lattice.GridSpec(2, 3 if tiny else 4, 1), seed)
    opts = hlab.solver.SolveOptions(tol=TOL)

    def periodic():
        return hlab.correctors.periodic_homogenized_matrix(torus, opts), torus

    def periodic_digest(out):
        cset = out[0]
        return {"abar": _sha(cset.abar.tobytes()),
                "s": _sha(b"".join(s.tobytes() for s in cset.s))}

    return [
        _experiment_task("corrector", work / "corrector", check_corrector, kind="corrector",
                         generator=cb, grid={"d": 2, "k": 1},
                         scales=[1, 2, 3] if tiny else [2, 3, 4, 5], ensemble_size=size,
                         master_seed=seed, extra={"mode": "finite-volume"}),
        _experiment_task("cascade", work / "cascade", check_cascade, kind="cascade",
                         generator=cb, grid={"d": 2, "k": 1},
                         scales=[1.0, 1.5, 2.0] if tiny else [2.0, 4.0, 8.0],
                         ensemble_size=size, master_seed=seed,
                         extra={"cube_levels": [1, 2, 3] if tiny else [2, 3, 4]}),
        _experiment_task("twoscale", work / "twoscale", check_twoscale, kind="twoscale",
                         generator={"name": "laminate"}, grid={"d": 2, "k": 10},
                         scales=[1 / 3, 1 / 9, 1 / 27], master_seed=seed),
        Task("periodic-correctors", periodic, check_periodic_correctors, periodic_digest),
    ]


# ---------------------------------------------------------------------------
# diffusion: random walks and the parabolic Green function (stochproc only)
# ---------------------------------------------------------------------------


def check_walk(summary) -> list:
    T = summary["times"][-1]
    C = np.asarray(summary["covariances"][-1]) / T
    target = np.diag(np.asarray(summary["target"]))
    dev = float((np.abs(np.diag(C) - target) / target).max())
    if not dev <= WALK_REL_TOL:
        return [f"walk covariance deviates {dev:.3f} > {WALK_REL_TOL} from 2 abar_net"]
    return []


def check_green(summary) -> list:
    drift = summary["mass_drift"]
    problems = [] if drift <= MASS_TOL else [f"mass drift {drift:.3e} > {MASS_TOL}"]
    if not _finite(list(summary["errors"].values())):
        problems.append(f"Green-function errors not finite: {summary['errors']}")
    return problems


def _diffusion(seed, tiny, work):
    horizon = 25.0 if tiny else 100.0
    return [
        _experiment_task("walk", work / "walk", check_walk, kind="walk",
                         generator={"name": "laminate"}, grid={"d": 2, "m": 2, "k": 2},
                         master_seed=seed,
                         extra={"n_paths": 2000 if tiny else 10_000, "horizon": horizon,
                                "sample_times": [horizon]}),
        _experiment_task("green", work / "green", check_green, kind="green",
                         generator={"name": "checkerboard"},
                         grid={"d": 2, "m": 3 if tiny else 4, "k": 1}, master_seed=seed,
                         extra={"t": 4.0 if tiny else 25.0, "dt": 0.25 if tiny else 0.05}),
    ]


BUILDERS = {
    "coarse-large": _coarse_large,
    "coarsen-small": _coarsen_small,
    "ensemble-experiments": _ensemble_experiments,
    "diffusion": _diffusion,
}


def build(name: str, seed: int, tiny: bool, work: Path) -> list:
    """The workload's tasks with inputs made from `seed`; outputs go under `work`."""
    tasks = BUILDERS[name](seed, tiny, work)
    for t in tasks:
        if t.out_dir is not None:
            t.out_dir.mkdir(parents=True, exist_ok=True)
    return tasks


def bytes_written(tasks) -> int:
    return sum(p.stat().st_size for t in tasks if t.out_dir is not None
               for p in t.out_dir.iterdir())

