"""The experiment layer: configs, deterministic ensembles, statistics, rate fits,
the scaling studies, and the runners behind the `hlab` commands.

It sits on top of the numerics, and no numerics module imports it.  It
imports them as module objects and calls `coarse.partition_matrices(...)`,
so each call looks the function up when it is made: a spy or tracer that
replaces a module attribute sees the harness's calls.

Ensemble members draw their seeds by mixing the master seed with the member
index, so results are independent of execution order and worker count; the
final statistics are always reduced in a fixed tree over member indices.
"""

from __future__ import annotations

import copy
import csv
import inspect
import json
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields as dataclass_fields, replace
from functools import partial
from typing import Callable

import numpy as np

from . import __version__, coarse, correctors, fields, lattice, renorm, solver, stochproc, twoscale

__all__ = [
    "ExperimentConfig",
    "EnsembleStats",
    "FitTarget",
    "ensemble",
    "ensemble_values",
    "rate_fit",
    "fluctuation_cascade",
    "cube_average_fluctuations",
    "run_experiment",
    "json_default",
]


def _defaults(fn) -> dict:
    """The parameters of `fn` that have a default value, with that value."""
    return {k: p.default for k, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty}


GRID_DEFAULTS = {"d": 2, "m": 1, "k": 1}
# each generator's config keys and defaults, read from its signature where it has them;
# the constant generator's matrix defaults to the identity of the grid's dimension
GENERATORS = {
    "constant": {"matrix": None},
    "laminate": {"v1": 1.0, "v2": 4.0, "period": 1.0, "axis": 1},
    "checkerboard": _defaults(fields.sample_checkerboard),
    "gaussian": {"amplitude": 0.5, "decay": 1.0, **_defaults(fields.GaussianFieldParams)},
}
CORRECTOR_MODES = ("periodic", "finite-volume")
MIN_FIT_POINTS = 3      # points a rate fit needs
MIN_SEEDS = 2           # ensemble members a variance needs
_N_BOOT = 200           # bootstrap resamples of a rate fit
_BOOT_SEED = 0


@dataclass
class ExperimentConfig:
    """JSON-serializable description of one experiment run."""

    kind: str
    generator: dict = field(default_factory=dict)   # e.g. {"name": "checkerboard", ...}
    grid: dict = field(default_factory=dict)        # {"d": 2, "m": 3, "k": 1}
    scales: list = field(default_factory=list)      # levels, radii, or eps values
    ensemble_size: int = None                       # None: the kind's default
    master_seed: int = 0
    solver: dict = field(default_factory=dict)      # SolveOptions overrides
    output_dir: str = "."
    extra: dict = field(default_factory=dict)       # experiment-specific knobs

    def validate(self) -> "ResolvedConfig":
        """The checked config with its defaults filled in; each ValueError names its key."""
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; "
                             f"expected one of {tuple(KINDS)}")
        kind = KINDS[self.kind]
        size = kind.ensemble_size if self.ensemble_size is None else self.ensemble_size
        if not _is_integer(size) or size < 1:
            raise ValueError(f"ensemble_size must be an integer >= 1, got {size!r}")
        seed = self.master_seed
        if not _is_integer(seed) or not 0 <= seed < 2**64:
            raise ValueError(f"master_seed must be an integer in [0, 2**64), got {seed!r}")
        grid_kw = _filled(self.grid, {**GRID_DEFAULTS, **kind.grid}, "grid.")
        _raise_named(lattice.grid_problem(**grid_kw), "grid.")
        grid = lattice.GridSpec(**grid_kw)
        name = _mapping(self.generator, "generator").get("name", "checkerboard")
        if not isinstance(name, str) or name not in GENERATORS:
            raise ValueError(f"unknown generator {name!r} in 'generator.name'; "
                             f"expected one of {sorted(GENERATORS)}")
        gen_args = {k: v for k, v in self.generator.items() if k != "name"}
        generator = name, _filled(gen_args, GENERATORS[name], "generator.")
        extra = _filled(self.extra, kind.extra, "extra.")
        opts_kw = _filled(self.solver, _defaults(solver.SolveOptions), "solver.")
        _raise_named(solver.options_problem(**opts_kw), "solver.")
        opts = solver.SolveOptions(**opts_kw)
        if not isinstance(self.scales, (list, tuple)):
            raise ValueError(f"'scales' must be a list, got {self.scales!r}")
        if not isinstance(self.output_dir, str):
            raise ValueError(f"'output_dir' must be a string, got {self.output_dir!r}")
        return kind.check(ResolvedConfig(
            kind=self.kind, grid=grid, generator=generator, extra=extra, opts=opts,
            scales=tuple(self.scales or kind.scales(grid)), ensemble_size=size,
            master_seed=seed, output_dir=self.output_dir))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"a config must be valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, got {data!r}")
        _reject_unknown_keys(data, {f.name for f in dataclass_fields(cls)})
        if "kind" not in data:
            raise ValueError(f"a config must name its 'kind', one of {tuple(KINDS)}")
        return cls(**data)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json(fh.read())


@dataclass(frozen=True)
class ResolvedConfig:
    """A checked `ExperimentConfig` with its defaults filled in; the runners read only this."""

    kind: str
    grid: lattice.GridSpec
    generator: tuple            # (name, keyword arguments)
    scales: tuple
    extra: dict                 # every `extra` key the kind reads
    opts: solver.SolveOptions
    ensemble_size: int
    master_seed: int
    output_dir: str


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _reject_unknown_keys(data: dict, known, prefix: str = "") -> None:
    unknown = [repr(prefix + k) for k in sorted(data) if k not in known]
    if unknown:
        raise ValueError(f"unknown config key {', '.join(unknown)}; "
                         f"expected one of {sorted(known)}")


# what a config value must be, by the type of its default; a None default leaves it to the kind
_VALUE_RULES = {int: (_is_integer, "an integer"),
                float: (lambda v: _is_real(v) and math.isfinite(v), "a finite number"),
                str: (lambda v: isinstance(v, str), "a string")}


def _mapping(block, key: str) -> dict:
    if not isinstance(block, dict):
        raise ValueError(f"'{key}' must be a mapping, got {block!r}")
    return block


def _filled(block: dict, defaults: dict, prefix: str) -> dict:
    """A config block with its defaults filled in, after its unknown keys and any value
    of another type than its default are rejected."""
    _reject_unknown_keys(_mapping(block, prefix.rstrip(".")), defaults, prefix)
    for k, v in block.items():
        rule = _VALUE_RULES.get(type(defaults[k]))
        if rule and not rule[0](v):
            raise ValueError(f"{prefix + k!r} must be {rule[1]}, got {v!r}")
    return {k: block.get(k, v) for k, v in defaults.items()}


def _raise_named(problem, prefix: str, where: str = "") -> None:
    """Raise an (argument name, reason) problem, if there is one, naming its config key."""
    if problem:
        raise ValueError(f"'{prefix}{problem[0]}': {problem[1]}{where}")


class EnsembleStats:
    """Streaming mean/variance with an exact pairwise merge (Welford form)."""

    def __init__(self):
        self.count = 0
        self.mean = None
        self.M2 = None

    def update(self, value):
        value = np.asarray(value, dtype=float)
        if self.count == 0:
            self.count = 1
            self.mean = value.copy()
            self.M2 = np.zeros_like(value)
        else:
            self.count += 1
            delta = value - self.mean
            self.mean = self.mean + delta / self.count
            self.M2 = self.M2 + delta * (value - self.mean)
        return self

    def merge(self, other: "EnsembleStats") -> "EnsembleStats":
        """Combined statistics, exactly those of the concatenated sample."""
        if other.count == 0:
            return copy.deepcopy(self)
        if self.count == 0:
            return copy.deepcopy(other)
        out = EnsembleStats()
        n = self.count + other.count
        delta = other.mean - self.mean
        out.count = n
        out.mean = self.mean + delta * (other.count / n)
        out.M2 = self.M2 + other.M2 + delta**2 * (self.count * other.count / n)
        return out

    @property
    def variance(self):
        """Unbiased sample variance; zero sentinel for a single member."""
        if self.count < 2:
            return np.zeros_like(self.mean) if self.mean is not None else None
        return self.M2 / (self.count - 1)

    @classmethod
    def from_values(cls, values) -> "EnsembleStats":
        st = cls()
        for v in values:
            st.update(v)
        return st


def member_seed(master_seed: int, index: int) -> int:
    return int(fields.mix64(master_seed, index))


def _check_jobs(jobs) -> None:
    if not _is_integer(jobs) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")


def ensemble_values(run, N: int, master_seed: int, jobs: int = 1):
    """Member results in index order; member i runs with seed mix(master, i).

    Returns (values, seeds, errors) where errors maps index -> message; all
    members are attempted even if some fail.  With jobs > 1 the members run
    in min(jobs, N) worker processes, so `run` must pickle.
    """
    if not _is_integer(N) or N < 1:
        raise ValueError(f"ensemble size must be an integer >= 1, got {N!r}")
    _check_jobs(jobs)
    seeds = [member_seed(master_seed, i) for i in range(N)]
    values = [None] * N
    errors = {}
    if jobs == 1:
        for i, s in enumerate(seeds):
            try:
                values[i] = run(s)
            except Exception as exc:  # noqa: BLE001 - member failures are data
                errors[i] = f"{type(exc).__name__}: {exc}"
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, N)) as pool:
            futures = {i: pool.submit(run, s) for i, s in enumerate(seeds)}
            for i, fut in futures.items():
                try:
                    values[i] = fut.result()
                except Exception as exc:  # noqa: BLE001
                    errors[i] = f"{type(exc).__name__}: {exc}"
    return values, seeds, errors


def _reduce_tree(stats_list):
    while len(stats_list) > 1:
        nxt = []
        for i in range(0, len(stats_list) - 1, 2):
            nxt.append(stats_list[i].merge(stats_list[i + 1]))
        if len(stats_list) % 2:
            nxt.append(stats_list[-1])
        stats_list = nxt
    return stats_list[0]


def ensemble(run, N: int, master_seed: int, jobs: int = 1) -> EnsembleStats:
    """Deterministic ensemble statistics of run(seed) over N derived seeds."""
    values, seeds, errors = ensemble_values(run, N, master_seed, jobs)
    if errors:
        lines = "; ".join(f"member {i} (seed {seeds[i]}): {msg}"
                          for i, msg in sorted(errors.items()))
        raise RuntimeError(f"{len(errors)}/{N} ensemble members failed ({lines})")
    leaves = [EnsembleStats().update(v) for v in values]
    return _reduce_tree(leaves)


@dataclass
class FitTarget:
    """A fitted power-law exponent with its intercept and bootstrap confidence interval."""

    fitted: float
    intercept: float
    ci_low: float
    ci_high: float


def rate_fit(scales, values) -> FitTarget:
    """Least-squares slope of log(value) against log(scale), with a bootstrap CI
    from resampling the points."""
    scales = np.asarray(scales, dtype=float)
    values = np.asarray(values, dtype=float)
    if scales.size < MIN_FIT_POINTS:
        raise ValueError(f"rate fit needs at least {MIN_FIT_POINTS} points")
    if not all(np.all((0 < v) & (v < np.inf)) for v in (scales, values)):
        raise ValueError("rate fit needs finite, positive scales and values")
    if np.unique(scales).size < 2:
        raise ValueError(f"rate fit needs at least 2 distinct scales, got {scales.tolist()}")
    ls, lv = np.log(scales), np.log(values)
    slope, intercept = np.polyfit(ls, lv, 1)

    rng = np.random.default_rng(_BOOT_SEED)
    boots = []
    for _ in range(_N_BOOT):
        idx = rng.integers(0, scales.size, size=scales.size)
        if np.unique(ls[idx]).size < 2:
            continue
        boots.append(np.polyfit(ls[idx], lv[idx], 1)[0])
    if boots:
        lo, hi = np.percentile(boots, [2.5, 97.5])
        lo, hi = min(lo, slope), max(hi, slope)
    else:
        lo = hi = slope
    return FitTarget(float(slope), float(intercept), float(lo), float(hi))


# ---------------------------------------------------------------------------
# fields from config blocks
# ---------------------------------------------------------------------------


def _build_field(generator: tuple, grid, seed: int):
    """The field of a resolved generator (name, keyword arguments) on a GridSpec."""
    name, kw = generator
    if name == "constant":
        matrix = np.eye(grid.d) if kw["matrix"] is None else kw["matrix"]
        return fields.make_constant(grid, np.asarray(matrix, dtype=float))
    if name == "laminate":
        return fields.make_laminate(grid, **kw)
    if name == "checkerboard":
        return fields.sample_checkerboard(grid, seed, **kw)
    return fields.sample_gaussian_field(grid, seed, fields.GaussianFieldParams(**kw))


# ---------------------------------------------------------------------------
# ensemble members and scaling studies
# ---------------------------------------------------------------------------

# Ensemble members are module-level functions of plain data (the resolved
# generator and GridSpec, SolveOptions, the member seed last), bound with
# functools.partial, so that worker processes can unpickle them.


def _level_field(generator: tuple, grid, seed: int, m: int):
    """The configured field on the level-m grid: the `make_field` of `hlab cascade`."""
    return _build_field(generator, replace(grid, m=m), seed)


def _periodic_abar_member(generator, grid, opts, seed):
    fld = _build_field(generator, grid, seed)
    return correctors.periodic_homogenized_matrix(fld, opts).abar.ravel()


def _sublinearity_member(generator, grid, m, opts, seed):
    fld = _level_field(generator, grid, seed, m)
    return correctors.sublinearity_R(correctors.finite_volume_correctors(fld, m, opts))


def _b_r_at_origin(make_field, r, opts, seed):
    """Ensemble member of `fluctuation_cascade`: b_r at the origin cell, flattened."""
    fld = make_field(seed, _torus_level_for(r))
    return renorm.coarse_grained_b(fld, r, [(0,) * fld.grid.d], opts).b[0].ravel()


def _e1_upper_entry(make_field, n, opts, seed):
    """Ensemble member of `cube_average_fluctuations`: e1 . a(U) e1, U the origin level-n cube."""
    fld = make_field(seed, n)
    cube = lattice.TriadicCube(n, (0,) * fld.grid.d)
    sol = solver.solve_dirichlet_affine(fld, cube, np.eye(fld.grid.d)[0], opts)
    return 2.0 * sol.energy


def _torus_level_for(r: float) -> int:
    m = 0
    while 3.0**m < 12.0 * r:
        m += 1
    return m


def _variance_fit(runs, n_seeds: int, master_seed: int, jobs: int):
    """One ensemble per (length, label, member) triple of `runs`, in increasing length,
    and the log-log fit of each ensemble's summed variance against its length.

    A summed variance of zero (a constant field) has no logarithm: it raises a
    ValueError naming its label, the radius or level.
    """
    if n_seeds < MIN_SEEDS:
        raise ValueError(f"variance estimation needs at least {MIN_SEEDS} seeds")
    stats = [ensemble(run, n_seeds, master_seed, jobs) for _, _, run in runs]
    totals = [float(np.sum(st.variance)) for st in stats]
    for (_, label, _), total in zip(runs, totals):
        if not total > 0.0:
            raise ValueError(f"ensemble variance {total} at {label}: the log-log rate fit "
                             f"needs a positive variance (is the field constant?)")
    return stats, rate_fit([length for length, _, _ in runs], totals)


def fluctuation_cascade(make_field, r_list, n_seeds: int, master_seed: int = 0,
                        opts: solver.SolveOptions = None, jobs: int = 1) -> dict:
    """Ensemble variance of b_r(0) across radii, with a log-log slope fit.

    `make_field(seed, m)` must return a periodic coefficient field on the
    level-m torus; with jobs > 1 it must pickle (a module-level function or
    a functools.partial of one).  Every sampled point enters the statistics:
    degenerate points contribute their blended value.
    """
    radii = [float(r) for r in sorted(r_list)]
    stats, fit = _variance_fit(
        [(r, f"radius {r:g}", partial(_b_r_at_origin, make_field, r, opts)) for r in radii],
        n_seeds, master_seed, jobs)
    per_r = [{"r": r, "torus_level": _torus_level_for(r),
              "total_variance": float(np.asarray(st.variance).sum())}
             for r, st in zip(radii, stats)]
    return {"per_r": per_r, "fit": fit}


def cube_average_fluctuations(make_field, n_list, n_seeds: int, master_seed: int = 0,
                              opts: solver.SolveOptions = None, jobs: int = 1) -> dict:
    """Ensemble variance of e1 . a(level-n cube) e1 across levels, slope-fitted.

    `make_field` is as in `fluctuation_cascade`.
    """
    levels = sorted(n_list)
    stats, fit = _variance_fit(
        [(float(3**n), f"level {n}", partial(_e1_upper_entry, make_field, n, opts))
         for n in levels],
        n_seeds, master_seed, jobs)
    per_n = [{"n": int(n), "variance": float(st.variance)} for n, st in zip(levels, stats)]
    return {"per_n": per_n, "fit": fit}


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------


def _write_csv(path, header, rows):
    """A header line, then the rows; every float, numpy scalars included, as repr(float(x))."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(x)) if isinstance(x, (float, np.floating)) else x for x in row])


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=json_default)
        fh.write("\n")


def json_default(obj):
    """The JSON form of numpy arrays and scalars, as `json.dump`'s default."""
    if isinstance(obj, (np.ndarray, np.floating, np.integer)):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def run_experiment(cfg: "ExperimentConfig", jobs: int = 1) -> dict:
    """Execute one configured experiment; writes outputs to cfg.output_dir.

    Ensemble members run in `jobs` worker processes.  Returns a summary dict
    (also written as summary.json).  Any failure is captured in error.json
    and re-raised.
    """
    rc = cfg.validate()
    _check_jobs(jobs)
    out = rc.output_dir
    os.makedirs(out, exist_ok=True)
    t0 = time.perf_counter()
    try:
        summary = KINDS[rc.kind].run(rc, jobs)
    except Exception as exc:  # noqa: BLE001 - reported then re-raised
        _write_json(os.path.join(out, "error.json"),
                    {"kind": rc.kind, "error": f"{type(exc).__name__}: {exc}"})
        raise
    meta = {
        "config": json.loads(cfg.to_json()),
        "version": __version__,
        "prng": fields.PRNG_NAME,
        "wall_time_s": time.perf_counter() - t0,
    }
    _write_json(os.path.join(out, "metadata.json"), meta)
    _write_json(os.path.join(out, "summary.json"), summary)
    return summary


def _exp_field_gen(rc, jobs):
    fld = _build_field(rc.generator, rc.grid, rc.master_seed)
    path = os.path.join(rc.output_dir, "field.bin")
    lattice.write_field(path, fld.a, fld.grid, kind="coefficient", provenance=fld.provenance)
    return {"kind": "field-gen", "path": path, "provenance": fld.provenance}


def _exp_coarsen(rc, jobs):
    fld = _build_field(rc.generator, rc.grid, rc.master_seed)
    m, levels = rc.grid.m, rc.scales
    below = [n for n in levels if n < m]
    parts = {n: coarse.partition_matrices(fld, rc.grid.macro_cube(), n, rc.opts)
             for n in sorted(set(levels) | ({m} if below else set()))}
    recs = [coarse.cascade_record(n, parts[n]) for n in sorted(levels)]
    d, blocks = rc.grid.d, ("a_upper_mean", "a_upper_var", "a_lower_harm")
    _write_csv(os.path.join(rc.output_dir, "cascade.csv"),
               ["level", "gap_mean", "defect_bound_mean"]
               + [f"{b}_{i}{j}" for b in blocks for i in range(d) for j in range(d)],
               [[r.level, r.gap_mean, r.defect_bound_mean, *r.a_upper_mean.ravel(),
                 *r.a_upper_var.ravel(), *r.a_lower_harmonic.ravel()] for r in recs])
    sub = coarse.subadditivity_slacks(parts[m][0], parts[min(below)]) if below else None
    return {
        "kind": "coarsen",
        "levels": list(levels),
        "gap_by_level": {r.level: r.gap_mean for r in recs},
        "subadditivity_slacks": None if sub is None else {
            "upper": sub["upper_slack_min_eig"], "lower": sub["lower_slack_min_eig"]},
    }


def _exp_corrector(rc, jobs):
    mode = rc.extra["mode"]
    if mode == "periodic":
        run = partial(_periodic_abar_member, rc.generator, rc.grid, rc.opts)
        stats = ensemble(run, rc.ensemble_size, rc.master_seed, jobs)
        d = rc.grid.d
        return {"kind": "corrector", "mode": mode,
                "abar_mean": np.asarray(stats.mean).reshape(d, d),
                "abar_variance": np.asarray(stats.variance).reshape(d, d)}
    table = []
    for m in rc.scales:
        run = partial(_sublinearity_member, rc.generator, rc.grid, m, rc.opts)
        stats = ensemble(run, rc.ensemble_size, rc.master_seed, jobs)
        table.append((m, float(stats.mean), float(stats.variance)))
    _write_csv(os.path.join(rc.output_dir, "sublinearity.csv"),
               ["m", "R_mean", "R_variance"], table)
    fit = rate_fit([3.0**m for m, _, _ in table], [r for _, r, _ in table])
    return {"kind": "corrector", "mode": mode, "R_table": table, "fit": asdict(fit)}


def _exp_twoscale(rc, jobs):
    unit = _level_field(rc.generator, rc.grid, rc.master_seed, 0)
    cset = correctors.periodic_homogenized_matrix(unit, rc.opts)
    reports = [twoscale.dirichlet_error(fields.tile_unit_cell(unit, twoscale.scale_level(eps)),
                                        rc.extra["slope"], cset, eps, rc.opts)
               for eps in rc.scales]
    rows = twoscale.error_table_rows(reports)
    _write_csv(os.path.join(rc.output_dir, "twoscale.csv"),
               list(rows[0].keys()), [list(r.values()) for r in rows])
    fit = rate_fit([r.eps for r in reports], [r.grad_error for r in reports])
    return {"kind": "twoscale", "rows": rows, "grad_rate": asdict(fit),
            "abar": cset.abar}


def _exp_cascade(rc, jobs):
    make_field = partial(_level_field, rc.generator, rc.grid)
    out = fluctuation_cascade(make_field, rc.scales, rc.ensemble_size,
                              rc.master_seed, opts=rc.opts, jobs=jobs)
    rows = [(row["r"], row["torus_level"], row["total_variance"])
            for row in out["per_r"]]
    _write_csv(os.path.join(rc.output_dir, "cascade_variance.csv"),
               ["r", "torus_level", "total_variance"], rows)
    summary = {"kind": "cascade", "per_r": rows, "fit": asdict(out["fit"])}
    if rc.extra["cube_levels"]:
        out2 = cube_average_fluctuations(make_field, rc.extra["cube_levels"],
                                         rc.ensemble_size, rc.master_seed,
                                         opts=rc.opts, jobs=jobs)
        summary["cube_fit"] = asdict(out2["fit"])
        summary["cube_per_n"] = [(r["n"], r["variance"]) for r in out2["per_n"]]
    return summary


def _exp_walk(rc, jobs):
    net = stochproc.build_network(_build_field(rc.generator, rc.grid, rc.master_seed))
    horizon, n_paths, times = rc.extra["horizon"], rc.extra["n_paths"], rc.extra["sample_times"]
    rep = stochproc.simulate_walks(net, horizon, n_paths, rc.master_seed, times)
    return {"kind": "walk", "times": rep.times, "n_paths": n_paths,
            "covariances": rep.covariances, "target": rep.target,
            "mean_displacement": rep.mean_displacement, **rep.metadata}


def _exp_green(rc, jobs):
    fld = _build_field(rc.generator, rc.grid, rc.master_seed)
    t_final, dt, source = rc.extra["t"], rc.extra["dt"], rc.extra["source"]
    rep = stochproc.parabolic_green(fld, t_final, source, dt)
    return {
        "kind": "green", "t": t_final, "dt": dt, "source": list(source),
        "errors": rep.green_errors, "nash_margins": rep.nash_margins,
        "mass_drift": rep.mass_drift,
        "steps": rep.metadata["steps"], "cg_iterations": rep.metadata["cg_iterations"],
    }


# ---------------------------------------------------------------------------
# the experiment kinds: each kind's defaults, its check and its runner
# ---------------------------------------------------------------------------


def _check_levels(levels, key: str, top=math.inf) -> None:
    if not (isinstance(levels, (list, tuple)) and levels
            and all(_is_integer(n) and 0 <= n <= top for n in levels)):
        raise ValueError(f"{key} must be 1 or more integer levels in [0, {top}], "
                         f"got {levels!r}")


def _check_fit_scales(scales, key: str) -> None:
    """The scales of a rate fit: MIN_FIT_POINTS or more distinct values."""
    if len(set(scales)) < MIN_FIT_POINTS:
        raise ValueError(f"{key} must hold {MIN_FIT_POINTS} or more distinct values for "
                         f"a rate fit, got {list(scales)!r}")


def _numbers(values, key: str, count: int, check=float) -> tuple:
    """`values` as floats, if it lists `count` or more finite numbers that
    `check` accepts; a ValueError from `check` is raised again naming `key`."""
    if not (isinstance(values, (list, tuple)) and len(values) >= count
            and all(_is_real(x) and math.isfinite(x) for x in values)):
        raise ValueError(f"{key} must be {count} or more finite numbers, got {values!r}")
    try:
        for x in values:
            check(x)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None
    return tuple(float(x) for x in values)


def _positive(extra: dict, key: str) -> float:
    """extra[key], a finite number once `_filled` has checked it, if it is > 0."""
    if not extra[key] > 0:
        raise ValueError(f"'extra.{key}' must be > 0, got {extra[key]!r}")
    return float(extra[key])


def _field_problem(generator: tuple, grid):
    """Why a resolved generator cannot build a field on `grid`, as (argument name, reason),
    or None when it can: the check its builder raises."""
    name, kw = generator
    if name == "constant":
        return None if kw["matrix"] is None else fields.constant_problem(grid.d, kw["matrix"])
    if name == "laminate":
        return fields.laminate_problem(grid, **kw)
    if name == "checkerboard":
        return fields.checkerboard_problem(**kw)
    return fields.gaussian_problem(**kw)


def _check_field(rc, levels):
    """rc, once its generator fits the grid of each level that its runner builds a field on."""
    for m in sorted(set(levels)):
        _raise_named(_field_problem(rc.generator, replace(rc.grid, m=m)), "generator.",
                     f" on the level-{m} grid")
    return rc


def _check_coarsen(rc):
    _check_levels(rc.scales, "'scales'", top=rc.grid.m)
    return _check_field(rc, [rc.grid.m])


def _check_corrector(rc):
    mode = rc.extra["mode"]
    if mode not in CORRECTOR_MODES:
        raise ValueError(f"unknown corrector mode {mode!r} in 'extra.mode'; "
                         f"expected one of {CORRECTOR_MODES}")
    if mode == "finite-volume":
        _check_levels(rc.scales, "'scales'")
        _check_fit_scales(rc.scales, "'scales'")
        # a cube of one cell has no interior node, so its corrector and R vanish
        n = min(rc.scales)
        if 3**n * rc.grid.k < 2:
            raise ValueError(f"'scales' level {n} gives a cube of {3**n * rc.grid.k} cell per "
                             f"side; a finite-volume corrector needs at least 2")
        return _check_field(rc, rc.scales)
    return _check_field(rc, [rc.grid.m])


def _check_twoscale(rc):
    scales = _numbers(rc.scales, "'scales'", MIN_FIT_POINTS, twoscale.scale_level)
    _check_fit_scales(scales, "'scales'")
    d, slope = rc.grid.d, rc.extra["slope"]
    if slope is not None and (len(_numbers(slope, "'extra.slope'", d)) != d or not any(slope)):
        raise ValueError(f"'extra.slope' must be {d} numbers, not all zero, got {slope!r}")
    rc = replace(rc, scales=scales, extra={"slope": slope or [1.0] + [0.0] * (d - 1)})
    return _check_field(rc, [0])        # the runner builds the unit cell and tiles it


def _check_cascade(rc):
    if rc.ensemble_size < MIN_SEEDS:
        raise ValueError(f"ensemble_size must be >= {MIN_SEEDS} for a variance, "
                         f"got {rc.ensemble_size}")
    radii = _numbers(rc.scales, "'scales'", MIN_FIT_POINTS,
                     partial(renorm.heat_kernel_1d, h=rc.grid.h))
    _check_fit_scales(radii, "'scales'")
    cube_levels = rc.extra["cube_levels"] or []
    if cube_levels:
        _check_levels(cube_levels, "'extra.cube_levels'")
        _check_fit_scales(cube_levels, "'extra.cube_levels'")
    return _check_field(replace(rc, scales=radii),
                        [_torus_level_for(r) for r in radii] + list(cube_levels))


def _check_walk(rc):
    horizon = _positive(rc.extra, "horizon")
    if rc.extra["n_paths"] < 2:         # an integer, once `_filled` has checked it
        raise ValueError(f"'extra.n_paths' must be >= 2, got {rc.extra['n_paths']!r}")
    times = rc.extra["sample_times"]
    if times is not None and not (isinstance(times, (list, tuple)) and times and all(
            _is_real(s) and 0 <= s <= horizon for s in times)):
        raise ValueError(f"'extra.sample_times' must be a non-empty list of times in "
                         f"[0, horizon = {horizon}], got {times!r}")
    return _check_field(replace(rc, extra=dict(rc.extra, horizon=horizon)), [rc.grid.m])


def _check_green(rc):
    t, dt = _positive(rc.extra, "t"), _positive(rc.extra, "dt")
    try:
        stochproc.green_step_count(t, dt)
    except ValueError as exc:
        raise ValueError(f"'extra.t' and 'extra.dt': {exc}") from None
    source = rc.extra["source"]
    if source is not None:
        lattice.cell_index(source, rc.grid.cell_shape, name="'extra.source'")
    rc = replace(rc, extra={"t": t, "dt": dt,
                            "source": source or [rc.grid.side // 2] * rc.grid.d})
    return _check_field(rc, [rc.grid.m])


@dataclass(frozen=True)
class ExperimentKind:
    """One experiment kind: its runner, its check and its defaults."""

    run: Callable                       # run(resolved, jobs) -> summary
    # check(resolved) -> resolved, derived values filled in; by default the field's grid level
    check: Callable = lambda rc: _check_field(rc, [rc.grid.m])
    extra: dict = field(default_factory=dict)   # the `extra` keys it reads, with defaults
    grid: dict = field(default_factory=dict)    # its grid defaults over GRID_DEFAULTS
    scales: Callable = lambda grid: ()  # scales(grid) -> the default scales
    ensemble_size: int = 1              # members when the config gives none


KINDS = {
    "field-gen": ExperimentKind(_exp_field_gen),
    "coarsen": ExperimentKind(_exp_coarsen, _check_coarsen,
                              scales=lambda grid: range(grid.m + 1)),
    "corrector": ExperimentKind(_exp_corrector, _check_corrector, extra={"mode": "periodic"}),
    "twoscale": ExperimentKind(_exp_twoscale, _check_twoscale, extra={"slope": None},
                               grid={"k": 10}, scales=lambda grid: (1 / 3, 1 / 9, 1 / 27)),
    "cascade": ExperimentKind(_exp_cascade, _check_cascade, extra={"cube_levels": None},
                              scales=lambda grid: (4.0, 8.0, 16.0, 32.0),
                              ensemble_size=MIN_SEEDS),
    "walk": ExperimentKind(_exp_walk, _check_walk,
                           extra={"horizon": 100.0, "n_paths": 10_000, "sample_times": None}),
    "green": ExperimentKind(_exp_green, _check_green,
                            extra={"t": 25.0, "dt": 0.25, "source": None}),
}
