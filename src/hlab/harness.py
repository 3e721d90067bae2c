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

import csv
import json
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from functools import partial

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
    "field_from_config",
    "run_experiment",
    "json_default",
]

# each experiment kind, the `extra` keys it reads and their defaults (None: the
# runner works the value out from the grid, or skips what the key asks for)
EXTRA_KEYS = {"field-gen": {}, "coarsen": {}, "corrector": {"mode": "periodic"},
              "twoscale": {"slope": None}, "cascade": {"cube_levels": None},
              "walk": {"horizon": 100.0, "n_paths": 10_000, "sample_times": None},
              "green": {"t": 25.0, "dt": 0.25, "source": None}}
EXPERIMENT_KINDS = tuple(EXTRA_KEYS)
CORRECTOR_MODES = ("periodic", "finite-volume")
GRID_DEFAULTS = {"d": 2, "m": 1, "k": 1}
# each generator's config keys and their defaults ("name" selects the generator);
# the constant generator's matrix defaults to the identity of the grid's dimension
GENERATORS = {
    "constant": {"matrix": None},
    "laminate": {"v1": 1.0, "v2": 4.0, "period": 1.0, "axis": 1},
    "checkerboard": {"v_white": 1.0, "v_black": 4.0, "p_black": 0.5},
    "gaussian": {"amplitude": 0.5, "decay": 1.0, "truncation": 8, "Lam": 4.0},
}


@dataclass
class ExperimentConfig:
    """JSON-serializable description of one experiment run."""

    kind: str
    generator: dict = field(default_factory=dict)   # e.g. {"name": "checkerboard", ...}
    grid: dict = field(default_factory=dict)        # {"d": 2, "m": 3, "k": 1}
    scales: list = field(default_factory=list)      # levels, radii, or eps values
    ensemble_size: int = 1
    master_seed: int = 0
    solver: dict = field(default_factory=dict)      # SolveOptions overrides
    output_dir: str = "."
    extra: dict = field(default_factory=dict)       # experiment-specific knobs

    def validate(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; "
                             f"expected one of {EXPERIMENT_KINDS}")
        size = self.ensemble_size
        if not _is_integer(size) or size < 1:
            raise ValueError(f"ensemble_size must be an integer >= 1, got {size!r}")
        seed = self.master_seed
        if not _is_integer(seed) or not 0 <= seed < 2**64:
            raise ValueError(f"master_seed must be an integer in [0, 2**64), got {seed!r}")
        grid = _grid(self.grid)
        _generator_args(self.generator)
        extra = _extra_args(self.kind, self.extra)
        if self.kind == "corrector" and extra["mode"] not in CORRECTOR_MODES:
            raise ValueError(f"unknown corrector mode {extra['mode']!r} in 'extra.mode'; "
                             f"expected one of {CORRECTOR_MODES}")
        if self.kind == "walk":
            _check_walk(extra)
        if self.kind == "green":
            _check_green(extra, grid)
        _reject_unknown_keys(self.solver, _field_names(solver.SolveOptions), "solver.")
        solver.SolveOptions(**self.solver)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        _reject_unknown_keys(data, _field_names(cls))
        return cls(**data)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json(fh.read())


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _field_names(cls) -> set:
    return {f.name for f in dataclass_fields(cls)}


def _reject_unknown_keys(data: dict, known, prefix: str = "") -> None:
    unknown = [repr(prefix + k) for k in sorted(data) if k not in known]
    if unknown:
        raise ValueError(f"unknown config key {', '.join(unknown)}; "
                         f"expected one of {sorted(known)}")


def _extra_args(kind: str, extra: dict) -> dict:
    """The `extra` values the kind reads, defaults filled in."""
    _reject_unknown_keys(extra, EXTRA_KEYS[kind], "extra.")
    return {k: extra.get(k, v) for k, v in EXTRA_KEYS[kind].items()}


def _positive(extra: dict, key: str) -> float:
    value = extra[key]
    if not _is_real(value) or not 0 < value < math.inf:
        raise ValueError(f"'extra.{key}' must be a finite number > 0, got {value!r}")
    return float(value)


def _check_walk(extra: dict) -> None:
    horizon = _positive(extra, "horizon")
    n_paths = extra["n_paths"]
    if not _is_integer(n_paths) or n_paths < 2:
        raise ValueError(f"'extra.n_paths' must be an integer >= 2, got {n_paths!r}")
    times = extra["sample_times"]
    if times is not None and not (isinstance(times, (list, tuple)) and times and all(
            _is_real(s) and 0 <= s <= horizon for s in times)):
        raise ValueError(f"'extra.sample_times' must be a non-empty list of times in "
                         f"[0, horizon = {horizon}], got {times!r}")


def _check_green(extra: dict, grid) -> None:
    t, dt = _positive(extra, "t"), _positive(extra, "dt")
    if not np.isclose(round(t / dt) * dt, t):     # the step rule of parabolic_green
        raise ValueError(f"'extra.t' = {t} must be a whole multiple of 'extra.dt' = {dt}")
    if extra["source"] is not None:
        lattice.cell_index(extra["source"], grid.cell_shape, name="'extra.source'")


class EnsembleStats:
    """Streaming mean/variance with an exact pairwise merge (Welford form)."""

    def __init__(self):
        self.count = 0
        self.mean = None
        self.M2 = None
        self.min = None
        self.max = None
        self.seeds = []

    def update(self, value, seed=None):
        value = np.asarray(value, dtype=float)
        if self.count == 0:
            self.count = 1
            self.mean = value.copy()
            self.M2 = np.zeros_like(value)
            self.min = value.copy()
            self.max = value.copy()
        else:
            self.count += 1
            delta = value - self.mean
            self.mean = self.mean + delta / self.count
            self.M2 = self.M2 + delta * (value - self.mean)
            self.min = np.minimum(self.min, value)
            self.max = np.maximum(self.max, value)
        if seed is not None:
            self.seeds.append(int(seed))
        return self

    def merge(self, other: "EnsembleStats") -> "EnsembleStats":
        """Combined statistics, exactly those of the concatenated sample."""
        out = EnsembleStats()
        if other.count == 0:
            a = self
            out.count, out.seeds = a.count, list(a.seeds)
            if a.count:
                out.mean, out.M2 = a.mean.copy(), a.M2.copy()
                out.min, out.max = a.min.copy(), a.max.copy()
            return out
        if self.count == 0:
            return other.merge(self)
        n = self.count + other.count
        delta = other.mean - self.mean
        out.count = n
        out.mean = self.mean + delta * (other.count / n)
        out.M2 = self.M2 + other.M2 + delta**2 * (self.count * other.count / n)
        out.min = np.minimum(self.min, other.min)
        out.max = np.maximum(self.max, other.max)
        out.seeds = list(self.seeds) + list(other.seeds)
        return out

    @property
    def variance(self):
        """Unbiased sample variance; zero sentinel for a single member."""
        if self.count < 2:
            return np.zeros_like(self.mean) if self.mean is not None else None
        return self.M2 / (self.count - 1)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": None if self.mean is None else np.asarray(self.mean).tolist(),
            "variance": None if self.mean is None else np.asarray(self.variance).tolist(),
            "min": None if self.min is None else np.asarray(self.min).tolist(),
            "max": None if self.max is None else np.asarray(self.max).tolist(),
            "seeds": self.seeds,
        }

    @classmethod
    def from_values(cls, values, seeds=None) -> "EnsembleStats":
        st = cls()
        for i, v in enumerate(values):
            st.update(v, None if seeds is None else seeds[i])
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
    in that many worker processes, so `run` must pickle.
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
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
    leaves = [EnsembleStats().update(v, s) for v, s in zip(values, seeds)]
    return _reduce_tree(leaves)


@dataclass
class FitTarget:
    """A fitted power-law exponent against a declared expectation."""

    fitted: float
    intercept: float
    ci_low: float
    ci_high: float
    expected: float = None
    band: tuple = None          # acceptable (lo, hi) for the exponent

    @property
    def within_band(self):
        if self.band is None:
            return None
        return self.band[0] <= self.fitted <= self.band[1]

    def to_dict(self) -> dict:
        out = asdict(self)
        out["within_band"] = self.within_band
        return out


def rate_fit(scales, values, variances=None, expected: float = None,
             band: tuple = None, n_boot: int = 200, boot_seed: int = 0) -> FitTarget:
    """Least-squares slope of log(value) against log(scale), with bootstrap CI.

    With per-point ensemble variances the bootstrap perturbs each value by its
    standard error; otherwise it resamples the points.
    """
    scales = np.asarray(scales, dtype=float)
    values = np.asarray(values, dtype=float)
    if scales.size < 3:
        raise ValueError("rate fit needs at least 3 points")
    if np.any(values <= 0) or np.any(scales <= 0):
        raise ValueError("rate fit needs positive scales and values")
    ls, lv = np.log(scales), np.log(values)
    slope, intercept = np.polyfit(ls, lv, 1)

    rng = np.random.default_rng(boot_seed)
    boots = []
    for _ in range(n_boot):
        if variances is not None:
            se = np.sqrt(np.asarray(variances, dtype=float))
            v = values + rng.standard_normal(values.shape) * se
            if np.any(v <= 0):
                continue
            boots.append(np.polyfit(ls, np.log(v), 1)[0])
        else:
            idx = rng.integers(0, scales.size, size=scales.size)
            if np.unique(ls[idx]).size < 2:
                continue
            boots.append(np.polyfit(ls[idx], lv[idx], 1)[0])
    if boots:
        lo, hi = np.percentile(boots, [2.5, 97.5])
        lo, hi = min(lo, slope), max(hi, slope)
    else:
        lo = hi = slope
    return FitTarget(float(slope), float(intercept), float(lo), float(hi),
                     expected=expected, band=band)


# ---------------------------------------------------------------------------
# fields from config blocks
# ---------------------------------------------------------------------------


def _grid(grid_cfg: dict):
    """The GridSpec of a config grid block, defaults filled in."""
    _reject_unknown_keys(grid_cfg, GRID_DEFAULTS, "grid.")
    return lattice.GridSpec(**{k: grid_cfg.get(k, v) for k, v in GRID_DEFAULTS.items()})


def _generator_args(generator: dict):
    """The generator's name and its keyword arguments, defaults filled in."""
    name = generator.get("name", "checkerboard")
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r} in 'generator.name'; "
                         f"expected one of {sorted(GENERATORS)}")
    _reject_unknown_keys(generator, {"name", *GENERATORS[name]}, "generator.")
    return name, {k: generator.get(k, v) for k, v in GENERATORS[name].items()}


def field_from_config(generator: dict, grid_cfg: dict, seed: int):
    """Build a coefficient field from a config generator block."""
    grid = _grid(grid_cfg)
    name, kw = _generator_args(generator)
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

# Ensemble members are module-level functions of plain data (config blocks,
# SolveOptions, the member seed last), bound with functools.partial, so that
# worker processes can unpickle them.


def _config_field(generator: dict, grid_cfg: dict, seed: int, m: int):
    """The configured field on the level-m grid: the `make_field` of `hlab cascade`."""
    return field_from_config(generator, dict(grid_cfg, m=m), seed)


def _periodic_abar_member(generator, grid_cfg, opts, seed):
    fld = field_from_config(generator, grid_cfg, seed)
    return correctors.periodic_homogenized_matrix(fld, opts).abar.ravel()


def _sublinearity_member(generator, grid_cfg, m, opts, seed):
    fld = _config_field(generator, grid_cfg, seed, m)
    return correctors.sublinearity_R(correctors.finite_volume_correctors(fld, m, opts))


def _b_r_at_origin(make_field, r, m, delta, opts, seed):
    """Ensemble member of `fluctuation_cascade`: b_r at the origin cell, flattened."""
    fld = make_field(seed, m)
    cset = correctors.periodic_homogenized_matrix(fld, opts, with_flux_correctors=False)
    hc = renorm.coarse_grained_b(cset, fld, r, [(0,) * fld.grid.d], delta=delta, opts=opts)
    return hc.b[0].ravel()


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


def fluctuation_cascade(make_field, r_list, n_seeds: int, master_seed: int = 0,
                        delta: float = 0.25, band: tuple = None,
                        opts: solver.SolveOptions = None, jobs: int = 1) -> dict:
    """Ensemble variance of b_r(0) across radii, with a log-log slope fit.

    `make_field(seed, m)` must return a periodic coefficient field on the
    level-m torus; with jobs > 1 it must pickle (a module-level function or
    a functools.partial of one).  Every sampled point enters the statistics:
    degenerate points contribute their blended value.
    """
    if n_seeds < 2:
        raise ValueError("variance estimation needs at least 2 seeds")
    per_r = []
    for r in sorted(r_list):
        m = _torus_level_for(r)
        run = partial(_b_r_at_origin, make_field, r, m, delta, opts)
        stats = ensemble(run, n_seeds, master_seed, jobs)
        per_r.append({
            "r": float(r), "torus_level": m,
            "mean": np.asarray(stats.mean),
            "variance": np.asarray(stats.variance),
            "total_variance": float(np.asarray(stats.variance).sum()),
        })
    fit = rate_fit([row["r"] for row in per_r],
                   [max(row["total_variance"], 1e-300) for row in per_r],
                   band=band)
    return {"per_r": per_r, "fit": fit, "n_seeds": n_seeds,
            "master_seed": master_seed, "delta": delta}


def cube_average_fluctuations(make_field, n_list, n_seeds: int,
                              master_seed: int = 0, band: tuple = None,
                              opts: solver.SolveOptions = None, jobs: int = 1) -> dict:
    """Ensemble variance of e1 . a(level-n cube) e1 across levels, slope-fitted.

    `make_field` is as in `fluctuation_cascade`.
    """
    if n_seeds < 2:
        raise ValueError("variance estimation needs at least 2 seeds")
    per_n = []
    for n in sorted(n_list):
        stats = ensemble(partial(_e1_upper_entry, make_field, n, opts), n_seeds, master_seed, jobs)
        per_n.append({
            "n": int(n), "scale": float(3**n),
            "mean": float(stats.mean),
            "variance": float(stats.variance),
        })
    fit = rate_fit([row["scale"] for row in per_n],
                   [max(row["variance"], 1e-300) for row in per_n],
                   band=band)
    return {"per_n": per_n, "fit": fit, "n_seeds": n_seeds,
            "master_seed": master_seed}


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------


def _solve_options(cfg: "ExperimentConfig"):
    return solver.SolveOptions(**cfg.solver)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=json_default)
        fh.write("\n")


def json_default(obj):
    """The JSON form of numpy arrays and scalars, as `json.dump`'s default."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def run_experiment(cfg: "ExperimentConfig", jobs: int = 1) -> dict:
    """Execute one configured experiment; writes outputs to cfg.output_dir.

    Ensemble members run in `jobs` worker processes.  Returns a summary dict
    (also written as summary.json).  Any failure is captured in error.json
    and re-raised.
    """
    cfg.validate()
    _check_jobs(jobs)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    t0 = time.time()
    try:
        summary = _EXPERIMENTS[cfg.kind](cfg, jobs)
    except Exception as exc:  # noqa: BLE001 - reported then re-raised
        _write_json(os.path.join(out, "error.json"),
                    {"kind": cfg.kind, "error": f"{type(exc).__name__}: {exc}"})
        raise
    meta = {
        "config": json.loads(cfg.to_json()),
        "version": __version__,
        "prng": fields.PRNG_NAME,
        "wall_time_s": time.time() - t0,
    }
    _write_json(os.path.join(out, "metadata.json"), meta)
    _write_json(os.path.join(out, "summary.json"), summary)
    return summary


def _exp_field_gen(cfg, jobs):
    fld = field_from_config(cfg.generator, cfg.grid, cfg.master_seed)
    path = os.path.join(cfg.output_dir, "field.bin")
    lattice.write_field(path, fld.a, fld.grid, kind="coefficient", provenance=fld.provenance)
    return {"kind": "field-gen", "path": path, "provenance": fld.provenance}


def _exp_coarsen(cfg, jobs):
    opts = _solve_options(cfg)
    fld = field_from_config(cfg.generator, cfg.grid, cfg.master_seed)
    m = fld.grid.m
    cube = fld.grid.macro_cube()
    levels = [int(s) for s in (cfg.scales or range(m + 1))]
    outside = [n for n in levels if not 0 <= n <= m]
    if outside:
        raise ValueError(f"scales {outside} lie outside the levels [0, {m}] of the grid")
    # each level's partition is solved once; the ledger reads the finest
    # level's children and the level-m parent from the cascade's results
    below = [n for n in levels if n < m]
    children = parent = None
    recs = []
    for n in sorted(levels):
        results = coarse.partition_matrices(fld, cube, n, opts)
        recs.append(coarse.cascade_record(n, results))
        if below and n == min(below):
            children = results
        elif n == m:
            parent = results[0]
    coarse.write_cascade_csv(os.path.join(cfg.output_dir, "cascade.csv"), recs)
    sub = None
    if below:
        if parent is None:
            parent = coarse.partition_matrices(fld, cube, m, opts)[0]
        sub = coarse.subadditivity_slacks(parent, children)
    return {
        "kind": "coarsen",
        "levels": levels,
        "gap_by_level": {r.level: r.gap_mean for r in recs},
        "subadditivity_slacks": None if sub is None else {
            "upper": sub["upper_slack_min_eig"], "lower": sub["lower_slack_min_eig"]},
    }


def _exp_corrector(cfg, jobs):
    opts = _solve_options(cfg)
    mode = _extra_args("corrector", cfg.extra)["mode"]
    if mode == "periodic":
        run = partial(_periodic_abar_member, cfg.generator, cfg.grid, opts)
        stats = ensemble(run, cfg.ensemble_size, cfg.master_seed, jobs)
        d = cfg.grid.get("d", 2)
        summary = {"kind": "corrector", "mode": mode,
                   "abar_mean": np.asarray(stats.mean).reshape(d, d),
                   "abar_variance": np.asarray(stats.variance).reshape(d, d)}
    else:
        levels = [int(s) for s in cfg.scales]
        table = []
        for m in levels:
            run = partial(_sublinearity_member, cfg.generator, cfg.grid, m, opts)
            stats = ensemble(run, cfg.ensemble_size, cfg.master_seed, jobs)
            table.append((m, float(stats.mean), float(stats.variance)))
        _write_csv(os.path.join(cfg.output_dir, "sublinearity.csv"),
                   ["m", "R_mean", "R_variance"], table)
        fit = rate_fit([3.0**m for m, _, _ in table], [r for _, r, _ in table])
        summary = {"kind": "corrector", "mode": mode,
                   "R_table": table, "fit": fit.to_dict()}
    return summary


def _exp_twoscale(cfg, jobs):
    opts = _solve_options(cfg)
    d, k = cfg.grid.get("d", 2), cfg.grid.get("k", 10)
    unit = field_from_config(cfg.generator, dict(cfg.grid, m=0, k=k), cfg.master_seed)
    cset = correctors.periodic_homogenized_matrix(unit, opts)
    p = cfg.extra.get("slope", [1.0] + [0.0] * (d - 1))
    u = twoscale.macro_affine(p)
    reports = []
    for eps in (cfg.scales or [1 / 3, 1 / 9, 1 / 27]):
        M = round(-np.log(float(eps)) / np.log(3.0))
        fld = fields.tile_unit_cell(unit, M)
        reports.append(twoscale.dirichlet_error(fld, u, cset, float(eps), opts))
    rows = twoscale.error_table_rows(reports)
    _write_csv(os.path.join(cfg.output_dir, "twoscale.csv"),
               list(rows[0].keys()), [list(r.values()) for r in rows])
    fit = rate_fit([r.eps for r in reports], [r.grad_error for r in reports])
    return {"kind": "twoscale", "rows": rows, "grad_rate": fit.to_dict(),
            "abar": cset.abar}


def _exp_cascade(cfg, jobs):
    radii = [float(r) for r in (cfg.scales or [4, 8, 16, 32])]
    make_field = partial(_config_field, cfg.generator, cfg.grid)
    out = fluctuation_cascade(make_field, radii, cfg.ensemble_size,
                              cfg.master_seed, opts=_solve_options(cfg), jobs=jobs)
    rows = [(row["r"], row["torus_level"], row["total_variance"])
            for row in out["per_r"]]
    _write_csv(os.path.join(cfg.output_dir, "cascade_variance.csv"),
               ["r", "torus_level", "total_variance"], rows)
    summary = {"kind": "cascade", "per_r": rows, "fit": out["fit"].to_dict()}
    cube_levels = cfg.extra.get("cube_levels")
    if cube_levels:
        out2 = cube_average_fluctuations(make_field, [int(n) for n in cube_levels],
                                         cfg.ensemble_size, cfg.master_seed,
                                         opts=_solve_options(cfg), jobs=jobs)
        summary["cube_fit"] = out2["fit"].to_dict()
        summary["cube_per_n"] = [(r["n"], r["variance"]) for r in out2["per_n"]]
    return summary


def _exp_walk(cfg, jobs):
    fld = field_from_config(cfg.generator, cfg.grid, cfg.master_seed)
    net = stochproc.build_network(fld)
    extra = _extra_args("walk", cfg.extra)
    T = float(extra["horizon"])
    n_paths = int(extra["n_paths"])
    rep = stochproc.simulate_walks(net, T, n_paths, cfg.master_seed, extra["sample_times"])
    return {
        "kind": "walk", "times": rep.times, "n_paths": n_paths,
        "covariances": [c for c in rep.covariances],
        "target": rep.target,
        "mean_displacement": [m for m in rep.mean_displacement],
    }


def _exp_green(cfg, jobs):
    fld = field_from_config(cfg.generator, cfg.grid, cfg.master_seed)
    extra = _extra_args("green", cfg.extra)
    t_final = float(extra["t"])
    dt = float(extra["dt"])
    source = extra["source"] or [fld.grid.side // 2] * fld.grid.d
    rep = stochproc.parabolic_green(fld, t_final, tuple(int(s) for s in source), dt)
    return {
        "kind": "green", "t": t_final, "dt": dt, "source": list(source),
        "errors": rep.green_errors, "nash_margins": rep.nash_margins,
        "mass_drift": rep.mass_drift,
    }


_EXPERIMENTS = {
    "field-gen": _exp_field_gen,
    "coarsen": _exp_coarsen,
    "corrector": _exp_corrector,
    "twoscale": _exp_twoscale,
    "cascade": _exp_cascade,
    "walk": _exp_walk,
    "green": _exp_green,
}
