"""Command-line interface: configured experiments and a quick selftest."""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from .coarse import coarse_matrices, duality_defect
from .correctors import periodic_homogenized_matrix
from .fields import make_constant, make_laminate, sample_checkerboard
from .harness import EnsembleStats, ExperimentConfig, json_default, run_experiment
from .lattice import GridSpec, TriadicCube

_COMMON = [
    click.option("--config", "config_path", type=click.Path(exists=True),
                 help="JSON experiment configuration."),
    click.option("--seed", type=int, default=None, help="Master seed override."),
    click.option("--out", "out_dir", type=click.Path(), default=None,
                 help="Output directory override."),
    click.option("--jobs", type=int, default=1, show_default=True,
                 help="Worker processes for ensemble members (at least 1)."),
]


def _with_common(f):
    for opt in reversed(_COMMON):
        f = opt(f)
    return f


def _load_config(kind, config_path, seed, out_dir):
    if config_path:
        cfg = ExperimentConfig.load(config_path)
        if cfg.kind != kind:
            raise click.UsageError(
                f"config kind {cfg.kind!r} does not match the {kind!r} subcommand")
    else:
        cfg = ExperimentConfig(kind=kind)
    if seed is not None:
        cfg.master_seed = seed
    if out_dir is not None:
        cfg.output_dir = out_dir
    return cfg


def _execute(kind, config_path, seed, out_dir, jobs):
    try:
        summary = run_experiment(_load_config(kind, config_path, seed, out_dir), jobs=jobs)
    except click.UsageError:
        raise
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(1)
    click.echo(json.dumps(summary, sort_keys=True, default=json_default))
    sys.exit(0)


@click.group()
def main():
    """Numerical laboratory for quantitative stochastic homogenization."""


def _make_command(kind, name=None):
    @main.command(name=name or kind)
    @_with_common
    def _cmd(config_path, seed, out_dir, jobs):
        _execute(kind, config_path, seed, out_dir, jobs)

    _cmd.__doc__ = f"Run a {kind!r} experiment from a JSON config."
    return _cmd


gen_field = _make_command("field-gen", "gen-field")
coarsen = _make_command("coarsen")
corrector = _make_command("corrector")
twoscale = _make_command("twoscale")
cascade = _make_command("cascade")
walk = _make_command("walk")
green = _make_command("green")


@main.command()
def selftest():
    """Fast end-to-end consistency checks (no configuration needed)."""
    failures = []

    def check(label, ok):
        click.echo(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    g = GridSpec(2, 1, 10)
    lam = make_laminate(g, 1.0, 4.0, 1.0, axis=1)
    cset = periodic_homogenized_matrix(lam)
    check("laminate homogenized matrix = diag(1.6, 2.5)",
          np.abs(cset.abar - np.diag([1.6, 2.5])).max() < 1e-6)

    cb = sample_checkerboard(GridSpec(2, 2, 1), 7)
    r = coarse_matrices(cb, TriadicCube(2, (0, 0)))
    ev = np.linalg.eigvalsh(r.a_upper - r.a_lower)
    check("coarse pair ordered (a* <= a)", ev.min() > -1e-7)
    dd = duality_defect(r)
    check("duality defect bound nonnegative", dd["bound"] > -1e-10)

    a = EnsembleStats.from_values([1.0, 2.0, 4.0])
    b = EnsembleStats.from_values([8.0, 16.0])
    both = EnsembleStats.from_values([1.0, 2.0, 4.0, 8.0, 16.0])
    check("ensemble merge matches concatenation",
          np.isclose(a.merge(b).variance, both.variance))

    cf = make_constant(GridSpec(2, 1, 3), np.eye(2))
    cs = periodic_homogenized_matrix(cf)
    check("constant field correctors vanish",
          max(np.abs(p).max() for p in cs.phi) < 1e-9)

    if failures:
        click.echo(f"{len(failures)} selftest check(s) failed", err=True)
        sys.exit(1)
    click.echo("selftest passed")
    sys.exit(0)


if __name__ == "__main__":
    main()
