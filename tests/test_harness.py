"""Configs, deterministic ensembles, streaming statistics, rate fits, runner."""

import csv
import json
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hlab.coarse
import hlab.harness
from hlab.lattice import triadic_partition
from hlab.harness import (
    EnsembleStats,
    ExperimentConfig,
    ensemble,
    ensemble_values,
    member_seed,
    rate_fit,
    run_experiment,
)
from hlab.solver import SolverError


def _config_field(generator, grid, seed):
    # the runners' route: validate() resolves the blocks, the builder makes the field
    rc = ExperimentConfig("field-gen", generator=generator, grid=grid).validate()
    return hlab.harness._build_field(rc.generator, rc.grid, seed)


def _member_value(seed):
    # module-level so it pickles for worker processes
    return float(np.random.default_rng(seed).normal())


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig(kind="coarsen", grid={"d": 2, "m": 2, "k": 1},
                               scales=[0, 1, 2], ensemble_size=4, master_seed=9)
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_save_load(self, tmp_path):
        cfg = ExperimentConfig(kind="walk", extra={"horizon": 10.0})
        path = tmp_path / "cfg.json"
        cfg.save(path)
        assert ExperimentConfig.load(path) == cfg
        json.loads(path.read_text())  # well-formed file

    def test_validation(self, tmp_path):
        for kind in ("unknown", ["walk"]):
            with pytest.raises(ValueError, match="experiment kind"):
                ExperimentConfig(kind=kind).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(kind="walk", ensemble_size=0).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(kind="walk", solver={"tol": 0.5}).validate()
        with pytest.raises(ValueError, match="solver.preconditioner"):
            ExperimentConfig(kind="walk", solver={"preconditioner": "none"}).validate()
        with pytest.raises(ValueError, match="'ensemble'"):
            ExperimentConfig.from_json(json.dumps({"kind": "walk", "ensemble": 4}))
        for data in ({}, {"ensemble_size": 3}):
            with pytest.raises(ValueError, match="'kind'"):
                ExperimentConfig.from_json(json.dumps(data))
        for seed in (-1, 2**64, 1.5, "3", True):
            with pytest.raises(ValueError, match="master_seed"):
                ExperimentConfig(kind="walk", master_seed=seed).validate()
        ExperimentConfig(kind="walk", master_seed=2**64 - 1).validate()
        for bad, key in ((dict(grid={"K": 3}), "'grid.K'"),
                         (dict(generator={"name": "perlin"}), "'generator.name'"),
                         (dict(generator={"pblack": 0.9}), "'generator.pblack'"),
                         (dict(generator={"name": "laminate", "p_black": 0.9}),
                          "'generator.p_black'"),
                         (dict(extra={"mode": "periodc"}), "'extra.mode'")):
            with pytest.raises(ValueError, match=key):
                ExperimentConfig(kind="corrector", **bad).validate()
        ExperimentConfig(kind="corrector", grid={"d": 3, "m": 2, "k": 1}, scales=[1, 2, 3],
                         generator={"name": "gaussian", "Lam": 3.0},
                         extra={"mode": "finite-volume"}).validate()
        for size in (2.5, True, "3", 0):
            with pytest.raises(ValueError, match="ensemble_size"):
                ExperimentConfig(kind="coarsen", ensemble_size=size).validate()
        # each kind accepts only the extra keys it reads
        for kind, extra in (("cascade", {"cube_level": [1, 2]}), ("walk", {"mode": "periodic"}),
                            ("green", {"horizon": 4.0})):
            with pytest.raises(ValueError, match=f"'extra.{next(iter(extra))}'"):
                ExperimentConfig(kind=kind, extra=extra).validate()
        ExperimentConfig(kind="cascade", ensemble_size=2,
                         extra={"cube_levels": [1, 2, 3]}).validate()
        # a config without ensemble_size takes its kind's default
        assert ExperimentConfig(kind="cascade").validate().ensemble_size == 2
        assert ExperimentConfig(kind="walk").validate().ensemble_size == 1
        # a finite-volume level 0 is fine once the cube has 2 cells per side
        ExperimentConfig(kind="corrector", grid={"k": 2}, scales=[0, 1, 2],
                         extra={"mode": "finite-volume"}).validate()
        # walk and green values are checked before any solve, by key
        for kind, extra, key in (
                ("walk", {"horizon": -5}, "'extra.horizon'"),
                ("walk", {"horizon": float("inf")}, "'extra.horizon'"),
                ("walk", {"n_paths": 1}, "'extra.n_paths'"),
                ("walk", {"n_paths": 100.0}, "'extra.n_paths'"),
                ("walk", {"sample_times": [200]}, "'extra.sample_times'"),
                ("walk", {"horizon": 4.0, "sample_times": [-1.0, 2.0]}, "'extra.sample_times'"),
                ("walk", {"sample_times": []}, "'extra.sample_times'"),
                ("green", {"t": -1}, "'extra.t'"),
                ("green", {"dt": 0.0}, "'extra.dt'"),
                ("green", {"dt": 0.3}, "'extra.dt'"),
                ("green", {"t": 1e-9}, "'extra.t'"),     # rounds to no step at all
                ("green", {"source": [99, 99]}, "'extra.source'"),
                ("green", {"source": [1.5, 1]}, "'extra.source'"),
                ("green", {"source": [1]}, "'extra.source'")):
            with pytest.raises(ValueError, match=key):
                ExperimentConfig(kind=kind, extra=extra).validate()
        ExperimentConfig(kind="walk", extra={"horizon": 4, "n_paths": 2,
                                             "sample_times": [0, 2.5, 4]}).validate()
        ExperimentConfig(kind="green", grid={"d": 3, "m": 1, "k": 2},
                         extra={"t": 1.0, "dt": 0.25, "source": [5, 0, 3]}).validate()
        # scales, slopes and levels that would fail only after solves
        fv = {"mode": "finite-volume"}
        for kind, bad, key in (
                ("twoscale", dict(scales=[0.5, 1 / 9, 1 / 27]), "'scales'"),
                ("twoscale", dict(scales=[3.0, 1.0, 1 / 3]), "'scales'"),
                ("twoscale", dict(scales=[1 / 3, 1 / 9]), "'scales'"),
                ("twoscale", dict(scales=[1 / 3, 1 / 9, 1 / 9]), "'scales'"),
                ("twoscale", dict(extra={"slope": [1, 0, 0]}), "'extra.slope'"),
                ("twoscale", dict(extra={"slope": [1, "0"]}), "'extra.slope'"),
                ("twoscale", dict(extra={"slope": [0.0, 0.0]}), "'extra.slope'"),
                ("cascade", dict(ensemble_size=2, scales=[0.5, 1, 2]), "'scales'"),
                ("cascade", dict(ensemble_size=2, scales=[1, 2]), "'scales'"),
                ("cascade", dict(ensemble_size=2, scales=[2, 2.0, 4]), "'scales'"),
                ("cascade", dict(ensemble_size=2, extra={"cube_levels": [-1, 1, 2]}),
                 "'extra.cube_levels'"),
                ("cascade", dict(ensemble_size=2, extra={"cube_levels": [1, 2]}),
                 "'extra.cube_levels'"),
                ("cascade", dict(ensemble_size=2, extra={"cube_levels": [1, 2, 2]}),
                 "'extra.cube_levels'"),
                ("cascade", dict(ensemble_size=1), "ensemble_size"),
                ("corrector", dict(scales=[-1, 1, 2], extra=fv), "'scales'"),
                ("corrector", dict(scales=[1, 2], extra=fv), "'scales'"),
                ("corrector", dict(scales=[2, 2, 2], extra=fv), "'scales'"),
                ("corrector", dict(extra=fv), "'scales'"),
                ("corrector", dict(scales=[0, 1, 2], extra=fv), "'scales'"),
                ("coarsen", dict(scales=[0.5, 1]), "'scales'"),
                ("coarsen", dict(scales=3), "'scales'")):
            with pytest.raises(ValueError, match=key):
                ExperimentConfig(kind=kind, **bad).validate()
        # a laminate is checked on every level the kind builds a field on
        lam = {"name": "laminate"}
        for kind, bad, key in (
                ("coarsen", dict(generator={**lam, "period": 7.0}, grid={"d": 2, "m": 1, "k": 1}),
                 "'generator.period'"),
                ("twoscale", dict(generator={**lam, "period": 3.0}, grid={"d": 2, "m": 1, "k": 10}),
                 "'generator.period'"),
                ("corrector", dict(generator={**lam, "period": 2.0}, grid={"k": 2},
                                   scales=[0, 1, 2], extra=fv), "'generator.period'"),
                ("cascade", dict(generator={**lam, "period": 2.0}), "'generator.period'"),
                ("walk", dict(generator={**lam, "axis": 3}), "'generator.axis'"),
                ("green", dict(generator={**lam, "v2": 0.0}), "'generator.v2'")):
            with pytest.raises(ValueError, match=key):
                ExperimentConfig(kind=kind, **bad).validate()
        # periods that fit every level the kind builds
        ExperimentConfig(kind="twoscale", generator={**lam, "period": 0.2}).validate()
        ExperimentConfig(kind="corrector", generator={**lam, "period": 1.0}, grid={"k": 2},
                         scales=[0, 1, 2], extra=fv).validate()
        ExperimentConfig(kind="cascade", generator={**lam, "period": 1.0}, grid={"k": 2},
                         extra={"cube_levels": [1, 2, 3]}).validate()
        # every block is a mapping, every value has its default's type, and every
        # generator's values are checked, all before the output directory exists
        gauss, const = {"name": "gaussian"}, {"name": "constant"}
        for bad, key in ((dict(generator="checkerboard"), "'generator'"),
                         (dict(generator={"name": ["laminate"]}), "'generator.name'"),
                         (dict(grid=[2, 1, 1]), "'grid'"),
                         (dict(extra=[1]), "'extra'"),
                         (dict(grid={"m": "1"}), "'grid.m'"),
                         (dict(grid={"d": 2.0}), "'grid.d'"),
                         (dict(solver={"tol": "1e-8"}), "'solver.tol'"),
                         (dict(solver={"maxiter": 2.5}), "'solver.maxiter'"),
                         (dict(generator={**lam, "period": "1"}), "'generator.period'"),
                         (dict(generator={**gauss, "truncation": 2.5}), "'generator.truncation'"),
                         (dict(generator={**gauss, "decay": 0.0}), "'generator.decay'"),
                         (dict(generator={"p_black": 1.5}), "'generator.p_black'"),
                         (dict(generator={"v_white": float("nan")}), "'generator.v_white'"),
                         (dict(generator={**lam, "period": float("inf")}), "'generator.period'"),
                         (dict(generator={**const, "matrix": [[1, 2], [2, 1]]}),
                          "'generator.matrix'"),
                         (dict(generator={**const, "matrix": [[1, 0, 0]]}), "'generator.matrix'"),
                         (dict(grid={"d": 5}), "'grid.d'"),
                         (dict(grid={"m": -1}), "'grid.m'"),
                         (dict(grid={"k": 0}), "'grid.k'"),
                         (dict(solver={"tol": 0.5}), "'solver.tol'"),
                         (dict(solver={"maxiter": 0}), "'solver.maxiter'")):
            out = tmp_path / "out"
            with pytest.raises(ValueError, match=key):
                run_experiment(ExperimentConfig(kind="coarsen", output_dir=str(out), **bad))
            assert not out.exists()
        with pytest.raises(ValueError, match="'grid'"):
            ExperimentConfig.from_json(json.dumps({"kind": "coarsen", "grid": None})).validate()
        with pytest.raises(ValueError, match="'output_dir'"):
            run_experiment(ExperimentConfig(kind="coarsen", output_dir=5))
        # a config file must hold one JSON object
        for text in ("[1, 2]", '"walk"', '{"kind": "walk",'):
            with pytest.raises(ValueError, match="JSON"):
                ExperimentConfig.from_json(text)

    def test_validate_resolves_defaults(self):
        rc = ExperimentConfig(kind="twoscale", grid={"d": 3}).validate()
        assert (rc.grid.d, rc.grid.k) == (3, 10)
        assert rc.scales == (1 / 3, 1 / 9, 1 / 27)
        assert rc.extra == {"slope": [1.0, 0.0, 0.0]}
        rc = ExperimentConfig(kind="coarsen", grid={"m": 2}, solver={"tol": 1e-6}).validate()
        assert rc.scales == (0, 1, 2) and rc.opts.tol == 1e-6
        rc = ExperimentConfig(kind="green", grid={"m": 2}).validate()
        assert rc.extra["source"] == [4, 4]


class TestEnsembleStats:
    def test_matches_numpy(self):
        vals = np.random.default_rng(0).normal(size=37)
        st_ = EnsembleStats.from_values(vals)
        assert st_.count == 37
        assert st_.mean == pytest.approx(vals.mean(), rel=1e-12)
        assert st_.variance == pytest.approx(vals.var(ddof=1), rel=1e-12)

    def test_merge_equals_concatenation(self):
        rng = np.random.default_rng(1)
        a_vals = rng.normal(size=(9, 3))
        b_vals = rng.normal(size=(14, 3))
        a = EnsembleStats.from_values(a_vals)
        b = EnsembleStats.from_values(b_vals)
        both = EnsembleStats.from_values(np.concatenate([a_vals, b_vals]))
        merged = a.merge(b)
        assert merged.count == both.count
        assert np.allclose(merged.mean, both.mean, rtol=1e-12, atol=1e-14)
        assert np.allclose(merged.variance, both.variance, rtol=1e-12, atol=1e-14)

    def test_merge_with_empty(self):
        a = EnsembleStats.from_values([1.0, 2.0])
        e = EnsembleStats()
        assert a.merge(e).count == 2
        assert e.merge(a).count == 2

    def test_single_member_variance_sentinel(self):
        s = EnsembleStats.from_values([3.0])
        assert s.variance == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
           st.integers(1, 39))
    def test_merge_property(self, vals, split):
        split = min(split, len(vals) - 1)
        a = EnsembleStats.from_values(vals[:split])
        b = EnsembleStats.from_values(vals[split:])
        whole = EnsembleStats.from_values(vals)
        merged = a.merge(b)
        scale = max(1.0, abs(whole.mean))
        assert abs(merged.mean - whole.mean) <= 1e-9 * scale
        assert abs(merged.variance - whole.variance) <= 1e-7 * max(1.0, whole.variance)


class TestEnsembleExecution:
    def test_member_seeds_deterministic(self):
        assert member_seed(5, 3) == member_seed(5, 3)
        assert member_seed(5, 3) != member_seed(5, 4)
        assert member_seed(5, 3) != member_seed(6, 3)

    def test_worker_count_independence(self):
        serial = ensemble(_member_value, 8, master_seed=42, jobs=1)
        parallel = ensemble(_member_value, 8, master_seed=42, jobs=2)
        assert serial.count == parallel.count == 8
        assert serial.mean == parallel.mean
        assert serial.variance == parallel.variance

    def test_member_failure_reported(self):
        def run(seed):
            if seed % 2 == 0:
                raise RuntimeError("boom")
            return 1.0

        values, seeds, errors = ensemble_values(run, 6, master_seed=0)
        assert set(errors) == {i for i, s in enumerate(seeds) if s % 2 == 0}
        with pytest.raises(RuntimeError, match="member") as info:
            ensemble(run, 6, master_seed=0)
        # each failed member is named with its seed, so it can be rerun alone
        for i in errors:
            assert f"member {i} (seed {seeds[i]}): RuntimeError: boom" in str(info.value)

    def test_pool_capped_at_ensemble_size(self, monkeypatch):
        workers = []

        class InlinePool:
            """Records its worker count and runs each member at submit, in this process."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(hlab.harness, "ProcessPoolExecutor", InlinePool)
        values, _, errors = ensemble_values(_member_value, 2, master_seed=0, jobs=64)
        assert workers == [2] and errors == {}
        assert values == ensemble_values(_member_value, 2, master_seed=0)[0]

    @pytest.mark.parametrize("jobs", [0, -3, None, 1.5])
    def test_jobs_must_be_a_positive_integer(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            ensemble_values(_member_value, 2, master_seed=0, jobs=jobs)

    @pytest.mark.parametrize("size", [0, 2.5, True])
    def test_size_must_be_a_positive_integer(self, size):
        with pytest.raises(ValueError, match="ensemble size"):
            ensemble_values(_member_value, size, master_seed=0)


class TestRateFit:
    def test_recovers_exact_power_law(self):
        scales = [2.0, 4.0, 8.0, 16.0]
        values = [3.0 * s**(-1.7) for s in scales]
        fit = rate_fit(scales, values)
        assert fit.fitted == pytest.approx(-1.7, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-10)
        assert fit.ci_low <= -1.7 <= fit.ci_high

    def test_input_validation(self):
        with pytest.raises(ValueError):
            rate_fit([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            rate_fit([1.0, 2.0, 4.0], [1.0, -1.0, 1.0])
        # one scale repeated has no slope, only a rank-deficient least-squares fit
        with pytest.raises(ValueError, match="2 distinct scales"):
            rate_fit([3, 3, 3], [1.0, 0.5, 0.25])
        # a NaN or inf point would give a NaN slope, intercept and interval
        for scales, values in (([1, 2, 3], [1.0, np.nan, 0.5]), ([1, 2, 3], [1.0, np.inf, 0.5]),
                               ([1, np.nan, 3], [1.0, 0.7, 0.5]), ([1, 2, np.inf], [1.0, 0.7, 0.5])):
            with pytest.raises(ValueError, match="finite"):
                rate_fit(scales, values)


class TestFieldFromConfig:
    def test_all_generators(self):
        grid = {"d": 2, "m": 1, "k": 2}
        for gen in ({"name": "constant"},
                    {"name": "laminate", "period": 1.0},
                    {"name": "checkerboard"},
                    {"name": "gaussian", "truncation": 1}):
            fld = _config_field(gen, grid, seed=3)
            fld.validate()
        with pytest.raises(ValueError):
            _config_field({"name": "perlin"}, grid, 0)

    def test_seed_controls_random_generators(self):
        grid = {"d": 2, "m": 1, "k": 1}
        a = _config_field({"name": "checkerboard"}, grid, 1)
        b = _config_field({"name": "checkerboard"}, grid, 2)
        assert not np.array_equal(a.a, b.a)


class TestRunExperiment:
    def test_field_gen_outputs_and_reproducibility(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for out in (d1, d2):
            cfg = ExperimentConfig(kind="field-gen",
                                   generator={"name": "checkerboard"},
                                   grid={"d": 2, "m": 2, "k": 1},
                                   master_seed=77, output_dir=str(out))
            summary = run_experiment(cfg)
            assert (out / "field.bin").exists()
            assert (out / "metadata.json").exists()
            assert (out / "summary.json").exists()
            assert summary["provenance"]["seed"] == 77
        assert (d1 / "field.bin").read_bytes() == (d2 / "field.bin").read_bytes()
        meta = json.loads((d1 / "metadata.json").read_text())
        assert meta["prng"] == "splitmix64"
        assert meta["config"]["master_seed"] == 77

    def test_wall_time_survives_a_clock_set_back(self, tmp_path, monkeypatch):
        # the system clock steps back an hour at every reading; the run's duration does not
        readings = [2e9]

        def stepping_back():
            readings[0] -= 3600.0
            return readings[0]

        monkeypatch.setattr(hlab.harness.time, "time", stepping_back)
        cfg = ExperimentConfig(kind="field-gen", generator={"name": "checkerboard"},
                               grid={"d": 2, "m": 1, "k": 1}, output_dir=str(tmp_path))
        run_experiment(cfg)
        assert json.loads((tmp_path / "metadata.json").read_text())["wall_time_s"] >= 0.0

    def test_coarsen_experiment(self, tmp_path):
        cfg = ExperimentConfig(kind="coarsen", generator={"name": "checkerboard"},
                               grid={"d": 2, "m": 1, "k": 1}, scales=[0, 1],
                               master_seed=5, output_dir=str(tmp_path))
        summary = run_experiment(cfg)
        assert (tmp_path / "cascade.csv").exists()
        assert summary["subadditivity_slacks"]["upper"] >= -1e-7

    def test_coarsen_ledger_gets_solver_options(self, tmp_path, monkeypatch):
        seen = []
        partition = hlab.coarse.partition_matrices

        def spy(a_field, cube, n, opts=None):
            seen.append(opts)
            return partition(a_field, cube, n, opts)

        def solve_spy(solve):
            def recorded(a_field, cube, p, opts=None, **kwargs):     # the Neumann half's x0
                solved.append(opts)
                return solve(a_field, cube, p, opts, **kwargs)
            return recorded

        solved = []
        monkeypatch.setattr(hlab.coarse, "partition_matrices", spy)
        for name in ("solve_dirichlet_affine", "solve_neumann_affine"):
            monkeypatch.setattr(hlab.coarse, name, solve_spy(getattr(hlab.coarse, name)))
        cfg = ExperimentConfig(kind="coarsen", generator={"name": "checkerboard"},
                               grid={"d": 2, "m": 1, "k": 1}, scales=[0, 1],
                               solver={"tol": 1e-6}, output_dir=str(tmp_path))
        run_experiment(cfg)
        assert seen and all(o.tol == 1e-6 for o in seen)
        assert solved and all(o.tol == 1e-6 for o in solved)

    @pytest.mark.parametrize("d, m, scales", [(2, 2, [0, 1, 2]), (2, 2, [2, 1]),
                                              (3, 1, [0]), (2, 1, [1])])
    def test_coarsen_solves_each_cube_once(self, tmp_path, monkeypatch, d, m, scales):
        solved = []
        partition = hlab.coarse.partition_matrices

        def spy(a_field, cube, n, opts=None):
            solved.extend(triadic_partition(cube, n))
            return partition(a_field, cube, n, opts)

        monkeypatch.setattr(hlab.coarse, "partition_matrices", spy)
        cfg = ExperimentConfig(kind="coarsen", generator={"name": "checkerboard"},
                               grid={"d": d, "m": m, "k": 1}, scales=scales,
                               master_seed=2, output_dir=str(tmp_path))
        summary = run_experiment(cfg)
        assert solved
        assert len(solved) == len(set(solved))
        # the slacks equal those of a ledger that solves its own parent and children
        below = [n for n in scales if n < m]
        if below:
            fld = _config_field(cfg.generator, cfg.grid, cfg.master_seed)
            led = hlab.coarse.subadditivity_ledger(fld, m, min(below))
            assert summary["subadditivity_slacks"] == {
                "upper": led["upper_slack_min_eig"], "lower": led["lower_slack_min_eig"]}

    def test_coarsen_without_level_below_m(self, tmp_path):
        cfg = ExperimentConfig(kind="coarsen", generator={"name": "checkerboard"},
                               grid={"d": 2, "m": 2, "k": 1}, scales=[2],
                               output_dir=str(tmp_path))
        summary = run_experiment(cfg)
        assert summary["subadditivity_slacks"] is None
        assert list(summary["gap_by_level"]) == [2]

    @pytest.mark.parametrize("scales", [[0, 3], [-1, 1]])
    def test_coarsen_scales_outside_grid_rejected(self, tmp_path, monkeypatch, scales):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the scales were checked")

        monkeypatch.setattr(hlab.coarse, "partition_matrices", no_solve)
        monkeypatch.setattr(hlab.coarse, "coarse_matrices", no_solve)
        cfg = ExperimentConfig(kind="coarsen", generator={"name": "checkerboard"},
                               grid={"d": 2, "m": 2, "k": 1}, scales=scales,
                               output_dir=str(tmp_path))
        with pytest.raises(ValueError, match="scales"):
            run_experiment(cfg)

    def test_error_recorded(self, tmp_path):
        cfg = ExperimentConfig(kind="coarsen", grid={"d": 2, "m": 1, "k": 1},
                               solver={"maxiter": 1}, output_dir=str(tmp_path))
        with pytest.raises(SolverError):
            run_experiment(cfg)
        err = json.loads((tmp_path / "error.json").read_text())
        assert "error" in err

    def test_twoscale_experiment(self, tmp_path):
        cfg = ExperimentConfig(kind="twoscale", generator={"name": "laminate"},
                               grid={"d": 2, "k": 2}, output_dir=str(tmp_path))
        summary = run_experiment(cfg)
        with open(tmp_path / "twoscale.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["eps"]) for r in rows] == [1 / 3, 1 / 9, 1 / 27]
        assert {r["macro"] for r in rows} == {"affine_[1.0, 0.0]"}
        assert np.abs(summary["abar"] - np.diag([1.6, 2.5])).max() < 1e-6

    def test_green_experiment_reports_its_steps(self, tmp_path):
        cfg = ExperimentConfig(kind="green", grid={"d": 2, "m": 2, "k": 1},
                               extra={"t": 1.0, "dt": 0.25}, output_dir=str(tmp_path))
        run_experiment(cfg)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["steps"] == 4 and summary["cg_iterations"] > 0

    def test_walk_experiment(self, tmp_path):
        cfg = ExperimentConfig(kind="walk", generator={"name": "constant"},
                               grid={"d": 2, "m": 1, "k": 1}, master_seed=3,
                               extra={"horizon": 4.0, "n_paths": 200},
                               output_dir=str(tmp_path))
        summary = run_experiment(cfg)
        assert np.asarray(summary["target"]).shape == (2, 2)
