"""Configs, deterministic ensembles, streaming statistics, rate fits, runner."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hlab.coarse
from hlab.lattice import triadic_partition
from hlab.harness import (
    EnsembleStats,
    ExperimentConfig,
    ensemble,
    ensemble_values,
    field_from_config,
    member_seed,
    rate_fit,
    run_experiment,
)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="unknown").validate()
        with pytest.raises(ValueError):
            ExperimentConfig(kind="walk", ensemble_size=0).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(kind="walk", solver={"tol": 0.5}).validate()
        with pytest.raises(ValueError, match="solver.preconditioner"):
            ExperimentConfig(kind="walk", solver={"preconditioner": "none"}).validate()
        with pytest.raises(ValueError, match="'ensemble'"):
            ExperimentConfig.from_json(json.dumps({"kind": "walk", "ensemble": 4}))
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
        ExperimentConfig(kind="corrector", grid={"d": 3, "m": 2, "k": 1},
                         generator={"name": "gaussian", "Lam": 3.0},
                         extra={"mode": "finite-volume"}).validate()


class TestEnsembleStats:
    def test_matches_numpy(self):
        vals = np.random.default_rng(0).normal(size=37)
        st_ = EnsembleStats.from_values(vals)
        assert st_.count == 37
        assert st_.mean == pytest.approx(vals.mean(), rel=1e-12)
        assert st_.variance == pytest.approx(vals.var(ddof=1), rel=1e-12)
        assert st_.min == vals.min() and st_.max == vals.max()

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

    def test_seeds_tracked(self):
        s = EnsembleStats.from_values([1.0, 2.0], seeds=[10, 20])
        assert s.seeds == [10, 20]
        assert s.to_dict()["seeds"] == [10, 20]

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
        assert serial.seeds == parallel.seeds

    def test_member_failure_reported(self):
        def run(seed):
            if seed % 2 == 0:
                raise RuntimeError("boom")
            return 1.0

        values, seeds, errors = ensemble_values(run, 6, master_seed=0)
        assert set(errors) == {i for i, s in enumerate(seeds) if s % 2 == 0}
        with pytest.raises(RuntimeError, match="member"):
            ensemble(run, 6, master_seed=0)

    @pytest.mark.parametrize("jobs", [0, -3, None, 1.5])
    def test_jobs_must_be_a_positive_integer(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            ensemble_values(_member_value, 2, master_seed=0, jobs=jobs)


class TestRateFit:
    def test_recovers_exact_power_law(self):
        scales = [2.0, 4.0, 8.0, 16.0]
        values = [3.0 * s**(-1.7) for s in scales]
        fit = rate_fit(scales, values, expected=-1.7, band=(-2.0, -1.5))
        assert fit.fitted == pytest.approx(-1.7, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-10)
        assert fit.ci_low <= -1.7 <= fit.ci_high
        assert fit.within_band is True

    def test_band_miss(self):
        fit = rate_fit([1.0, 2.0, 4.0], [1.0, 2.0, 4.0], band=(-1.0, 0.5))
        assert fit.fitted == pytest.approx(1.0)
        assert fit.within_band is False

    def test_parametric_bootstrap_with_variances(self):
        scales = [2.0, 4.0, 8.0, 16.0]
        values = [s**(-2.0) for s in scales]
        fit = rate_fit(scales, values, variances=[1e-12] * 4)
        assert fit.ci_high - fit.ci_low < 0.5

    def test_input_validation(self):
        with pytest.raises(ValueError):
            rate_fit([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            rate_fit([1.0, 2.0, 4.0], [1.0, -1.0, 1.0])


class TestFieldFromConfig:
    def test_all_generators(self):
        grid = {"d": 2, "m": 1, "k": 2}
        for gen in ({"name": "constant"},
                    {"name": "laminate", "period": 1.0},
                    {"name": "checkerboard"},
                    {"name": "gaussian", "truncation": 1}):
            fld = field_from_config(gen, grid, seed=3)
            fld.validate()
        with pytest.raises(ValueError):
            field_from_config({"name": "perlin"}, grid, 0)

    def test_seed_controls_random_generators(self):
        grid = {"d": 2, "m": 1, "k": 1}
        a = field_from_config({"name": "checkerboard"}, grid, 1)
        b = field_from_config({"name": "checkerboard"}, grid, 2)
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
            def recorded(a_field, cube, p, opts=None):
                solved.append(opts)
                return solve(a_field, cube, p, opts)
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
            fld = field_from_config(cfg.generator, cfg.grid, cfg.master_seed)
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
        cfg = ExperimentConfig(kind="coarsen",
                               generator={"name": "laminate", "period": 7.0},
                               grid={"d": 2, "m": 1, "k": 1},
                               output_dir=str(tmp_path))
        with pytest.raises(ValueError):
            run_experiment(cfg)
        err = json.loads((tmp_path / "error.json").read_text())
        assert "error" in err

    def test_walk_experiment(self, tmp_path):
        cfg = ExperimentConfig(kind="walk", generator={"name": "constant"},
                               grid={"d": 2, "m": 1, "k": 1}, master_seed=3,
                               extra={"horizon": 4.0, "n_paths": 200},
                               output_dir=str(tmp_path))
        summary = run_experiment(cfg)
        assert np.asarray(summary["target"]).shape == (2, 2)
