"""Command-line entry points."""

import json

import pytest
from click.testing import CliRunner

from hlab.cli import main
from hlab.harness import ExperimentConfig


@pytest.fixture
def runner():
    return CliRunner()


def test_selftest_passes(runner):
    result = runner.invoke(main, ["selftest"])
    assert result.exit_code == 0, result.output
    assert "selftest passed" in result.output


def test_gen_field_with_config(runner, tmp_path):
    cfg = ExperimentConfig(kind="field-gen", generator={"name": "checkerboard"},
                           grid={"d": 2, "m": 1, "k": 1}, master_seed=4,
                           output_dir=str(tmp_path / "out"))
    path = tmp_path / "cfg.json"
    cfg.save(path)
    result = runner.invoke(main, ["gen-field", "--config", str(path)])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    assert summary["kind"] == "field-gen"
    assert (tmp_path / "out" / "field.bin").exists()


def test_seed_and_out_overrides(runner, tmp_path):
    cfg = ExperimentConfig(kind="field-gen", generator={"name": "checkerboard"},
                           grid={"d": 2, "m": 1, "k": 1}, master_seed=4,
                           output_dir=str(tmp_path / "ignored"))
    path = tmp_path / "cfg.json"
    cfg.save(path)
    out = tmp_path / "other"
    result = runner.invoke(main, ["gen-field", "--config", str(path),
                                  "--seed", "9", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["provenance"]["seed"] == 9
    assert (out / "field.bin").exists()


def test_negative_seed_rejected_before_any_solve(runner, tmp_path, monkeypatch):
    import hlab.harness

    def no_field(*args, **kwargs):
        raise AssertionError("built a field before the seed was checked")

    monkeypatch.setattr(hlab.harness, "field_from_config", no_field)
    out = tmp_path / "out"
    result = runner.invoke(main, ["coarsen", "--seed", "-1", "--out", str(out)])
    assert result.exit_code == 1
    assert "ValueError" in result.output and "master_seed" in result.output
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected_before_any_solve(runner, tmp_path, monkeypatch, jobs):
    import hlab.harness

    def no_field(*args, **kwargs):
        raise AssertionError("built a field before the jobs were checked")

    monkeypatch.setattr(hlab.harness, "field_from_config", no_field)
    out = tmp_path / "out"
    result = runner.invoke(main, ["coarsen", "--jobs", jobs, "--out", str(out)])
    assert result.exit_code == 1
    assert "ValueError" in result.output and "jobs" in result.output
    assert not out.exists()


def test_kind_mismatch_rejected(runner, tmp_path):
    cfg = ExperimentConfig(kind="walk")
    path = tmp_path / "cfg.json"
    cfg.save(path)
    result = runner.invoke(main, ["gen-field", "--config", str(path)])
    assert result.exit_code != 0
    assert "does not match" in result.output


def test_failure_exits_nonzero(runner, tmp_path):
    cfg = ExperimentConfig(kind="coarsen",
                           generator={"name": "laminate", "period": 7.0},
                           grid={"d": 2, "m": 1, "k": 1},
                           output_dir=str(tmp_path))
    path = tmp_path / "cfg.json"
    cfg.save(path)
    result = runner.invoke(main, ["coarsen", "--config", str(path)])
    assert result.exit_code == 1
    assert "error" in result.output


def test_help_lists_commands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for cmd in ("gen-field", "coarsen", "corrector", "twoscale",
                "cascade", "walk", "green", "selftest"):
        assert cmd in result.output


JOBS_CONFIGS = {
    "corrector-periodic": dict(kind="corrector", grid={"d": 2, "m": 1, "k": 2},
                               ensemble_size=3, extra={"mode": "periodic"}),
    "corrector-finite-volume": dict(kind="corrector", grid={"d": 2, "k": 1}, scales=[1, 2, 3],
                                    ensemble_size=2, extra={"mode": "finite-volume"}),
    "cascade": dict(kind="cascade", grid={"d": 2, "k": 1}, scales=[1.0, 1.5, 2.0],
                    ensemble_size=2, extra={"cube_levels": [1, 2, 3]}),
}


@pytest.mark.parametrize("name", sorted(JOBS_CONFIGS))
def test_parallel_ensemble_matches_serial(runner, tmp_path, name):
    # ensemble members run in worker processes; the summary is the same file
    cfg = ExperimentConfig(generator={"name": "checkerboard"}, master_seed=5,
                           **JOBS_CONFIGS[name])
    path = tmp_path / "cfg.json"
    cfg.save(path)
    kind = cfg.kind
    summaries = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        result = runner.invoke(main, [kind, "--config", str(path), "--out", str(out),
                                      "--jobs", jobs])
        assert result.exit_code == 0, result.output
        summaries.append((out / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]
