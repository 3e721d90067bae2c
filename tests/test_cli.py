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

    monkeypatch.setattr(hlab.harness, "_build_field", no_field)
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

    monkeypatch.setattr(hlab.harness, "_build_field", no_field)
    out = tmp_path / "out"
    result = runner.invoke(main, ["coarsen", "--jobs", jobs, "--out", str(out)])
    assert result.exit_code == 1
    assert "ValueError" in result.output and "jobs" in result.output
    assert not out.exists()


@pytest.mark.parametrize("kind, override, key", [
    ("cascade", {"ensemble_size": 2.5}, "ensemble_size"),
    ("cascade", {"ensemble_size": True}, "ensemble_size"),
    ("cascade", {"ensemble_size": "3"}, "ensemble_size"),
    ("cascade", {"extra": {"cube_level": [1, 2]}}, "'extra.cube_level'"),
    ("walk", {"extra": {"horizon": -5}}, "'extra.horizon'"),
    ("green", {"extra": {"t": 1e-9}}, "'extra.t'"),
    ("twoscale", {"scales": [0.5, 1 / 9, 1 / 27]}, "'scales'"),
    ("twoscale", {"extra": {"slope": [0, 0]}}, "'extra.slope'"),
    ("coarsen", {"generator": {"name": "laminate", "period": 7.0}}, "'generator.period'"),
    ("twoscale", {"generator": {"name": "laminate", "period": 3.0}}, "'generator.period'"),
    ("walk", {"grid": {"d": 5}}, "'grid.d'"),
    ("coarsen", {"solver": {"tol": 0.5}}, "'solver.tol'"),
    ("coarsen", {"kind": None}, "'kind'"),
], ids=["size-float", "size-bool", "size-str", "extra-key", "walk-horizon", "green-no-step",
        "twoscale-eps", "twoscale-zero-slope", "coarsen-period", "twoscale-period", "grid-d",
        "solver-tol", "no-kind"])
def test_bad_config_rejected_before_any_solve(runner, tmp_path, monkeypatch, kind, override, key):
    import hlab.harness

    def no_field(*args, **kwargs):
        raise AssertionError("built a field before the config was checked")

    monkeypatch.setattr(hlab.harness, "_build_field", no_field)
    path = tmp_path / "cfg.json"
    # the file holds the kind and the override; a None value leaves its key out
    path.write_text(json.dumps({k: v for k, v in {"kind": kind, **override}.items()
                                if v is not None}))
    out = tmp_path / "out"
    result = runner.invoke(main, [kind, "--config", str(path), "--out", str(out)])
    assert result.exit_code == 1
    assert result.output.startswith("error: ValueError: ") and result.output.count("\n") == 1
    assert key in result.output
    assert not out.exists()


@pytest.mark.parametrize("text, key", [
    ("[1, 2]", "JSON object"),
    ('"coarsen"', "JSON object"),
    ('{"kind": "coarsen",', "valid JSON"),
    ('{"kind": "coarsen", "ensemble": 4}', "'ensemble'"),
    ('{"kind": "coarsen", "output_dir": 5}', "'output_dir'"),
], ids=["list", "string", "malformed", "unknown-key", "output-dir"])
def test_bad_config_file_rejected_in_one_line(runner, tmp_path, monkeypatch, text, key):
    import hlab.harness

    def no_field(*args, **kwargs):
        raise AssertionError("built a field before the config was checked")

    monkeypatch.setattr(hlab.harness, "_build_field", no_field)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(text)
    result = runner.invoke(main, ["coarsen", "--config", "cfg.json"])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ValueError: ") and result.output.count("\n") == 1
    assert key in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_kind_mismatch_rejected(runner, tmp_path):
    cfg = ExperimentConfig(kind="walk")
    path = tmp_path / "cfg.json"
    cfg.save(path)
    result = runner.invoke(main, ["gen-field", "--config", str(path)])
    assert result.exit_code != 0
    assert "does not match" in result.output


def test_failure_exits_nonzero(runner, tmp_path):
    cfg = ExperimentConfig(kind="coarsen", grid={"d": 2, "m": 1, "k": 1},
                           solver={"maxiter": 1}, output_dir=str(tmp_path))
    path = tmp_path / "cfg.json"
    cfg.save(path)
    result = runner.invoke(main, ["coarsen", "--config", str(path)])
    assert result.exit_code == 1
    assert "error" in result.output


def test_cascade_on_a_constant_field_fails(runner, tmp_path):
    # every member's b_r is the one cell matrix: a zero variance has no log-log fit
    cfg = ExperimentConfig(kind="cascade", generator={"name": "checkerboard", "p_black": 0.0},
                           grid={"d": 2, "k": 1}, scales=[1.0, 2.0, 3.0, 4.0],
                           ensemble_size=2, output_dir=str(tmp_path / "out"))
    path = tmp_path / "cfg.json"
    cfg.save(path)
    result = runner.invoke(main, ["cascade", "--config", str(path)])
    assert result.exit_code == 1
    assert "ValueError" in result.output and "at radius 1:" in result.output


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
