"""Smoke test of the benchmark itself, on tiny inputs (about a minute).

    python3 -m pytest bench/test_smoke.py -q

It checks that every workload prints every metric BENCHMARK.json names, with
its unit, in both modes; that the correctness gate rejects corrupted outputs;
and that the benchmark refuses to run without the hlab source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import workloads  # noqa: E402


def _bench(cwd: Path, *args):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)


# per-layer metrics each workload must move; a zero here means the trace missed calls
EXERCISED = {
    "coarse-large": ["spectral.calls.dirichlet", "spectral.calls.neumann", "solver.cg_iters",
                     "lattice.bytes_computed", "coarse.pairs", "coarse.self_s"],
    "coarsen-small": ["solver.solves.dirichlet_affine", "solver.solves.neumann",
                      "coarse.pairs", "fields.calls", "harness.bytes_written"],
    "ensemble-experiments": ["spectral.calls.torus", "solver.solves.periodic",
                             "solver.solves.dirichlet_data", "correctors.calls",
                             "correctors.flux_corrector_s", "renorm.points", "twoscale.calls",
                             "harness.members", "harness.rate_fit_s"],
    "diffusion": ["stochproc.walk_s", "stochproc.green_s", "stochproc.green_cg_iters"],
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert [n for n in EXERCISED[workload] if result["metrics"][n]["value"] <= 0] == []
        if workload == "coarsen-small":   # the subadditivity ledger repeats cascade cubes
            assert 0 < result["metrics"]["coarse.distinct_frac"]["value"] < 1


def _scale(key, factor):
    def corrupt(summary):
        summary[key] = np.asarray(summary[key]) * factor
    return corrupt


def _perturb_pair(r):
    r.a_upper = r.a_upper + 1e-3 * np.eye(r.a_upper.shape[0])


def _break_skew(out):
    out[0].s[0][..., 0, 1] += 1e-12


CORRUPTIONS = [
    ("coarse-large", "pair", _perturb_pair),
    ("coarsen-small", "coarsen-2d",
     lambda s: s["subadditivity_slacks"].update(upper=-1e-3)),
    ("ensemble-experiments", "twoscale", lambda s: s["grad_rate"].update(fitted=0.3)),
    ("ensemble-experiments", "twoscale", _scale("abar", 3.0)),
    ("ensemble-experiments", "periodic-correctors", _break_skew),
    ("ensemble-experiments", "corrector", lambda s: s["R_table"].append((9, float("nan"), 0.0))),
    ("diffusion", "walk", lambda s: s.update(covariances=[1.2 * c for c in s["covariances"]])),
    ("diffusion", "green", lambda s: s.update(mass_drift=1e-6)),
]


@pytest.mark.parametrize("workload,task_name,corrupt", CORRUPTIONS)
def test_gate_rejects_corrupted_output(workload, task_name, corrupt, tmp_path):
    task = next(t for t in workloads.build(workload, 3, True, tmp_path) if t.name == task_name)
    out = task.run()
    assert task.check(out) == []
    corrupt(out)
    assert task.check(out)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
