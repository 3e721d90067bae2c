"""hlab benchmark: run one pinned workload for a fixed time and print its metrics.

    python3 bench/run.py --workload coarse-large --seed 1 --seconds 20 --trace 0

Every pass runs in a fresh single-threaded process (bench/worker.py), so each
one pays interpreter start, `import hlab` and input building exactly as a
user's run does, and its peak resident memory is its own.  Passes repeat on
the same seed-made inputs until the next one would overrun --seconds.

--trace 0 prints the end-to-end metrics: median pass wall time, median set-up
time, median peak memory, and the share of tasks that passed the gate.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones, the tracing overhead, and fails the run unless
traced and untraced outputs are identical byte for byte.

The last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("coarse-large", "coarsen-small", "ensemble-experiments", "diffusion")

RUN_LIMIT_S = 170.0       # hard cap on one invocation, children included
SETUP_SAMPLES = 5         # set-up is sampled at least this often per run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Workers always cache bytecode, so set-up time does not depend on whether the
# caller's environment sets PYTHONDONTWRITEBYTECODE.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV.update(dict.fromkeys(THREAD_VARS, "1"))

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "passed_frac": "frac"}
_SPECIAL_UNITS = {"solver.iters_per_solve": "iter/solve", "coarse.solves_per_pair": "solve/pair",
                  "solver.residual_max": "rel"}


def layer_unit(name: str) -> str:
    if name in _SPECIAL_UNITS:
        return _SPECIAL_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if "bytes" in name:
        return "B"
    return "count"


class WorkerError(RuntimeError):
    pass


class Runner:
    """Spawns worker processes for one workload within the run's time limit."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.started = time.monotonic()
        self.spawned = 0

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, mode: str, trace: int = 0, spans: Path = None) -> dict:
        self.spawned += 1
        sub = self.work / f"p{self.spawned}"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed % 2**63), "--mode", mode, "--trace", str(trace),
               "--work", str(sub)]
        if self.args.tiny:
            cmd.append("--tiny")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(self.time_left(), 1.0))
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"{mode} process exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
        finally:
            shutil.rmtree(sub, ignore_errors=True)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise WorkerError(f"{mode} process exited {proc.returncode}: {proc.stderr[-2000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["t_ready"] - t_spawn
        return report

    def repeat(self, step) -> list:
        """Call step() until the next call would overrun --seconds (at least once)."""
        results, t0 = [], time.monotonic()
        while True:
            results.append(step())
            elapsed = time.monotonic() - t0
            per_step = elapsed / len(results)
            if elapsed + per_step > self.args.seconds or self.time_left() < 2.0 * per_step:
                return results


def _task_counts(passes) -> tuple:
    attempted = sum(len(p["tasks"]) for p in passes)
    failed = sum(1 for p in passes for problems in p["tasks"].values() if problems)
    return attempted, failed


def _problems(passes) -> list:
    out = [f"{name}: {msg}" for p in passes for name, problems in p["tasks"].items()
           for msg in problems]
    return out + [msg for p in passes for msg in p["problems"]]


def run_untraced(runner: Runner) -> tuple:
    passes = runner.repeat(lambda: runner.spawn("pass"))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES and runner.time_left() > 10.0:
        setups.append(runner.spawn("setup")["setup_s"])
    attempted, failed = _task_counts(passes)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "passed_frac": (attempted - failed) / attempted,
    }
    return passes, metrics, {"passes": len(passes), "setup_samples": len(setups)}, []


def run_traced(runner: Runner) -> tuple:
    spans = ROOT / ".bench_work" / f"spans-{runner.args.workload}.csv"
    pairs = []

    def pair():
        # alternate which side runs first, so drift in the machine hits both alike
        traced_first = len(pairs) % 2 == 1
        first = runner.spawn("pass", trace=int(traced_first), spans=spans if traced_first else None)
        second = runner.spawn("pass", trace=int(not traced_first),
                              spans=None if traced_first else spans)
        pairs.append((second, first) if traced_first else (first, second))
        return pairs[-1]

    runner.repeat(pair)
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    identity = [f"traced and untraced outputs differ in {task}"
                for u, t in pairs for task in sorted(set(u["digest"]) | set(t["digest"]))
                if u["digest"].get(task) != t["digest"].get(task)]
    metrics = {name: statistics.median(t["layers"][name] for t in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_frac"] = (statistics.median(t["wall_s"] for t in traced)
                                      / statistics.median(u["wall_s"] for u in untraced) - 1.0)
    return untraced + traced, metrics, {"pairs": len(pairs), "spans": str(spans)}, identity


def environment(seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "machine": platform.machine(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "threads": {k: CHILD_ENV[k] for k in THREAD_VARS},
        "seed": seed, "git_commit": commit, "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hlab" / "__init__.py").is_file():
        print(f"error: no hlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(args, work)
    try:
        runner.spawn("setup")   # unmeasured: fills bytecode and page caches
        passes, metrics, info, problems = (run_traced if args.trace else run_untraced)(runner)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = _task_counts(passes)
    problems = _problems(passes) + problems
    for msg in problems:
        print(f"problem: {msg}", file=sys.stderr)
    print(json.dumps({"env": env, "workload": args.workload, **info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": END_TO_END_UNITS.get(n) or layer_unit(n)}
                    for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
