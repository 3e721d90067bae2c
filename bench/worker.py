"""One benchmark process: set up, run one timed pass of a workload, check it.

Started by run.py, never by hand.  The process imports hlab from the
checkout's src/ directory and builds the workload's inputs from the seed.
It reports, as one JSON line on stdout, the monotonic clock reading at the
first timed call (so the parent can compute set-up time from its spawn time),
the pass's wall time and peak resident memory, the gate's verdict per task,
fingerprints of the outputs and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hlab  # noqa: E402

if not Path(hlab.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"hlab imported from {hlab.__file__}, not from {ROOT / 'src'}")

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=list(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)

    tasks = workloads.build(args.workload, args.seed, args.tiny, args.work)
    if args.mode == "setup":
        print(json.dumps({"t_ready": time.monotonic()}))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    outputs = []
    t_ready = time.monotonic()
    t0 = time.perf_counter()
    for task in tasks:
        try:
            outputs.append((task.run(), None))
        except Exception as exc:  # noqa: BLE001 - a raising task is a failed task
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    verdicts, digest = {}, {}
    for task, (out, err) in zip(tasks, outputs):
        if err is None:
            try:
                problems = task.check(out)
                digest[task.name] = task.digest(out)
            except Exception as exc:  # noqa: BLE001 - a check that cannot run fails
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [err]
        verdicts[task.name] = problems

    report = {"t_ready": t_ready, "wall_s": wall, "peak_rss_mb": peak_rss_mb,
              "tasks": verdicts, "digest": digest, "problems": []}
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["harness.bytes_written"] = workloads.bytes_written(tasks)
        report["layers"] = layers
        report["problems"] = coverage_problems(args.workload, outputs, layers)
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


def coverage_problems(workload, outputs, layers) -> list:
    """The trace must see every solve: its totals must match the outputs'."""
    problems = []
    if layers["solver.residual_max"] > workloads.TOL:
        problems.append(f"traced residual {layers['solver.residual_max']:.3e} "
                        f"> {workloads.TOL}")
    if workload == "coarse-large":
        reported = sum(out.iterations for out, err in outputs if err is None)
        if layers["solver.cg_iters"] != reported:
            problems.append(f"traced CG iterations {layers['solver.cg_iters']} != "
                            f"CoarseGrainResult.iterations {reported}")
    return problems


if __name__ == "__main__":
    sys.exit(main())
