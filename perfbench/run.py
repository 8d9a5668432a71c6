"""Benchmark of the SMT simulator, run from the root of a checkout.

    python3 perfbench/run.py --workload mem-stall --seed 1 --seconds 55 --trace 0

Each run repeats whole rounds for about ``--seconds`` (three rounds at
least).  A round starts from empty stores and a freshly
started broker, then runs the workload's scenario file cold, and warm
several times, through ``python -m repro scenario run`` and finishes
with a closed loop of single jobs through the broker (see
``rounds.py``).  The end-to-end metrics are medians over the rounds.
``--trace 1`` instead runs one untraced round and two traced ones (see
``tracing.py``) and prints the per-layer metrics.  The last line of standard output is the result
object; see README.md for every metric and check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed(workload, seed: int, seconds: float) -> dict:
    import program
    from rounds import WARM_PASSES, Round

    compiled = program.compile_workload(workload, seed)
    measured = []
    start = time.perf_counter()
    try:
        # A round starts only if it is expected to end no later than
        # half a round past the deadline, so every run lasts about
        # ``seconds`` and averages the machine's drift over as long.
        while len(measured) < 3 or (
                (time.perf_counter() - start) * (1 + 0.5 / len(measured))
                < seconds):
            current = Round(workload, compiled, seed, len(measured))
            measured.append(current)
            current.run()
            print(f"[perfbench] round {current.index}: setup "
                  f"{statistics.median(current.setup_samples):.3f}s cold "
                  f"{current.cold_s:.3f}s warm "
                  f"{statistics.median(current.warm_samples):.3f}s",
                  file=sys.stderr)
            if current.report != measured[0].report:
                current.failures.append(
                    f"round {current.index + 1} printed a different cold "
                    "report than round 1")
            if len(measured) > 1:
                measured[-2].cleanup()
        measured[-1].deep_check()
    finally:
        for current in measured:
            current.cleanup()
    failures = [f for current in measured for f in current.failures]
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    latencies = [s[0] for current in measured for s in current.loop]

    def median(name: str) -> float:
        return statistics.median(getattr(current, name) for current in measured)

    print(f"[perfbench] {workload.name}: {len(measured)} rounds, "
          f"{len(compiled.jobs)} jobs + {program.LOOP_JOBS} round trips "
          f"each, {measured[0].cycles} simulated cycles per cold pass",
          file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(
            s for current in measured for s in current.setup_samples), "s"),
        "cold_s": (median("cold_s"), "s"),
        "warm_s": (statistics.median(
            s for current in measured for s in current.warm_samples), "s"),
        "sim_cycles_per_s": (statistics.median(
            current.cycles / current.cold_s for current in measured), "1/s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        "job_latency_p50_s": (statistics.median(latencies), "s"),
    }
    return {
        "correct": not failures,
        "attempted": len(measured) * ((1 + WARM_PASSES) * len(compiled.jobs)
                                    + program.LOOP_JOBS),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import program
    import rounds

    workload = program.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} (expected "
              f"one of {', '.join(program.WORKLOADS)})", file=sys.stderr)
        return 2
    rounds.WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            import tracing
            result = tracing.traced(workload, args.seed)
        else:
            result = timed(workload, args.seed, args.seconds)
    except Exception:  # noqa: BLE001 - report and fail without a result
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
