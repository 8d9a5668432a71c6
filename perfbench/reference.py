"""Reference figures quoted in README.md, measured on the current sources.

    python3 perfbench/reference.py [--seed 1]

Prints, per workload, the share of its jobs' simulated cycles that the
public ``repro.pipeline.fastpath.run_fast`` actually steps (the rest it
skips as quiescent), and, for the shared warm-up prefixes of
``sweep-service``, the time to simulate one warm-up prefix against the
time of one checkpoint-store write of its state.  Everything runs
serially in this process, with stores in a temporary directory inside
``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import program  # noqa: E402
from repro.harness.checkpoints import CheckpointStore, job_prefix_token  # noqa: E402
from repro.harness.runner import compute_warmup_checkpoint  # noqa: E402
from repro.mem.hierarchy import MemoryHierarchy  # noqa: E402
from repro.pipeline.config import SMTConfig  # noqa: E402
from repro.pipeline.fastpath import run_fast  # noqa: E402
from repro.pipeline.processor import SMTProcessor  # noqa: E402
from repro.policies.registry import make_policy  # noqa: E402
from repro.trace.profiles import get_profile  # noqa: E402


def run_fast_step_share(jobs) -> float:
    """Stepped cycles (``MemoryHierarchy.tick`` calls) over simulated
    cycles when every job's warm-up and measured window go through
    ``run_fast`` from a fresh processor."""
    ticks = 0
    original = MemoryHierarchy.tick

    def counting_tick(self, cycle):
        nonlocal ticks
        ticks += 1
        return original(self, cycle)

    MemoryHierarchy.tick = counting_tick
    try:
        for job in jobs:
            processor = SMTProcessor(
                job.config or SMTConfig(),
                [get_profile(b) for b in job.benchmarks],
                make_policy(job.policy), seed=job.seed)
            run_fast(processor, job.warmup)
            processor.reset_stats()
            run_fast(processor, job.cycles)
    finally:
        MemoryHierarchy.tick = original
    return ticks / program.job_cycles(jobs)


def prefix_costs(compiled):
    """Median seconds to simulate one warm-up prefix and to write it."""
    simulate, write = [], []
    store = CheckpointStore()
    seen = set()
    for job in compiled.jobs:
        token = job_prefix_token(job)
        if token in seen:
            continue
        seen.add(token)
        start = time.perf_counter()
        payload = compute_warmup_checkpoint(
            list(job.benchmarks), job.warmup_policy or job.policy,
            job.config, job.warmup, job.seed)
        simulate.append(time.perf_counter() - start)
        start = time.perf_counter()
        store.put(token, payload)
        write.append(time.perf_counter() - start)
    return len(seen), statistics.median(simulate), statistics.median(write)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as cache:
        os.environ["REPRO_CACHE_DIR"] = cache
        for workload in program.WORKLOADS.values():
            compiled = program.compile_workload(workload, args.seed)
            plain = [job for job in compiled.jobs if not job.checkpoint]
            if plain:
                print(f"{workload.name}: run_fast steps "
                      f"{100 * run_fast_step_share(plain):.1f}% of the "
                      f"simulated cycles of its {len(plain)} jobs")
            else:
                count, simulate, write = prefix_costs(compiled)
                print(f"{workload.name}: {count} warm-up prefixes; "
                      f"simulating one takes {1000 * simulate:.0f} ms, "
                      f"one checkpoint-store write {1000 * write:.0f} ms "
                      "(medians)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
