"""The traced run: per-layer host time and work counts.

``run.py --trace 1`` calls :func:`traced`.  It runs one untraced round,
as a timed run does, and then two more rounds of the same seed, each
with every process of the round recording in one mode (see
``boot/perfbench_recorder.py``): the CLI passes, the broker and its
workers.

* ``timers`` mode: call counters and outermost-call timers around
  public calls, and store traffic.
* ``profile`` mode: stdlib ``cProfile`` on every thread; self time is
  summed per module group and its call counts give the per-cycle
  counts.

The three rounds have the same process layout, so each traced round's
wall time over the untraced round's is the cost of its recording.
"""

from __future__ import annotations

import json
import os
import pstats
import statistics
import subprocess
import sys
import time
from pathlib import Path

import rounds

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Named layers of the ``repro`` package, by top-level path.
LAYERS = ("pipeline", "mem", "trace", "policies", "core", "branch", "isa",
          "metrics")
HARNESS = ("scenario", "engine", "runner", "results", "checkpoints",
           "executors", "broker", "remote_worker")
#: Policy hooks the pipeline calls (see ``repro.policies.base.Policy``).
HOOKS = frozenset((
    "begin_cycle", "end_cycle", "fetch_order", "quiesce_horizon",
    "may_rename", "on_rename", "on_commit", "on_load_issued",
    "on_l1d_miss", "on_l2_miss_detected", "on_l2_fill", "cap_for"))
#: Words naming the built-ins a thread blocks in.
_BLOCKING = ("acquire", "sleep", "poll", "select", "recv", "accept")


# --------------------------------------------------------------------------
# merging the figures the traced processes left
# --------------------------------------------------------------------------

def layer_of(filename: str, function: str, repro_dir: str) -> str:
    """The layer a profiled function belongs to.

    Built-in calls that block a thread (lock, sleep, socket and poll
    waits) form the ``wait`` layer: their time is time a thread sat
    idle, not work done.
    """
    prefix = repro_dir + os.sep
    if filename == "~" and any(word in function for word in _BLOCKING):
        return "wait"
    if not filename.startswith(prefix):
        return "other" if filename.startswith(str(HERE)) else "stdlib"
    parts = filename[len(prefix):].split(os.sep)
    if parts[0] in LAYERS:
        return parts[0]
    if parts == ["snapshot.py"]:
        return "snapshot"
    if parts[0] == "harness" and parts[-1][:-3] in HARNESS:
        return "harness." + parts[-1][:-3]
    return "other"


def profile_figures(paths, repro_dir: str) -> dict:
    """Self time per layer and the per-cycle call counts."""
    stats = pstats.Stats(str(paths[0]))
    for path in paths[1:]:
        stats.add(str(path))
    self_s = {}
    ticks = classify = hooks = 0
    for (filename, _, function), (_, calls, tottime, _, _) in \
            stats.stats.items():
        layer = layer_of(filename, function, repro_dir)
        self_s[layer] = self_s.get(layer, 0.0) + tottime
        if layer == "mem" and filename.endswith("hierarchy.py") and \
                function == "tick":
            ticks += calls
        if layer == "core" and filename.endswith("classification.py"):
            classify += calls
        if layer in ("policies", "core") and function in HOOKS:
            hooks += calls
    return {"self_s": self_s, "ticks": ticks, "classify": classify,
            "hooks": hooks}


def timer_figures(paths) -> dict:
    """Timers and counters summed over processes.  Every scenario pass
    pickles the same jobs and results, so those sizes are taken once."""
    values = {"checkpoint_tokens": []}
    for path in paths:
        for name, value in json.loads(path.read_text()).items():
            if name == "checkpoint_tokens":
                values[name] = sorted(set(value) | set(values[name]))
            elif name.endswith("_pickle_bytes"):
                values[name] = max(value, values.get(name, 0))
            else:
                values[name] = values.get(name, 0) + value
    return values


def _dumps(current, suffix: str, timeout: float = 30.0) -> list:
    """The figure files of a traced round, one per process: the cold
    and warm CLI passes, and each set-up's broker and workers.  A worker
    may still be writing when its broker has exited, so this waits."""
    expected = (1 + rounds.WARM_PASSES
                + rounds.SETUPS * (1 + rounds.worker_count()))
    deadline = time.monotonic() + timeout
    while True:
        paths = sorted(current.trace_dir.glob("*" + suffix))
        if len(paths) >= expected:
            return paths
        if time.monotonic() > deadline:
            raise RuntimeError(
                f"{current.trace} round left {len(paths)} figure files, "
                f"expected {expected}")
        time.sleep(0.05)


def _run_jobs_fresh(workload, seed: int, workdir: Path) -> list:
    """``(seconds, payload)`` per closed-loop job of round 0, each run
    with ``run_job`` in a fresh process (as a worker runs it)."""
    cache = workdir / "run-jobs-cache"
    (cache / "tmp").mkdir(parents=True)
    out = cache / "run-jobs.json"
    subprocess.run(
        [sys.executable, __file__, workload.name, str(seed), str(out)],
        env=rounds.child_env(cache), check=True, timeout=170)
    return json.loads(out.read_text())


def run_jobs_main() -> int:
    """Child entry point of :func:`_run_jobs_fresh`."""
    name, seed, out = sys.argv[1:]
    import program

    workload = program.WORKLOADS[name]
    compiled = program.compile_workload(workload, int(seed))
    timed = []
    for job in program.loop_jobs(workload, compiled, int(seed), 0):
        start = time.perf_counter()
        payload = program.recompute_in_process(job)
        timed.append((time.perf_counter() - start, payload))
    Path(out).write_text(json.dumps(timed))
    return 0


# --------------------------------------------------------------------------
# the traced run, as run.py calls it
# --------------------------------------------------------------------------

def traced(workload, seed: int) -> dict:
    """Run the three rounds and return the ``--trace 1`` result."""
    import checks
    import program

    compiled = program.compile_workload(workload, seed)
    untraced = rounds.Round(workload, compiled, seed, 0)
    passes = {mode: rounds.Round(workload, compiled, seed, 0, trace=mode)
              for mode in ("timers", "profile")}
    try:
        untraced.run()
        untraced.deep_check()
        in_process = _run_jobs_fresh(workload, seed, untraced.dir)
        for (_, result, _), (_, payload) in zip(untraced.loop, in_process):
            untraced.failures += checks.check_equal(
                "closed-loop job in-process", program.payload_of(result),
                payload)
        for mode, current in passes.items():
            current.run()
            if current.report != untraced.report:
                current.failures.append(
                    f"the {mode} round printed a different cold report")
        values = timer_figures(_dumps(passes["timers"], ".json"))
        figures = profile_figures(_dumps(passes["profile"], ".prof"),
                                  str(SRC / "repro"))
    finally:
        for current in (untraced, *passes.values()):
            current.cleanup()
    failures = [f for current in (untraced, *passes.values())
                for f in current.failures]
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)

    cycles = (program.simulated_cycles(compiled)
              + program.job_cycles(untraced.loop_jobs))
    latency = statistics.median(s[0] for s in untraced.loop)
    timers_wall = passes["timers"].wall_s
    profile_wall = passes["profile"].wall_s
    puts = values.get("harness.checkpoints.put_calls", 0)
    prefixes = len(values["checkpoint_tokens"])
    metrics = {
        "bench.simulated_cycles": (cycles, "count"),
        "pipeline.stepped_cycles": (figures["ticks"], "count"),
        "pipeline.stepped_cycle_fraction": (figures["ticks"] / cycles,
                                            "ratio"),
        "pipeline.host_us_per_stepped_cycle": (
            1e6 * values.get("stepping_s", 0.0) / figures["ticks"], "us"),
        "core.classify_calls_per_cycle": (figures["classify"] / cycles,
                                          "calls/cycle"),
        "policies.hook_calls_per_cycle": (figures["hooks"] / cycles,
                                          "calls/cycle"),
        "pipeline.construct_s": (values.get("pipeline.construct_s", 0.0),
                                 "s"),
        "pipeline.constructions": (
            values.get("pipeline.construct_calls", 0), "count"),
        "harness.scenario.compile_s": (
            values.get("harness.scenario.compile_s", 0.0), "s"),
        "harness.runner.baseline_s": (
            values.get("harness.runner.baseline_s", 0.0), "s"),
        "harness.runner.baselines_computed": (
            values.get("harness.runner.baselines_computed", 0), "count"),
        "harness.checkpoints.writes_per_prefix": (
            puts / prefixes if prefixes else 0.0, "ratio"),
        "harness.checkpoints.prefixes": (prefixes, "count"),
        "harness.broker.job_latency_p50_s": (latency, "s"),
        "harness.broker.dispatch_overhead_s": (
            latency - statistics.median(t for t, _ in in_process), "s"),
        "bench.untraced_wall_s": (untraced.wall_s, "s"),
        "bench.timers_wall_s": (timers_wall, "s"),
        "bench.profile_wall_s": (profile_wall, "s"),
        "bench.timers_overhead_ratio": (timers_wall / untraced.wall_s,
                                        "ratio"),
        "bench.profile_overhead_ratio": (profile_wall / untraced.wall_s,
                                         "ratio"),
    }
    for store in ("results", "checkpoints"):
        for op in ("get", "put"):
            metrics[f"harness.{store}.{op}_s"] = (
                values.get(f"harness.{store}.{op}_s", 0.0), "s")
        metrics[f"harness.{store}.bytes"] = (
            values.get(f"harness.{store}.bytes", 0), "bytes")
    for kind in ("hits", "misses"):
        metrics[f"harness.results.{kind}"] = (
            values.get(f"harness.results.{kind}", 0), "count")
    for op in ("capture", "restore"):
        metrics[f"snapshot.{op}_s"] = (values.get(f"snapshot.{op}_s", 0.0),
                                       "s")
    for kind in ("job", "result"):
        name = f"harness.engine.{kind}_pickle_bytes"
        metrics[name] = (values.get(name, 0), "bytes")
    for layer in (*LAYERS, "snapshot", *(f"harness.{h}" for h in HARNESS),
                  "stdlib", "wait", "other"):
        metrics[f"{layer}.self_s"] = (figures["self_s"].get(layer, 0.0), "s")
    return {
        "correct": not failures,
        "attempted": 3 * ((1 + rounds.WARM_PASSES) * len(compiled.jobs)
                          + program.LOOP_JOBS),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(run_jobs_main())
