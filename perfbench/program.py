"""The benchmark's view of the program under test.

Everything here reaches the program through its public names: the
scenario loader and compiler, the result and baseline stores' key
functions, ``SMTProcessor.step`` and ``run_job``.  ``run.py`` puts the
checkout's ``src`` directory on ``sys.path`` before importing this.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.checkpoints import job_prefix_token
from repro.harness.engine import SimJob, run_job
from repro.harness.results import ResultStore, result_to_payload
from repro.harness.runner import BaselineCache
from repro.harness.scenario import CompiledScenario, load_scenario
from repro.harness.warmup import as_warmup_policy
from repro.metrics.stats import collect_result
from repro.pipeline.config import SMTConfig
from repro.pipeline.processor import SMTProcessor
from repro.policies.registry import make_policy
from repro.trace.profiles import get_profile
from repro.trace.workloads import find_workload

import checks

HERE = Path(__file__).resolve().parent


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the ``--workload`` value.
        scenario: scenario file under ``scenarios/``.
        via_broker: submit the scenario with ``--executor broker``.
        loop_job: the closed-loop job shape, ``(workload, policy,
            config overrides)``; every round trip gets its own seed and
            the scenario's cycle and warm-up budgets.
    """

    name: str
    scenario: str
    via_broker: bool
    loop_job: Tuple[str, str, Tuple[Tuple[str, int], ...]]

    @property
    def scenario_path(self) -> Path:
        return HERE / "scenarios" / self.scenario


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("dcra-cells", "dcra-cells.json", False,
                 ("MIX4.g1", "DCRA", ())),
        Workload("mem-stall", "mem-stall.json", False,
                 ("MEM4.g1", "STALL", (("memory_latency", 1000),))),
        Workload("sweep-service", "sweep-service.json", True,
                 ("MIX2.g1", "DCRA", (("int_physical_registers", 320),
                                      ("fp_physical_registers", 320)))),
    )
}

#: Closed-loop round trips per round.
LOOP_JOBS = 8


def compile_workload(workload: Workload, seed: int) -> CompiledScenario:
    """The job list ``repro scenario run FILE --seed SEED`` executes."""
    scenario = load_scenario(workload.scenario_path)
    return dataclasses.replace(scenario, seed=seed).compile()


def loop_jobs(workload: Workload, compiled: CompiledScenario, seed: int,
              round_index: int) -> List[SimJob]:
    """Distinct single jobs for one round of the closed loop.

    Seeds never repeat across rounds or runs of one seed, so every
    round trip is simulated rather than served from a store.
    """
    name, policy, overrides = workload.loop_job
    base = compiled.scenario
    config = dataclasses.replace(SMTConfig(), **dict(overrides))
    benchmarks = find_workload(name).benchmarks
    return [SimJob(tuple(benchmarks), policy, config, base.cycles,
                   base.warmup, 1_000_000 + seed * 10_000
                   + round_index * 100 + index)
            for index in range(LOOP_JOBS)]


def _warmup_cycles(job: SimJob) -> int:
    return as_warmup_policy(job.warmup).cycles


def _solo_keys(compiled: CompiledScenario) -> Dict[Tuple[str, str, int],
                                                  Tuple[SMTConfig, int, object]]:
    """Distinct solo baselines the report needs: (config, bench, seed)."""
    keys = {}
    for meta in compiled.meta:
        point = compiled.points[meta.point].scenario
        config = point.config or SMTConfig()
        for benchmark in meta.workload.benchmarks:
            keys[(repr(config), benchmark, meta.seed)] = (
                config, point.cycles, point.warmup)
    return keys


def simulated_cycles(compiled: CompiledScenario) -> int:
    """Cycles a cold pass simulates: jobs, warm-up prefixes, baselines.

    A job that forks from a checkpoint simulates only its measured
    cycles; each distinct prefix simulates its warm-up once.
    """
    total = 0
    prefixes = set()
    for job in compiled.jobs:
        if job.checkpoint:
            total += job.cycles
            prefixes.add((job_prefix_token(job), _warmup_cycles(job)))
        else:
            total += _warmup_cycles(job) + job.cycles
    total += sum(cycles for _, cycles in prefixes)
    for config, cycles, warmup in _solo_keys(compiled).values():
        total += as_warmup_policy(warmup).cycles + cycles
    return total


def job_cycles(jobs: Sequence[SimJob]) -> int:
    """Cycles plain (checkpoint-free) jobs simulate."""
    return sum(_warmup_cycles(job) + job.cycles for job in jobs)


def stored_payload(cache_dir: Path, job: SimJob) -> Optional[dict]:
    """The raw ``data`` dict of a job's result-store entry."""
    path = cache_dir / "results" / f"{ResultStore.key_for(job)}.json"
    try:
        with open(path) as handle:
            return json.load(handle)["data"]
    except (OSError, ValueError, KeyError):
        return None


def payload_of(result) -> dict:
    """A result as the JSON data the store would hold for it."""
    return json.loads(json.dumps(result_to_payload(result)))


def check_pass(compiled: CompiledScenario, cache_dir: Path,
               report: str) -> Tuple[List[str], Dict[int, dict]]:
    """Every stored result of a pass and the report printed for it.

    Returns the failures and the stored payloads by job index.  The
    solo IPCs are read through a fresh :class:`BaselineCache` (disk
    only) pointed at ``cache_dir``.
    """
    failures: List[str] = []
    payloads: Dict[int, dict] = {}
    for index, job in enumerate(compiled.jobs):
        payload = stored_payload(cache_dir, job)
        label = f"job {index + 1} ({job.tag} {job.policy})"
        if payload is None:
            failures.append(f"{label}: no stored result")
            continue
        payloads[index] = payload
        config = job.config or SMTConfig()
        failures += checks.check_result(
            label, payload, job.benchmarks, job.cycles,
            _warmup_cycles(job), config.commit_width)
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    try:
        cache = BaselineCache()
        solos = {key: cache.get(key[1], config, cycles, warmup, key[2])
                 for key, (config, cycles, warmup) in
                 _solo_keys(compiled).items()}
    finally:
        if previous is None:
            del os.environ["REPRO_CACHE_DIR"]
        else:
            os.environ["REPRO_CACHE_DIR"] = previous
    failures += checks.check_solos(solos)
    if failures:
        return failures, payloads
    rows = []
    for index, meta in enumerate(compiled.meta):
        config = compiled.points[meta.point].scenario.config or SMTConfig()
        rows.append((meta.point_label, meta.workload.name, payloads[index],
                     [solos[(repr(config), benchmark, meta.seed)]
                      for benchmark in meta.workload.benchmarks]))
    expected = checks.expected_rows(rows, len(compiled.points) > 1)
    failures += checks.check_table(report, compiled.scenario.name, expected)
    return failures, payloads


def step_loop_committed(job: SimJob) -> List[int]:
    """Per-thread committed counts of ``job`` replayed on the plain
    ``SMTProcessor.step`` loop: warm up, reset statistics, measure."""
    processor = SMTProcessor(job.config or SMTConfig(),
                             [get_profile(b) for b in job.benchmarks],
                             make_policy(job.policy), seed=job.seed)
    warmup = _warmup_cycles(job)
    for _ in range(warmup):
        processor.step()
    if warmup:
        processor.reset_stats()
    for _ in range(job.cycles):
        processor.step()
    return [thread.stats.committed for thread in processor.threads]


class _Handover:
    """A policy that is ``warmup`` until :meth:`handover`, then a freshly
    attached ``measured``: a forked warm-up on one live processor, with
    no snapshot taken or restored.  The per-op hooks the processor only
    calls when a policy overrides them are forwarded explicitly; the
    base policy's versions of them do nothing (``may_rename`` allows)."""

    def __init__(self, warmup, measured) -> None:
        self.current = warmup
        self.measured = measured

    def attach(self, processor) -> None:
        self.processor = processor
        self.current.attach(processor)

    def handover(self) -> None:
        self.current = self.measured
        self.current.attach(self.processor)

    def may_rename(self, tid, op):
        return self.current.may_rename(tid, op)

    def on_rename(self, tid, op):
        self.current.on_rename(tid, op)

    def on_commit(self, tid, op):
        self.current.on_commit(tid, op)

    def on_load_issued(self, tid, op, result):
        self.current.on_load_issued(tid, op, result)

    def on_l1d_miss(self, tid, op):
        self.current.on_l1d_miss(tid, op)

    def __getattr__(self, name):
        return getattr(self.current, name)


def recompute_without_snapshot(job: SimJob) -> dict:
    """A forked job recomputed in-process on one processor: the warm-up
    runs under the warm-up policy, then the measured policy is attached
    fresh, as restoring a forked checkpoint does."""
    policy = _Handover(make_policy(job.warmup_policy),
                       make_policy(job.policy))
    processor = SMTProcessor(job.config or SMTConfig(),
                             [get_profile(b) for b in job.benchmarks],
                             policy, seed=job.seed)
    warmup = _warmup_cycles(job)
    processor.run(warmup)
    policy.handover()
    processor.reset_stats()
    processor.run(job.cycles)
    result = collect_result(processor, benchmarks=list(job.benchmarks))
    result.warmup_cycles = warmup
    return payload_of(result)


def recompute_in_process(job: SimJob) -> dict:
    return payload_of(run_job(job))
