"""One benchmark round: fresh stores and broker, cold, warm, closed loop.

Both the timed runs (``run.py``) and the traced run (``tracing.py``)
measure rounds; a round also checks everything it produced.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path
from typing import Optional

import checks
import program
import service

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
#: Start-up hook directory of traced rounds (see ``boot/sitecustomize.py``).
BOOT = HERE / "boot"
#: Warm passes per round: each is short, so several give a steady median.
WARM_PASSES = 5
#: Set-ups per round, for the same reason.  The broker of the last one
#: serves the round; the others are stopped as soon as they are ready.
SETUPS = 2


def child_env(cache_dir: Path, trace: Optional[str] = None,
              trace_dir: Optional[Path] = None) -> dict:
    """Environment of every child: the checkout's sources, and stores
    and temporary files inside the round's own directory.  With
    ``trace``, every Python process started with it records in that
    mode and leaves its figures in ``trace_dir``."""
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE", None)
    # Bytecode is cached, as for an installed package, but inside the
    # benchmark's own directory: without it every process would compile
    # the whole package again.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["TMPDIR"] = str(cache_dir / "tmp")
    if trace:
        env["PYTHONPATH"] = os.pathsep.join((str(BOOT), str(SRC)))
        env["PERFBENCH_TRACE"] = trace
        env["PERFBENCH_TRACE_OUT"] = str(trace_dir)
    return env


def worker_count() -> int:
    return len(os.sched_getaffinity(0))


class Round:
    """One round's measurements and the state the checks need."""

    def __init__(self, workload, compiled, seed: int, index: int,
                 trace: Optional[str] = None) -> None:
        self.workload = workload
        self.compiled = compiled
        self.seed = seed
        self.index = index
        self.trace = trace
        self.dir = WORK / f"round-{os.getpid()}-{index}-{trace or 'untraced'}"
        self.cache = self.dir / "cache"
        self.trace_dir = self.dir / "trace"
        self.failures = []
        self.loop = []
        self.loop_jobs = []
        self.payloads = {}

    def scenario_args(self, broker, reuse: str, stats: str):
        args = ["scenario", "run", str(self.workload.scenario_path),
                "--seed", str(self.seed), "--reuse", reuse,
                "--store-stats", str(self.dir / stats)]
        if self.workload.via_broker:
            args += ["--executor", "broker", "--broker", broker.address,
                     "--jobs", str(broker.workers)]
        return args

    def run(self) -> None:
        """Set up, run cold, warm and the closed loop, tear down, check."""
        self.trace_dir.mkdir(parents=True)
        self.setup_samples = []
        for k in range(SETUPS - 1):
            self._set_up(self.dir / f"setup-{k}").stop()
        broker = self._set_up(self.dir)
        env = broker.env
        try:
            self.cold_s, cold_out, cli_rss = service.run_cli(
                self.scenario_args(broker, "auto", "cold.json"), env,
                self.dir, "cold")
            self.peak_rss_mb = max(cli_rss,
                                   service.peak_rss_kb(broker.pids())) / 1024
            warm = [service.run_cli(
                self.scenario_args(broker, "require", f"warm{k}.json"), env,
                self.dir, f"warm{k}") for k in range(WARM_PASSES)]
            self.warm_samples = [wall for wall, _, _ in warm]
            self.loop_jobs = program.loop_jobs(
                self.workload, self.compiled, self.seed, self.index)
            self.loop = service.closed_loop(broker.client, self.loop_jobs)
        finally:
            broker.stop()
        self.wall_s = (sum(self.setup_samples) + self.cold_s
                       + sum(self.warm_samples)
                       + sum(elapsed for elapsed, _, _ in self.loop))
        self.cycles = program.simulated_cycles(self.compiled)
        self.report = cold_out
        self.check(cold_out, [out for _, out, _ in warm])

    def _set_up(self, workdir: Path) -> service.BrokerProcess:
        """Empty stores under ``workdir`` and a started broker whose
        workers have all joined; the time taken is one set-up sample."""
        start = time.perf_counter()
        cache = workdir / "cache"
        (cache / "tmp").mkdir(parents=True)
        broker = service.BrokerProcess(
            child_env(cache, self.trace, self.trace_dir), worker_count(),
            workdir)
        try:
            broker.start()
        except BaseException:
            broker.stop()
            raise
        self.setup_samples.append(time.perf_counter() - start)
        return broker

    def check(self, cold_out: str, warm_outs) -> None:
        failures, self.payloads = program.check_pass(
            self.compiled, self.cache, cold_out)
        self.failures += failures
        jobs = len(self.compiled.jobs)
        for k, warm_out in enumerate(warm_outs):
            if warm_out != cold_out:
                self.failures.append(
                    f"warm pass {k + 1} printed a different report")
            warm = json.loads((self.dir / f"warm{k}.json").read_text())
            if (warm["hits"], warm["misses"]) != (jobs, 0):
                self.failures.append(
                    f"warm pass {k + 1}: {warm['hits']} hits, "
                    f"{warm['misses']} misses for {jobs} jobs")
        for index, (job, (_, result, source)) in enumerate(
                zip(self.loop_jobs, self.loop)):
            label = f"closed-loop job {index + 1}"
            if source != "worker":
                self.failures.append(f"{label} was served from the {source}")
            self.failures += checks.check_result(
                label, program.payload_of(result), job.benchmarks,
                job.cycles, job.warmup, job.config.commit_width)

    def deep_check(self) -> None:
        """Replays and recomputations, once per run (they are slow)."""
        if self.failures:
            return  # the stored results are already wrong or missing
        jobs = self.compiled.jobs
        plain = [i for i, job in enumerate(jobs) if job.warmup_policy is None]
        pick = plain[self.seed % len(plain)]
        self.failures += checks.check_committed(
            f"step-loop replay of job {pick + 1}", self.payloads[pick],
            program.step_loop_committed(jobs[pick]))
        forked = [i for i, job in enumerate(jobs)
                  if job.warmup_policy not in (None, job.policy)]
        picks = {forked[(self.seed + k * len(forked) // 2) % len(forked)]
                 for k in (0, 1)} if forked else set()
        for i in sorted(picks):
            self.failures += checks.check_equal(
                f"forked job {i + 1} without checkpoints", self.payloads[i],
                program.recompute_without_snapshot(jobs[i]))
        for i in (self.seed % len(self.loop), (self.seed + 3) % len(self.loop)):
            self.failures += checks.check_equal(
                f"closed-loop job {i + 1} in-process",
                program.payload_of(self.loop[i][1]),
                program.recompute_in_process(self.loop_jobs[i]))

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
