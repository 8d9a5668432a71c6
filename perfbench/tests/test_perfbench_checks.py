"""The benchmark's correctness checks catch a one-unit perturbation.

Each test perturbs one printed or stored figure by one unit in its last
place (an IPC by 0.01, a Hmean by 0.001, a committed count by 1) and
requires the matching check to fail, after the unperturbed output of a
real ``repro scenario run`` passed every check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import program  # noqa: E402

#: A seed no other test uses, so the process-wide store layers are cold.
SEED = 9_876_541

SCENARIO = {
    "name": "perfbench-check-test",
    "workloads": ["gzip+twolf"],
    "policies": ["ICOUNT", "DCRA"],
    "cycles": 600,
    "warmup": 200,
    "seed": SEED,
}


@pytest.fixture(scope="module")
def scenario_run(tmp_path_factory):
    """One cold ``repro scenario run``: (compiled, cache dir, report)."""
    import contextlib
    import io
    import os

    from repro.__main__ import main

    root = tmp_path_factory.mktemp("perfbench")
    path = root / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    cache = root / "cache"
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["scenario", "run", str(path)]) == 0
    finally:
        if previous is None:
            del os.environ["REPRO_CACHE_DIR"]
        else:
            os.environ["REPRO_CACHE_DIR"] = previous
    workload = program.Workload("test", str(path), False, ("", "", ()))
    compiled = program.compile_workload(workload, SEED)
    return compiled, cache, out.getvalue()


def _bump(report: str, row: int, column: int, unit: float,
          digits: int) -> str:
    """The report with one table cell moved by ``unit``."""
    lines = report.splitlines()
    body = [i for i, line in enumerate(lines)
            if line and not line.startswith("#")][1:]
    cells = lines[body[row]].split()
    value = float(cells[column]) + unit
    lines[body[row]] = lines[body[row]].replace(
        cells[column], f"{value:.{digits}f}")
    return "\n".join(lines) + "\n"


def test_real_run_passes(scenario_run):
    compiled, cache, report = scenario_run
    failures, payloads = program.check_pass(compiled, cache, report)
    assert failures == []
    assert len(payloads) == len(compiled.jobs)


def test_ipc_off_by_one_unit_fails(scenario_run):
    compiled, cache, report = scenario_run
    failures, _ = program.check_pass(compiled, cache,
                                     _bump(report, 1, -2, 0.01, 2))
    assert any("report row 2" in failure for failure in failures)


def test_hmean_off_by_one_unit_fails(scenario_run):
    compiled, cache, report = scenario_run
    failures, _ = program.check_pass(compiled, cache,
                                     _bump(report, 0, -1, 0.001, 3))
    assert any("report row 1" in failure for failure in failures)


def test_committed_off_by_one_fails(scenario_run, tmp_path):
    compiled, cache, report = scenario_run
    job = compiled.jobs[0]
    payload = program.stored_payload(cache, job)
    payload["threads"][1]["committed"] += 1
    assert any("stores IPC" in failure for failure in checks.check_result(
        "job 1", payload, job.benchmarks, job.cycles, 200, 8))
    assert checks.check_committed("job 1", payload,
                                  program.step_loop_committed(job))


def test_step_loop_replay_matches_store(scenario_run):
    compiled, cache, _ = scenario_run
    for job in compiled.jobs:
        payload = program.stored_payload(cache, job)
        assert checks.check_committed(
            "job", payload, program.step_loop_committed(job)) == []


def test_budget_and_width_properties():
    payload = {"cycles": 100, "warmup_cycles": 10, "policy": "ICOUNT",
               "threads": [{"benchmark": "gzip", "committed": 900,
                            "ipc": 9.0}]}
    failures = checks.check_result("job", payload, ["gzip"], 100, 10, 8)
    assert failures == ["job: total IPC 9.0 exceeds the commit width 8"]
    payload["threads"][0].update(committed=0, ipc=0.0)
    assert checks.check_result("job", payload, ["gzip"], 200, 10, 8) == [
        "job: measured 100 cycles, requested 200",
        "job: gzip IPC 0.0 is not positive"]


def test_relative_hmean():
    assert checks.relative_hmean([1.0, 0.5], [2.0, 1.0]) == 0.5


def test_snapshot_free_fork_matches_checkpointed_fork(tmp_path, monkeypatch):
    """The recomputation of a forked job on one live processor equals
    the program's checkpointed fork, and differs when the measured
    policy is never attached."""
    from repro.harness.engine import SimJob, run_job
    from repro.pipeline.config import SMTConfig

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    job = SimJob(("gzip", "twolf"), "DCRA", SMTConfig(), 600, 300,
                 SEED + 1, checkpoint="auto", warmup_policy="ICOUNT")
    forked = program.payload_of(run_job(job))
    assert program.recompute_without_snapshot(job) == forked
    monkeypatch.setattr(program._Handover, "handover", lambda self: None)
    assert program.recompute_without_snapshot(job) != forked
