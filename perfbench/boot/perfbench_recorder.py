"""Recording inside one process of a traced round.

``sitecustomize.py`` calls :func:`start` at interpreter start-up in
every process of a traced round: the CLI passes, the broker and its
workers.  Two modes:

* ``timers`` wraps the public calls :func:`install_timers` names with
  call counters and timers (outermost call only, per thread) and
  counts store traffic.  It changes no call inside the simulated cycle.
* ``profile`` runs stdlib ``cProfile`` on every thread.

At exit the process writes its figures to ``OUT/<pid>.json`` (timers)
or ``OUT/<pid>.prof`` (profile); ``tracing.py`` merges them.
"""

from __future__ import annotations

import atexit
import cProfile
import json
import os
import pickle
import pstats
import sys
import threading
import time
from pathlib import Path


class Timers:
    """Thread-safe call counters and outermost-call timers."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.local = threading.local()
        self.values = {}
        self.checkpoint_tokens = set()

    def add(self, name: str, amount) -> None:
        with self.lock:
            self.values[name] = self.values.get(name, 0) + amount

    def wrap(self, func, span: str, after=None):
        """``func`` timed under ``span``; ``after(result, args)`` runs
        after each outermost call, outside the timed interval."""
        timers = self

        def wrapper(*args, **kwargs):
            depth = getattr(timers.local, span, 0)
            if depth:
                return func(*args, **kwargs)
            setattr(timers.local, span, 1)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                setattr(timers.local, span, 0)
                timers.add(span + "_s", elapsed)
                timers.add(span + "_calls", 1)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        with self.lock:
            values = dict(self.values)
            values["checkpoint_tokens"] = sorted(self.checkpoint_tokens)
        _write_atomic(path.with_suffix(".json"), json.dumps(values).encode())


def _patch(owner, name: str, wrapper_for) -> None:
    """Replace ``owner.name`` and every ``repro`` module global bound
    to the same object (names imported with ``from ... import``)."""
    original = getattr(owner, name)
    wrapped = wrapper_for(original)
    setattr(owner, name, wrapped)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and \
                getattr(module, name, None) is original:
            setattr(module, name, wrapped)


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def install_timers(timers: Timers) -> None:
    """Wrap the public calls each per-layer timer measures."""
    from repro.harness import checkpoints, runner, scenario
    from repro.harness.results import ResultStore
    from repro.pipeline import fastpath
    from repro.pipeline.processor import SMTProcessor

    _patch(SMTProcessor, "__init__",
           lambda f: timers.wrap(f, "pipeline.construct"))
    for name in ("run", "run_intervals", "run_adaptive_warmup",
                 "run_until_commits"):
        _patch(SMTProcessor, name, lambda f: timers.wrap(f, "stepping"))
    _patch(fastpath, "run_fast", lambda f: timers.wrap(f, "stepping"))
    _patch(SMTProcessor, "capture_state",
           lambda f: timers.wrap(f, "snapshot.capture"))
    _patch(SMTProcessor, "restore_state",
           lambda f: timers.wrap(f, "snapshot.restore"))

    def result_get(result, args):
        timers.add("harness.results.misses" if result is None
                   else "harness.results.hits", 1)

    def result_put(_, args):
        store, job = args[0], args[1]
        timers.add("harness.results.bytes", _size(
            store.directory() / f"{store.key_for(job)}.json"))

    _patch(ResultStore, "get",
           lambda f: timers.wrap(f, "harness.results.get", result_get))
    _patch(ResultStore, "put",
           lambda f: timers.wrap(f, "harness.results.put", result_put))

    def checkpoint_put(_, args):
        store, token = args[0], args[1]
        with timers.lock:
            timers.checkpoint_tokens.add(token)
        timers.add("harness.checkpoints.bytes", _size(
            store.directory() / f"{store.key_for(token)}.json.gz"))

    _patch(checkpoints.CheckpointStore, "get",
           lambda f: timers.wrap(f, "harness.checkpoints.get"))
    _patch(checkpoints.CheckpointStore, "put",
           lambda f: timers.wrap(f, "harness.checkpoints.put",
                                 checkpoint_put))
    _patch(runner, "single_thread_ipc",
           lambda f: timers.wrap(f, "harness.runner.baseline"))

    def count_baseline(func):
        def wrapper(*args, **kwargs):
            if getattr(timers.local, "harness.runner.baseline", 0):
                timers.add("harness.runner.baselines_computed", 1)
            return func(*args, **kwargs)
        return wrapper

    _patch(runner, "run_benchmarks", count_baseline)
    _patch(scenario.Scenario, "compile",
           lambda f: timers.wrap(f, "harness.scenario.compile"))

    def pickled(outcome, args):
        timers.add("harness.engine.job_pickle_bytes", sum(
            len(pickle.dumps(job)) for job in outcome.compiled.jobs))
        timers.add("harness.engine.result_pickle_bytes", sum(
            len(pickle.dumps(result)) for result in outcome.results))

    _patch(scenario, "run_scenario",
           lambda f: timers.wrap(f, "harness.scenario.run", pickled))


class Profiles:
    """One ``cProfile.Profile`` per thread."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.profiles = []

    def _start_thread(self, *_):
        profile = cProfile.Profile()
        with self.lock:
            self.profiles.append(profile)
        profile.enable()  # replaces this hook for the thread

    def start(self) -> None:
        threading.setprofile(self._start_thread)
        self._start_thread()

    def dump(self, path: Path) -> None:
        threading.setprofile(None)
        with self.lock:
            profiles = list(self.profiles)
        profiles[0].disable()  # the main thread's
        stats = pstats.Stats(profiles[0])
        for profile in profiles[1:]:
            stats.add(profile)
        temporary = path.with_suffix(".prof.part")
        stats.dump_stats(str(temporary))
        os.replace(temporary, path.with_suffix(".prof"))


def _write_atomic(path: Path, data: bytes) -> None:
    temporary = path.with_name(path.name + ".part")
    temporary.write_bytes(data)
    os.replace(temporary, path)


def start(mode: str, out_dir: str) -> None:
    """Record in ``mode`` from now until this process exits.

    The ``repro`` package is imported first, so imports stay out of the
    profile and the timers also patch every name imported from it.
    """
    import repro.harness  # noqa: F401 - loads nearly every repro module
    import repro.pipeline.fastpath  # noqa: F401

    if mode == "timers":
        recorder = Timers()
        install_timers(recorder)
    elif mode == "profile":
        recorder = Profiles()
        recorder.start()
    else:
        raise ValueError(f"unknown trace mode {mode!r}")
    atexit.register(recorder.dump, Path(out_dir) / str(os.getpid()))
