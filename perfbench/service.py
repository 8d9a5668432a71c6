"""Child processes the benchmark drives: CLI passes and the broker.

Every process started here is waited for before its function returns
(or, for the broker, before :meth:`BrokerProcess.stop` returns).
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

#: Seconds any single child step may take before the run is abandoned.
STEP_TIMEOUT = 150.0


def run_cli(args: Sequence[str], env: dict, workdir: Path,
            name: str) -> Tuple[float, str, int]:
    """Run ``python -m repro ARGS``; returns (wall s, stdout, peak RSS kB).

    The wall time spans process start to exit, what a user waits for.
    The peak RSS comes from ``wait4`` on that very process.
    """
    out_path = workdir / f"{name}.out"
    err_path = workdir / f"{name}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        process = subprocess.Popen([sys.executable, "-m", "repro", *args],
                                   env=env, stdout=out, stderr=err)
        try:
            _, status, usage = _wait4(process, STEP_TIMEOUT)
        except BaseException:
            process.kill()
            process.wait()
            raise
        wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    if process.returncode != 0:
        raise RuntimeError(
            f"'repro {' '.join(args)}' exited {process.returncode}: "
            f"{err_path.read_text()[-2000:]}")
    return wall, out_path.read_text(), usage.ru_maxrss


def _wait4(process: subprocess.Popen, timeout: float):
    """Reap ``process`` when it exits: blocks on a pidfd, so waiting
    takes no CPU from the process and returns as soon as it ends."""
    pidfd = os.pidfd_open(process.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
    finally:
        os.close(pidfd)
    if not ready:
        raise TimeoutError(f"process {process.args} ran past "
                           f"{timeout:.0f}s")
    return os.wait4(process.pid, 0)


def peak_rss_kb(pids: Sequence[int]) -> int:
    """Largest VmHWM (peak resident set) among live processes."""
    peak = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, from every thread's children list."""
    children = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return children
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children += [int(value) for value in handle.read().split()]
        except OSError:
            continue
    return children


class BrokerProcess:
    """``repro broker serve`` with loopback workers, plus one client."""

    def __init__(self, env: dict, workers: int, workdir: Path) -> None:
        self.env = env
        self.workers = workers
        self.workdir = workdir
        self.process: Optional[subprocess.Popen] = None
        self.client = None
        self.address: Optional[str] = None
        self._drain: Optional[threading.Thread] = None

    def start(self) -> "BrokerProcess":
        """Start the broker and return once every worker has joined.

        Readiness is read from the broker's log on a pipe, blocking
        until a line arrives, so waiting takes no CPU from the starting
        workers.  A thread then copies the rest of the log to
        ``broker.err``.
        """
        from repro.harness.broker import BrokerClient

        with open(self.workdir / "broker.out", "w") as out:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "broker", "serve",
                 "--port", "0", "--spawn-workers", str(self.workers)],
                env=self.env, stdout=out, stderr=subprocess.PIPE)
        joined = f"[broker] worker joined ({self.workers} active)"
        log = self._read_until(joined.encode(),
                               time.monotonic() + STEP_TIMEOUT)
        self._drain = threading.Thread(target=self._copy_log, args=(log,))
        self._drain.start()
        for line in log.decode().splitlines():
            if line.startswith("[broker] listening on "):
                self.address = line.split()[-1]
        self.client = BrokerClient(self.address, timeout=STEP_TIMEOUT)
        return self

    def _read_until(self, marker: bytes, deadline: float) -> bytes:
        """The broker's log up to and including ``marker``."""
        log = b""
        fd = self.process.stderr.fileno()
        while marker not in log:
            ready, _, _ = select.select(
                [fd], [], [], max(0.0, deadline - time.monotonic()))
            chunk = os.read(fd, 65536) if ready else None
            if chunk is None:
                raise TimeoutError("broker did not become ready")
            if not chunk:
                self.process.wait()
                raise RuntimeError("broker exited during start-up: "
                                   + log.decode()[-2000:])
            log += chunk
        return log

    def _copy_log(self, head: bytes) -> None:
        fd = self.process.stderr.fileno()
        with open(self.workdir / "broker.err", "wb") as err:
            err.write(head)
            while True:
                chunk = os.read(fd, 65536)
                if not chunk:
                    return
                err.write(chunk)

    def pids(self) -> List[int]:
        return [self.process.pid, *child_pids(self.process.pid)]

    def stop(self) -> None:
        """Close the client, stop the broker gracefully and wait."""
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STEP_TIMEOUT / 5)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self._drain is not None:
            self._drain.join()
            self._drain = None
        self.process.stderr.close()
        self.process = None


def closed_loop(client, jobs) -> List[Tuple[float, object, str]]:
    """One client, one job outstanding: submit, wait, repeat.

    Returns ``(submit-to-result seconds, result, source)`` per job.
    """
    import queue

    samples = []
    for index, job in enumerate(jobs):
        submission = f"loop-{index}"
        route = client.open_route(submission)
        start = time.perf_counter()
        client.submit(submission, "job", job=job)
        while True:
            try:
                message = route.get(timeout=STEP_TIMEOUT)
            except queue.Empty:
                raise TimeoutError(f"no reply to {submission}") from None
            if message[0] != "progress":
                break
        elapsed = time.perf_counter() - start
        client.close_route(submission)
        if message[0] != "result" or not message[2]:
            raise RuntimeError(f"closed-loop job {index} failed: {message}")
        samples.append((elapsed, message[3], message[4]))
    return samples
