"""Correctness checks the benchmark applies to every workload.

Each check compares the program's output with a value recomputed here,
apart from the program, or with a property the method must have.  None
compares against a saved copy of earlier output.  Every check returns
a list of failure messages; an empty list means it passed.

The stored results are read as the raw JSON the result store writes
(``{"data": {"cycles", "warmup_cycles", "policy", "threads": [...]}}``),
so a fault in the store's decoder cannot hide a fault in the numbers.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

#: Columns of ``repro scenario run``: cells are separated by two or
#: more spaces; a workload cell such as ``MIX2.g1 (gzip+twolf)`` holds
#: single spaces only.
_CELL_SPLIT = re.compile(r"\s{2,}")
_SCENARIO_LINE = re.compile(r"^# scenario (\S+) \((\d+) jobs, (\d+) grid point")


def relative_hmean(mix_ipcs: Sequence[float],
                   solo_ipcs: Sequence[float]) -> float:
    """Harmonic mean of relative IPCs, written as n / sum(solo / mix)."""
    return len(mix_ipcs) / sum(solo / mix
                               for solo, mix in zip(solo_ipcs, mix_ipcs))


def thread_ipcs(payload: dict) -> List[float]:
    """Per-thread IPCs recomputed from the committed counts."""
    cycles = payload["cycles"]
    return [thread["committed"] / cycles for thread in payload["threads"]]


def check_result(label: str, payload: dict, benchmarks: Sequence[str],
                 cycles: int, warmup: Optional[int],
                 commit_width: int) -> List[str]:
    """Budget, per-thread IPC and throughput properties of one result.

    ``payload`` is a stored result's ``data`` dict.  ``warmup`` None
    skips the warm-up check (results that travel without one).
    """
    failures = []
    if payload["cycles"] != cycles:
        failures.append(f"{label}: measured {payload['cycles']} cycles, "
                        f"requested {cycles}")
    if warmup is not None and payload.get("warmup_cycles") != warmup:
        failures.append(f"{label}: warm-up {payload.get('warmup_cycles')} "
                        f"cycles, requested {warmup}")
    names = [thread["benchmark"] for thread in payload["threads"]]
    if names != list(benchmarks):
        failures.append(f"{label}: threads {names}, expected "
                        f"{list(benchmarks)}")
    for thread, ipc in zip(payload["threads"], thread_ipcs(payload)):
        if not ipc > 0:
            failures.append(f"{label}: {thread['benchmark']} IPC {ipc} "
                            "is not positive")
        if thread["ipc"] != ipc:
            failures.append(
                f"{label}: {thread['benchmark']} stores IPC "
                f"{thread['ipc']!r}, but {thread['committed']} committed "
                f"in {payload['cycles']} cycles is {ipc!r}")
    total = sum(thread_ipcs(payload))
    if total > commit_width:
        failures.append(f"{label}: total IPC {total} exceeds the commit "
                        f"width {commit_width}")
    return failures


def parse_scenario_table(text: str) -> Tuple[Optional[Tuple[str, int]],
                                             List[List[str]]]:
    """``((name, jobs), rows)`` of a ``repro scenario run`` report.

    ``rows`` holds the table body (header line excluded), one list of
    cells per line.
    """
    header = None
    rows: List[List[str]] = []
    in_table = False
    for line in text.splitlines():
        match = _SCENARIO_LINE.match(line)
        if match:
            header = (match.group(1), int(match.group(2)))
            continue
        if line.startswith("#") or not line.strip():
            continue
        if not in_table:
            in_table = True  # the column header line
            continue
        rows.append(_CELL_SPLIT.split(line.strip()))
    return header, rows


def expected_rows(rows: Sequence[Tuple[str, str, dict, Sequence[float]]],
                  show_points: bool) -> List[List[str]]:
    """The table the program must print, recomputed from stored counts.

    ``rows`` holds ``(point_label, workload_name, payload, solo_ipcs)``
    per job, in compile order (one replication per row).
    """
    table = []
    for point, workload, payload, solos in rows:
        ipcs = thread_ipcs(payload)
        cells = [point] if show_points else []
        cells += [workload, payload["policy"], f"{sum(ipcs):.2f}",
                  f"{relative_hmean(ipcs, solos):.3f}"]
        table.append(cells)
    return table


def check_table(text: str, name: str, expected: List[List[str]]) -> List[str]:
    """The printed report against the recomputed rows, cell by cell."""
    header, rows = parse_scenario_table(text)
    failures = []
    if header != (name, len(expected)):
        failures.append(f"report header {header}, expected "
                        f"{(name, len(expected))}")
    if len(rows) != len(expected):
        failures.append(f"report has {len(rows)} rows, expected "
                        f"{len(expected)}")
    for index, (got, want) in enumerate(zip(rows, expected)):
        if got != want:
            failures.append(f"report row {index + 1}: printed {got}, "
                            f"recomputed {want}")
    return failures


def check_solos(solos: Dict[Tuple[str, str, int], Optional[float]]) \
        -> List[str]:
    """Every solo baseline the report needs exists and is positive."""
    return [f"solo baseline {key} is {ipc}"
            for key, ipc in solos.items()
            if ipc is None or not ipc > 0]


def check_committed(label: str, payload: dict,
                    committed: Sequence[int]) -> List[str]:
    """Stored per-thread committed counts against a replay's counts."""
    stored = [thread["committed"] for thread in payload["threads"]]
    if stored != list(committed):
        return [f"{label}: stored committed counts {stored}, replay "
                f"gives {list(committed)}"]
    return []


def check_equal(label: str, got: dict, want: dict) -> List[str]:
    """Two result payloads must match bitwise."""
    if got != want:
        return [f"{label}: result differs from its recomputation"]
    return []
