"""CPU time and peak memory of this process and the processes it started.

Linux only for child processes (read from ``/proc``); the benchmark's own
process is measured with :mod:`resource`.  Child server and pool worker
processes are found by walking parent ids, so whatever the program under
test forks is counted too.
"""

from __future__ import annotations

import os
import resource
from typing import Dict, List

_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        text = fh.read()
    # The command name may hold spaces; everything after ") " is fixed-form.
    return text[text.rindex(")") + 2:].split()


def descendants(pid: int) -> List[int]:
    """Return the ids of every live descendant of ``pid``."""
    children: Dict[int, List[int]] = {}
    try:
        entries = os.listdir("/proc")
    except OSError:
        return []
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            parent = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
        children.setdefault(parent, []).append(int(entry))
    found, stack = [], [pid]
    while stack:
        for child in children.get(stack.pop(), ()):
            found.append(child)
            stack.append(child)
    return found


def _child_cpu_s(pid: int) -> float:
    try:
        fields = _stat_fields(pid)
    except (OSError, ValueError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICKS


def _child_peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_snapshot() -> Dict[int, float]:
    """Return ``{pid: user+sys seconds}`` for this process and its tree."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    me = os.getpid()
    snapshot = {me: usage.ru_utime + usage.ru_stime}
    for pid in descendants(me):
        snapshot[pid] = _child_cpu_s(pid)
    return snapshot


def cpu_between(before: Dict[int, float], after: Dict[int, float]) -> float:
    """Return the CPU seconds the tree used between two snapshots.

    A process that started in between counts from zero; one that ended in
    between is lost (its last reading is unknown), so keep the processes
    under test alive across the measured region.
    """
    return sum(max(0.0, cpu - before.get(pid, 0.0)) for pid, cpu in after.items())


def peak_rss_mb() -> float:
    """Return the summed peak resident memory of this process and its tree."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_child_peak_rss_mb(pid) for pid in descendants(os.getpid()))
