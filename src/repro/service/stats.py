"""Service-level observability: latency percentiles and counter rollups.

The scheduler already counts what *it* can see (queue depth, dispatches,
drops).  The service layer adds the tenant-facing view: per-client and
service-wide submission/rejection/completion counters, queue-latency
percentiles (p50/p99 over a bounded sample window) and a completion-rate
estimate — everything :meth:`RuntimeService.stats` snapshots and the
storm benchmark asserts on.

All structures are thread-safe: samples arrive from dispatcher and
executor callback threads while ``stats()`` reads from anywhere.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Dict, Optional

from repro.obs.metrics import _nearest_rank


class LatencyWindow:
    """A bounded window of latency samples with percentile queries.

    The window keeps the most recent ``maxlen`` samples — a service cares
    about *current* tail latency, not the all-time distribution — plus a
    lifetime count/max so long-gone spikes still show in ``max_s``.
    Snapshots report the two populations separately: ``mean_s`` and the
    percentiles describe the ``window_count`` retained samples, while
    ``total_count`` is the lifetime number of samples ever added (so
    ``mean_s * window_count`` is a real sum, which a single ``count``
    field covering both could not promise once the window wrapped).
    """

    def __init__(self, maxlen: int = 4096) -> None:
        self._samples = deque(maxlen=maxlen)
        self._lock = threading.Lock()
        self._count = 0
        self._max = 0.0

    def add(self, seconds: float) -> None:
        if not math.isfinite(seconds) or seconds < 0:
            return
        with self._lock:
            self._samples.append(float(seconds))
            self._count += 1
            self._max = max(self._max, float(seconds))

    def percentile(self, percent: float) -> Optional[float]:
        """Return the ``percent``-th percentile (nearest-rank), or ``None``
        when no samples have arrived.

        ``percent`` must lie in ``(0, 100]``: the nearest-rank definition
        has no 0th percentile, and silently returning the minimum sample
        for ``percentile(0)`` hid caller bugs.
        """
        if not 0.0 < percent <= 100.0:
            raise ValueError(
                f"percent must be in (0, 100], got {percent!r}"
            )
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return None
        return _nearest_rank(samples, percent / 100.0)

    def snapshot(self) -> dict:
        """Return ``{window_count, total_count, mean_s, p50_s, p99_s,
        max_s}``; the mean and percentiles cover the retained window, the
        max is lifetime."""
        with self._lock:
            samples = sorted(self._samples)
            total, maximum = self._count, self._max
        if not samples:
            return {"window_count": 0, "total_count": total, "mean_s": None,
                    "p50_s": None, "p99_s": None, "max_s": None}
        return {
            "window_count": len(samples),
            "total_count": total,
            "mean_s": sum(samples) / len(samples),
            "p50_s": _nearest_rank(samples, 0.50),
            "p99_s": _nearest_rank(samples, 0.99),
            "max_s": maximum,
        }


class RateMeter:
    """Completions-per-second over a sliding wall-clock window."""

    def __init__(self, window_seconds: float = 60.0, clock=time.monotonic) -> None:
        self.window = float(window_seconds)
        self._clock = clock
        self._events = deque()
        self._lock = threading.Lock()
        self._total = 0
        self._started = clock()

    def tick(self, count: int = 1) -> None:
        now = self._clock()
        with self._lock:
            self._events.append((now, int(count)))
            self._total += int(count)
            self._trim(now)

    def _trim(self, now: float) -> None:
        horizon = now - self.window
        while self._events and self._events[0][0] < horizon:
            self._events.popleft()

    def rate(self) -> float:
        """Events per second over the (elapsed part of the) window.

        The denominator is the elapsed time since the meter started,
        capped at the window length — never the span between the oldest
        retained event and now.  A since-first-event denominator collapses
        to ~0 with a single event in the window, reporting one completion
        as ~1e9 events/sec; elapsed-since-start keeps early-window rates
        sane (one completion five seconds into the window is 0.2/sec) and
        converges to the plain sliding-window rate once the meter has run
        a full window.
        """
        now = self._clock()
        with self._lock:
            self._trim(now)
            if not self._events:
                return 0.0
            span = min(max(now - self._started, 1e-9), self.window)
            return sum(count for _stamp, count in self._events) / span

    @property
    def total(self) -> int:
        with self._lock:
            return self._total


class ClientStats:
    """One client's service-side counters (all mutations under one lock)."""

    FIELDS = (
        "submitted_batches",
        "submitted_jobs",
        "completed_batches",
        "completed_jobs",
        "failed_batches",
        "cancelled_batches",
        "dropped_batches",
        "rejected_quota",
        "rejected_rate",
        "rejected_overload",
        "queued_waits",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {field: 0 for field in self.FIELDS}
        self.queue_latency = LatencyWindow()

    def bump(self, field: str, count: int = 1) -> None:
        if field not in self._counters:
            raise ValueError(
                f"unknown counter {field!r}; valid fields: "
                f"{', '.join(self.FIELDS)}"
            )
        with self._lock:
            self._counters[field] += count

    def get(self, field: str) -> int:
        with self._lock:
            return self._counters[field]

    def snapshot(self) -> dict:
        with self._lock:
            counters = dict(self._counters)
        counters["queue_latency"] = self.queue_latency.snapshot()
        return counters
