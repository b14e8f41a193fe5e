"""Shared configuration for the benchmark harness.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the regenerated
paper tables next to the timing numbers.

``bench_runtime.py`` cases additionally :func:`record` their wall-clocks
and speedups; at session end they are written to ``BENCH_runtime.json``
in the repo root, so the perf trajectory is machine-readable and can be
tracked across PRs.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

#: Case name -> {"baseline_s", "optimized_s", "speedup", ...} fields.
_BENCH_RESULTS: dict = {}

#: Where the machine-readable runtime-bench record lands.
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"


def emit(text: str) -> None:
    """Print a regenerated table (visible with ``-s``)."""
    print()
    print(text)


def record(case: str, baseline_s: float, optimized_s: float, **extra) -> None:
    """Record one bench case's wall-clocks (and derived speedup).

    ``extra`` fields (shot counts, worker counts, ...) are stored
    verbatim so the JSON is self-describing.
    """
    _BENCH_RESULTS[case] = dict(
        baseline_s=round(float(baseline_s), 6),
        optimized_s=round(float(optimized_s), 6),
        speedup=round(float(baseline_s) / float(optimized_s), 3)
        if optimized_s > 0
        else None,
        **extra,
    )


def record_samples(case: str, samples_s, **extra) -> None:
    """Record one bench case's repeated wall-clocks as a distribution.

    Stores the median and the spread (interquartile range, plus min and
    max), the repeat count and the host (cpu count, numpy version), so a
    single number is never read without the noise around it.
    """
    samples = sorted(float(s) for s in samples_s)
    q1, _, q3 = (
        statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    )
    _BENCH_RESULTS[case] = dict(
        median_s=round(statistics.median(samples), 6),
        iqr_s=round(q3 - q1, 6),
        min_s=round(samples[0], 6),
        max_s=round(samples[-1], 6),
        repeats=len(samples),
        cpu_count=os.cpu_count(),
        numpy=np.__version__,
        **extra,
    )


def pytest_sessionfinish(session) -> None:
    """Merge every recorded case into ``BENCH_runtime.json`` (if any ran).

    Cases not re-run this session keep their previous record, so a
    partial bench invocation (``-k one_case``) never erases the rest of
    the tracked perf trajectory.
    """
    if not _BENCH_RESULTS:
        return
    cases: dict = {}
    try:
        previous = json.loads(BENCH_JSON_PATH.read_text())
        if isinstance(previous, dict) and isinstance(previous.get("cases"), dict):
            cases = previous["cases"]
    except (OSError, ValueError):
        pass  # no previous record (or corrupt): start fresh
    cases.update(_BENCH_RESULTS)
    payload = {
        "generated_unix": time.time(),
        "cpu_count": os.cpu_count(),
        "cases": dict(sorted(cases.items())),
    }
    BENCH_JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
