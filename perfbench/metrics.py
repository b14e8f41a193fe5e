"""Metric catalogue and the summary statistics the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` are the metric names (with units) a run
prints with ``--trace 0`` and ``--trace 1`` respectively; the repository
root's ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Sequence

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: name -> unit, measured with benchmark tracing off.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_job": "ms",
    "peak_rss_mb": "MB",
}

#: Ladder steps: the same tiny job pushed through one more layer each time.
LADDER_STEPS = (
    "simulators.statevector.job_ms",
    "runtime.execute_serial.job_ms",
    "runtime.execute_thread.job_ms",
    "runtime.execute_process.job_ms",
    "service.job_ms",
    "service.http.job_ms",
)

#: name -> unit, measured in the traced run.
PER_LAYER: Dict[str, str] = {
    "simulators.stabilizer.busy_s": "s",
    "simulators.density_matrix.busy_s": "s",
    "devices.noise_model.busy_s": "s",
    "devices.noise_model.calls": "count",
    "noise.trajectories.busy_s": "s",
    "runtime.chunks": "count",
    "runtime.chunk_parallelism": "ratio",
    "transpiler.calls": "count",
    "transpiler.busy_s": "s",
    "runtime.transpile_cache.hits": "count",
    "runtime.transpile_cache.misses": "count",
    "runtime.transpile_cache.hit_ratio": "ratio",
    "core.injector.busy_s": "s",
    "core.filtering.busy_s": "s",
    "runtime.execute.self_s": "s",
    "runtime.queue_wait_s": "s",
    **{step: "ms" for step in LADDER_STEPS},
    "service.queue_wait_p50_ms": "ms",
    "circuits.qasm.busy_s": "s",
    "runtime.retries": "count",
    "runtime.pool.rebuilds": "count",
    "service.rejected": "count",
    "bench.trace_overhead_pct": "%",
}

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    """Return whether ``name`` is a legal metric or workload name."""
    return NAME_RE.fullmatch(name) is not None


def median(values: Sequence[float]) -> float:
    """Return the median of a non-empty sequence."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """Return the nearest-rank ``percent``-th percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(count: int, percent: float) -> int:
    """Return how many of ``count`` samples lie above the nearest rank."""
    return count - max(1, math.ceil(percent / 100.0 * count))


def tail_percentile(values: Sequence[float], percent: float = 99.0) -> Optional[float]:
    """Return the ``percent``-th percentile, or ``None`` (withheld) when
    fewer than :data:`MIN_BEYOND` samples lie beyond it."""
    if not values or samples_beyond(len(values), percent) < MIN_BEYOND:
        return None
    return nearest_rank(values, percent)


def metric_block(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, dict]:
    """Shape ``values`` as the result line's ``metrics`` object, checking
    that exactly the catalogue's names are present."""
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing={missing} extra={extra}")
    return {
        name: {"value": float(values[name]), "unit": units[name]} for name in units
    }


def format_lines(values: Dict[str, float], units: Dict[str, str],
                 samples: Dict[str, int]) -> List[str]:
    """Render one ``name = value unit (n=...)`` line per metric."""
    lines = []
    for name, unit in units.items():
        count = samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        lines.append(f"  {name:<36} {values[name]:>14.6g} {unit}{suffix}")
    return lines
