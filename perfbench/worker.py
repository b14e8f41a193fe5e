"""One benchmark interpreter: set a workload up, then measure it.

``run.py`` starts this script in a fresh interpreter per run (and per
set-up sample) with a pinned environment.  Its last stdout line is a JSON
record for ``run.py``; the lines before it are for people.

Set-up time counts from the moment this module starts executing: it
covers the program's imports, backend and registry construction, server
start and the workload's untimed warm-up.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402  (imports are part of the measured set-up)
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import procs  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, median, samples_beyond, tail_percentile  # noqa: E402
from perfbench.workloads import SIZES, WORKLOADS, Server, rejected_count  # noqa: E402

LADDER_REPS = {"full": 30, "tiny": 3}
#: Most untimed rounds run after the timed region to reach ``rss_jobs``.
UNTIMED_ROUNDS = 100


def measure(workload, seconds: float) -> dict:
    """The untraced run: repeat rounds for ``seconds``; end-to-end metrics.

    Throughput and CPU per job are totals over the whole timed region, so
    the host's slow and fast spells average out instead of one of them
    deciding the result.  Peak memory is read once the workload's
    ``rss_jobs`` jobs have finished; on a host too slow to finish them in
    the timed region, untimed rounds follow until they have.
    """
    finished = 0
    peak_rss = None

    def one_round():
        nonlocal finished, peak_rss
        rnd = workload.run_round()
        rnd.jobs = []  # keep only what the checks need, so memory stays flat
        finished += rnd.completed
        if peak_rss is None and finished >= workload.rss_jobs:
            peak_rss = procs.peak_rss_mb()
        return rnd

    cpu_before = procs.cpu_snapshot()
    start = time.perf_counter()
    rounds = []
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(one_round())
    wall_s = time.perf_counter() - start
    cpu_s = procs.cpu_between(cpu_before, procs.cpu_snapshot())
    latencies = [lat for rnd in rounds for lat in rnd.latencies]
    # A round's jobs finish at staggered points, one cluster per place in
    # the batch; the median over all jobs would sit on the edge between two
    # clusters.  The median over rounds of each round's median does not.
    round_p50s = [median(rnd.latencies) for rnd in rounds if rnd.latencies]
    completed = sum(rnd.completed for rnd in rounds)
    untimed = []
    while completed and peak_rss is None and len(untimed) < UNTIMED_ROUNDS:
        untimed.append(one_round())
    record = _accounting(workload, rounds + untimed)
    if not completed:
        record["problems"].append("no job completed in the timed region")
        return record
    if peak_rss is None:
        record["problems"].append(f"fewer than {workload.rss_jobs} jobs finished")
        return record
    record["metrics"] = {
        "jobs_per_s": completed / wall_s,
        "latency_p50_ms": median(round_p50s) * 1e3,
        "cpu_ms_per_job": cpu_s * 1e3 / completed,
        "peak_rss_mb": peak_rss,
    }
    record["samples"] = {
        "jobs_per_s": completed,
        "latency_p50_ms": len(round_p50s),
        "cpu_ms_per_job": completed,
    }
    p99 = tail_percentile(latencies)
    beyond = samples_beyond(len(latencies), 99.0)
    record["notes"].append(
        f"latency_p99_ms = {p99 * 1e3:.4f} ms (n={len(latencies)}, {beyond} beyond)"
        if p99 is not None else
        f"latency_p99_ms withheld: n={len(latencies)} leaves {beyond} samples beyond p99"
    )
    return record


def _accounting(workload, rounds) -> dict:
    attempted = sum(rnd.attempted for rnd in rounds)
    failed = sum(rnd.failed for rnd in rounds)
    errors = [err for rnd in rounds for err in rnd.errors]
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": workload.check(rounds),
        "errors": errors[:20],
        "notes": [f"failed_share = {failed / attempted if attempted else 1.0:.6g} "
                  f"({failed} of {attempted} jobs)"],
        "metrics": {},
        "samples": {},
    }


def _whole_round(workload):
    """Run one round, timing all of it (backend construction and analysis
    too, not just the execute() batch)."""
    start = time.perf_counter()
    rnd = workload.run_round()
    rnd.wall_s = time.perf_counter() - start
    return rnd


def measure_traced(workload, size: str) -> dict:
    """The traced run: rounds alternate untraced and traced (layer spans
    on); then a layer probe and the ladder.  Per-layer metrics cover the
    traced rounds plus the probe; the overhead compares the two kinds."""
    from perfbench.ladder import run_ladder
    from perfbench.spans import Tracer, TreeSplit, probe_layers
    from repro.runtime import pool_stats, transpile_cache_stats

    # Untraced and traced rounds alternate, so warming up favours neither.
    tracer = Tracer()
    untraced, traced = [], []
    for _ in range(workload.traced_rounds):
        untraced.append(_whole_round(workload))
        with tracer:
            traced.append(_whole_round(workload))
    with tracer:
        probe_layers()
    trees = [job.trace() for rnd in traced for job in rnd.jobs]
    splits = [TreeSplit(tree) for tree in trees if tree]
    traced_wall = sum(rnd.wall_s for rnd in traced)
    untraced_wall = sum(rnd.wall_s for rnd in untraced)

    server = Server()
    try:
        ladder, ladder_rejected, ladder_errors = run_ladder(server.url, LADDER_REPS[size])
        stats = server.stats()
    finally:
        server.stop()

    cache = transpile_cache_stats()
    lookups = cache["hits"] + cache["misses"]
    queue_p50 = stats["queue_latency"]["p50_s"]
    values = {
        "simulators.stabilizer.busy_s": tracer.busy_s("simulators.stabilizer")
        + sum(s.process_engine_s.get("StabilizerBackend", 0.0) for s in splits),
        "simulators.density_matrix.busy_s": tracer.busy_s("simulators.density_matrix"),
        "devices.noise_model.busy_s": tracer.busy_s("devices.noise_model"),
        "devices.noise_model.calls": tracer.calls("devices.noise_model"),
        "noise.trajectories.busy_s": tracer.busy_s("noise.trajectories"),
        "runtime.chunks": sum(s.chunks for s in splits),
        "runtime.chunk_parallelism": sum(s.engine_s for s in splits) / traced_wall,
        "transpiler.calls": tracer.calls("transpiler"),
        "transpiler.busy_s": tracer.busy_s("transpiler"),
        "runtime.transpile_cache.hits": cache["hits"],
        "runtime.transpile_cache.misses": cache["misses"],
        "runtime.transpile_cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "core.injector.busy_s": tracer.busy_s("core.injector"),
        "core.filtering.busy_s": tracer.busy_s("core.filtering"),
        "runtime.execute.self_s": sum(s.self_s for s in splits),
        "runtime.queue_wait_s": sum(s.queue_wait_s for s in splits),
        **ladder,
        "service.queue_wait_p50_ms": (queue_p50 or 0.0) * 1e3,
        "circuits.qasm.busy_s": tracer.busy_s("circuits.qasm"),
        "runtime.retries": sum(job.retries for rnd in traced for job in rnd.jobs),
        "runtime.pool.rebuilds": pool_stats()["rebuilds"],
        "service.rejected": rejected_count(stats) + ladder_rejected,
        "bench.trace_overhead_pct": (traced_wall / untraced_wall - 1.0) * 100.0,
    }
    record = _accounting(workload, untraced + traced)
    record["problems"] += ladder_errors
    record["metrics"] = values
    record["samples"] = {
        **{step: LADDER_REPS[size] for step in ladder},
        "runtime.execute.self_s": len(splits),
        "runtime.queue_wait_s": len(splits),
        "service.queue_wait_p50_ms": stats["queue_latency"]["window_count"],
    }
    record["notes"].append(
        f"traced pass {traced_wall:.4f} s vs untraced {untraced_wall:.4f} s "
        f"({workload.traced_rounds} round(s) each); {len(tracer.spans)} spans recorded"
    )
    return record


def run(workload_name: str, seed: int, seconds: float, trace: bool, mode: str = "run",
        size: str = "full", corrupt_reference: bool = False) -> dict:
    """Set a workload up and measure it; return the record ``main`` prints."""
    workload = WORKLOADS[workload_name](seed, size)
    workload.setup()
    setup_s = time.perf_counter() - _STARTED
    if mode == "setup":
        return {"setup_s": setup_s}
    workload.build_reference()
    workload.corrupt = corrupt_reference
    record = measure_traced(workload, size) if trace else measure(workload, seconds)
    if not trace and "jobs_per_s" in record["metrics"]:
        record["metrics"]["setup_s"] = setup_s
    expected = PER_LAYER if trace else END_TO_END
    record["complete"] = set(record["metrics"]) == set(expected)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: damage one reference so the run must fail")
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.mode,
                 args.size, args.corrupt_reference)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
