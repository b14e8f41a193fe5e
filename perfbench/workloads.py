"""The benchmark's workloads: seeded inputs, set-up, one round of work,
references and output checks.

Every workload draws its inputs (noise scales, circuit choice, job seeds)
from ``random.Random(seed)`` in :meth:`Workload.__init__`, before the
program is imported; the program only ever sees the generated inputs.  A
*round* is one unit of user work (one sweep, one shot batch); the timed
region repeats rounds over the same inputs, so references are computed
once, untimed.
"""

from __future__ import annotations

import os
import random
import select
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

#: Tenant the benchmark registers on the HTTP front-end (admin for /v1/stats).
CLIENT = "bench"
TOKEN = "perfbench-token"

#: Upper bound on any single wait for the program (job, server start).
WAIT_S = 120.0

#: Input sizes: ``full`` is the benchmark, ``tiny`` keeps self-tests fast.
SIZES = {
    "full": {"scales": 12},
    "tiny": {"scales": 2},
}

#: Table 1/2 and §4.3 qubit placements (virtual -> physical), as the paper pins them.
LAYOUTS = {"table1": [1, 2], "table2": [1, 2, 0], "sec43": [1, 0]}


class Round:
    """Outcome of one round: timings, failures and the outputs to check."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.jobs: list = []            # runtime Job handles (in-process rounds)
        self.outputs: List[Tuple[object, dict]] = []  # (reference key, counts)
        self.invariants: List[str] = []  # violated paper invariants
        self.errors: List[str] = []      # failure messages

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


class Workload:
    """Base class: subclasses fill in inputs, set-up, rounds and references."""

    name = ""
    #: Peak memory is read once this many jobs of the timed region have
    #: finished, so it does not depend on how many the host had time for.
    rss_jobs = 1

    def __init__(self, seed: int, size: str = "full") -> None:
        self.rng = random.Random(seed)
        self.size = SIZES[size]
        self.reference: Dict[object, dict] = {}
        #: Self-test hook: when set, the first reference checked is damaged.
        self.corrupt = False

    def setup(self) -> None:
        raise NotImplementedError

    def build_reference(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def reference_for(self, key) -> dict:
        return self.reference[key]

    def check(self, rounds: List[Round]) -> List[str]:
        """Return every mismatch against the reference and every violated
        invariant; an empty list means the outputs are correct."""
        problems = []
        for rnd in rounds:
            problems.extend(rnd.invariants)
            for key, counts in rnd.outputs:
                expected = self.reference_for(key)
                if self.corrupt:  # self-test hook: damage one reference
                    expected[sorted(expected)[0]] += 1
                    self.corrupt = False
                if dict(counts) != expected:
                    problems.append(f"{self.name}: counts for {key!r} differ from the reference")
        return problems


# ----------------------------------------------------------------------
# Batch workloads (in-process execute())
# ----------------------------------------------------------------------


def run_batch(circuits, backends, shots, seeds, keys, **options) -> Round:
    """Submit one ``execute()`` batch and collect it job by job.

    Jobs are collected in submission order with blocking ``counts()``
    calls, as ``run_noise_sweep`` and ``run_scaling`` do.  (Streaming with
    ``as_completed`` polls with a backoff of up to 50 ms, which would add
    that much jitter to every round.)  Latency is per job, from the
    ``execute()`` call to the job's counts in hand.  A job that raises or
    is not done within :data:`WAIT_S` of the call counts as failed.
    """
    from repro.runtime import execute

    rnd = Round()
    start = time.perf_counter()
    deadline = time.monotonic() + WAIT_S
    jobs = execute(circuits, backends, shots=shots, seed=seeds, **options)
    counts: List[Optional[dict]] = [None] * len(jobs)
    rnd.attempted = len(jobs)
    for i, job in enumerate(jobs):
        try:
            counts[i] = job.counts(timeout=max(0.0, deadline - time.monotonic()))
        except Exception as exc:  # a failed job is accounted, not fatal
            rnd.failed += 1
            rnd.errors.append(f"job {i}: {type(exc).__name__}: {exc}")
            continue
        rnd.latencies.append(time.perf_counter() - start)
    rnd.wall_s = time.perf_counter() - start
    rnd.jobs = list(jobs)
    rnd.outputs = [(key, c) for key, c in zip(keys, counts) if c is not None]
    return rnd


class PaperTables(Workload):
    """Table 1, Table 2 and §4.3 circuits swept over seeded noise scales."""

    name = "paper_tables"
    shots = 8192
    kinds = ("table1", "table2", "sec43")
    traced_rounds = 3

    def __init__(self, seed: int, size: str = "full") -> None:
        super().__init__(seed, size)
        count = self.size["scales"]
        # One scale per stratum of log2(scale) in [-2, 2): every seed sweeps
        # 0.25x..4x nominal noise, at different points.
        self.points = []
        for i in range(count):
            scale = 2.0 ** (-2.0 + 4.0 * (i + self.rng.random()) / count)
            for kind in self.kinds:
                self.points.append((kind, scale, self.rng.randrange(1, 2**31)))
        self.rss_jobs = 3 * len(self.points)  # three sweeps

    def setup(self) -> None:
        from repro.runtime import get_backend

        get_backend("noisy:ibmqx4")  # provider registry
        self.run_round()  # warm-up: pools, transpile cache, lazy imports

    def _circuits(self):
        from repro.experiments.sec43 import build_sec43_circuit
        from repro.experiments.table1 import build_table1_circuit
        from repro.experiments.table2 import build_table2_circuit

        return {
            "table1": build_table1_circuit(),
            "table2": build_table2_circuit(),
            "sec43": build_sec43_circuit(),
        }

    def run_round(self) -> Round:
        from repro.core.filtering import evaluate_assertions
        from repro.devices.backend import NoisyDeviceBackend
        from repro.devices.ibmqx4 import ibmqx4
        from repro.experiments.table1 import analyze_table1, table1_backend
        from repro.experiments.table2 import analyze_table2, table2_backend
        from repro.transpiler.layout import Layout

        device = ibmqx4()
        built = self._circuits()
        backends = []
        for kind, scale, _seed in self.points:
            if kind == "table1":
                backends.append(table1_backend(device, scale))
            elif kind == "table2":
                backends.append(table2_backend(device, scale))
            else:
                layout = Layout(LAYOUTS["sec43"], device.num_qubits)
                backends.append(NoisyDeviceBackend(device, noise_scale=scale, layout=layout))
        rnd = run_batch(
            [built[kind][0] for kind, _, _ in self.points],
            backends,
            self.shots,
            [seed for _, _, seed in self.points],
            self.points,
        )
        for (kind, scale, seed), counts in rnd.outputs:
            evaluate_assertions(counts, built[kind][1].records)
            if kind == "sec43":
                continue
            analyze = analyze_table1 if kind == "table1" else analyze_table2
            report = analyze(counts, self.shots)
            if not report.filtered_error < report.raw_error:
                rnd.invariants.append(
                    f"{kind} at scale {scale:.3f}: filtered error "
                    f"{report.filtered_error:.4f} is not below raw {report.raw_error:.4f}"
                )
        return rnd

    def build_reference(self) -> None:
        from repro.devices.backend import NoisyDeviceBackend
        from repro.devices.ibmqx4 import ibmqx4
        from repro.transpiler.layout import Layout

        device = ibmqx4()
        built = self._circuits()
        for point in self.points:
            kind, scale, seed = point
            backend = NoisyDeviceBackend(
                device, noise_scale=scale, cache=False,
                layout=Layout(LAYOUTS[kind], device.num_qubits),
            )
            self.reference[point] = dict(backend.run(built[kind][0], shots=self.shots, seed=seed).counts)


class TrajectoryShots(Workload):
    """Table 1/2 circuits on the trajectory engine at 8192 shots, chunked
    by the adaptive scheduler's cost model."""

    name = "trajectory_shots"
    shots = 8192
    traced_rounds = 3

    def __init__(self, seed: int, size: str = "full") -> None:
        super().__init__(seed, size)
        self.inputs = [(kind, self.rng.randrange(1, 2**31)) for kind in ("table1", "table2")]
        self.rss_jobs = 4 * len(self.inputs)  # four rounds
        self.warm_seeds = [self.rng.randrange(1, 2**31) for _ in range(2)]

    def setup(self) -> None:
        from repro.experiments.table1 import build_table1_circuit
        from repro.experiments.table2 import build_table2_circuit
        from repro.runtime import execute, get_backend

        self.backend = get_backend("trajectory:ibmqx4")
        self.circuits = {"table1": build_table1_circuit()[0], "table2": build_table2_circuit()[0]}
        # Warm-up: one job per circuit teaches the cost model both shapes.
        execute([self.circuits["table1"], self.circuits["table2"]], self.backend,
                shots=self.shots, seed=self.warm_seeds,
                chunk_shots="auto").result(timeout=WAIT_S)

    def run_round(self) -> Round:
        rnd = run_batch(
            [self.circuits[kind] for kind, _ in self.inputs],
            self.backend,
            self.shots,
            [seed for _, seed in self.inputs],
            self.inputs,
            chunk_shots="auto",
        )
        # The chunk plan (decided by the cost model) fixes the counts, so
        # it is part of the reference key.
        plans = {key: tuple(job.chunk_plan()) for key, job in zip(self.inputs, rnd.jobs)}
        rnd.outputs = [((key, plans[key]), counts) for key, counts in rnd.outputs]
        return rnd

    def build_reference(self) -> None:
        from repro.devices.backend import TrajectoryDeviceBackend
        from repro.devices.ibmqx4 import ibmqx4

        # References depend on the chunk plan, so they are computed on
        # demand (untimed, after the timed region) by reference_for().
        self._reference_backend = TrajectoryDeviceBackend(ibmqx4(), cache=False)

    def reference_for(self, key) -> dict:
        if key not in self.reference:
            (kind, _seed), plan = key
            total: Dict[str, int] = {}
            for shots, seed in plan:
                result = self._reference_backend.run(self.circuits[kind], shots=shots, seed=seed)
                for outcome, count in result.counts.items():
                    total[outcome] = total.get(outcome, 0) + count
            self.reference[key] = total
        return self.reference[key]


# ----------------------------------------------------------------------
# The HTTP front-end (the traced run's ladder ends on it)
# ----------------------------------------------------------------------


class Server:
    """``python -m repro.experiments --serve`` in a child process.

    The server runs without a cache directory: it keeps its journal,
    ledger and caches in memory, persists nothing a later run could read,
    and each job costs what the service itself costs rather than two file
    writes.  Its stderr goes to a temporary file, shown only if it fails
    to start: stopping it with SIGINT makes asyncio report the cancelled
    keep-alive handlers, which is noise for a benchmark run.
    """

    def __init__(self) -> None:
        self.log = tempfile.TemporaryFile(mode="w+", dir=os.environ.get("REPRO_CACHE_DIR"))
        env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "--serve", "127.0.0.1:0",
             "--serve-client", f"{CLIENT}:{TOKEN}:submit+read+admin"],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=self.log, text=True,
            env=env,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], WAIT_S)
        line = self.process.stdout.readline() if ready else ""
        if "serving" not in line:
            self.stop()
            self.log.seek(0)
            raise RuntimeError(f"server did not start (said {line!r}): {self.log.read()}")
        self.url = line.split()[-1]

    def stats(self) -> dict:
        from repro.service.client import ServiceClient

        with ServiceClient(self.url, token=TOKEN, timeout=WAIT_S) as client:
            return client.stats()

    def stop(self) -> None:
        """Interrupt the server (it closes its service) and reap it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


def rejected_count(stats: dict) -> int:
    """Submissions a service refused: auth, quota, rate and overload."""
    total = int(stats.get("rejected_auth", 0))
    for client in stats.get("clients", {}).values():
        total += sum(int(client.get(f, 0)) for f in
                     ("rejected_quota", "rejected_rate", "rejected_overload"))
    return total


def tiny_program(variant: int):
    """A 2-qubit program instrumented with assertions (three variants)."""
    from repro.circuits import QuantumCircuit
    from repro.core.injector import AssertionInjector

    program = QuantumCircuit(2, name=f"tiny{variant}")
    if variant == 0:
        program.h(0)
        program.cx(0, 1)
        injector = AssertionInjector(program)
        injector.assert_entangled([0, 1])
    elif variant == 1:
        program.h(0)
        injector = AssertionInjector(program)
        injector.assert_superposition(0)
        injector.assert_classical(1, 0)
    else:
        program.x(1)
        program.h(0)
        injector = AssertionInjector(program)
        injector.assert_classical(1, 1)
    injector.measure_program()
    return injector.circuit


WORKLOADS = {cls.name: cls for cls in (PaperTables, TrajectoryShots)}

