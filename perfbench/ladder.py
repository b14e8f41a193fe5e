"""The layer ladder: one tiny job pushed through one more layer per step.

Steps, each timed per job from call to counts in hand:

1. ``simulators.statevector`` — ``Backend.run`` on the engine directly;
2. ``runtime.execute_serial`` / ``_thread`` / ``_process`` — ``execute()``
   on each executor kind;
3. ``service`` — an in-process :class:`~repro.service.RuntimeService`;
4. ``service.http`` — the HTTP front-end through a ``ServiceClient``.

The difference between adjacent steps is the self time of the layer the
step adds.  Every step's counts must equal the engine's.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, List, Tuple

from perfbench.metrics import LADDER_STEPS, median
from perfbench.workloads import TOKEN, WAIT_S, rejected_count, tiny_program

SHOTS = 256
SEED = 20200316
WARM = 3


def _time(step: Callable[[], dict], reps: int, expected: dict, errors: List[str],
          name: str) -> float:
    for _ in range(WARM):
        step()
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        counts = step()
        samples.append(time.perf_counter() - start)
        if dict(counts) != expected:
            errors.append(f"ladder step {name}: counts differ from Backend.run")
    return median(samples) * 1e3


async def _service_samples(circuit, reps: int, expected: dict,
                           errors: List[str]) -> Tuple[float, int]:
    from repro.service import RuntimeService
    from repro.service.quota import ClientQuota

    # No journal and no ledger on disk, like the HTTP front-end the next
    # step (and the service workload) runs without a cache directory.
    service = RuntimeService(allow_anonymous=False, journal=False, accounting=False)
    try:
        token = service.register_client(
            "ladder", token="ladder-token", quota=ClientQuota(over_quota="queue")
        )
        samples = []
        for i in range(WARM + reps):
            start = time.perf_counter()
            handle = await service.submit(circuit, "statevector", shots=SHOTS,
                                          seed=SEED, token=token)
            counts = (await handle.counts(timeout=WAIT_S))[0]
            if i >= WARM:
                samples.append(time.perf_counter() - start)
                if dict(counts) != expected:
                    errors.append("ladder step service.job_ms: counts differ from Backend.run")
        return median(samples) * 1e3, rejected_count(service.stats())
    finally:
        await service.close()


def run_ladder(url: str, reps: int) -> Tuple[Dict[str, float], int, List[str]]:
    """Run every step ``reps`` times; return ``({metric: median job_ms},
    rejected submissions, errors)``."""
    from repro.runtime import execute, get_backend
    from repro.service.client import ServiceClient

    circuit = tiny_program(0)
    backend = get_backend("statevector")
    expected = dict(backend.run(circuit, shots=SHOTS, seed=SEED).counts)
    errors: List[str] = []

    def via(executor):
        return lambda: execute(circuit, backend, shots=SHOTS, seed=SEED,
                               executor=executor).counts(timeout=WAIT_S)

    steps = dict(zip(LADDER_STEPS, [
        lambda: backend.run(circuit, shots=SHOTS, seed=SEED).counts,
        via("serial"),
        via("thread"),
        via("process"),
    ]))
    values = {name: _time(step, reps, expected, errors, name) for name, step in steps.items()}
    values["service.job_ms"], rejected = asyncio.run(
        _service_samples(circuit, reps, expected, errors)
    )
    with ServiceClient(url, token=TOKEN, timeout=WAIT_S) as client:
        def over_http():
            job_id = client.submit(circuit, "statevector", shots=SHOTS, seed=SEED)
            return client.counts(job_id, timeout=WAIT_S)[0]

        values["service.http.job_ms"] = _time(over_http, reps, expected, errors,
                                              "service.http.job_ms")
    return values, rejected, errors
