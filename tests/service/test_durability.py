"""Restart-recovery tests with real killed interpreters.

The in-process recovery suite (``test_journal.py``) exercises recovery
mechanics; this file proves the actual durability claim: a service whose
*process dies* — including mid-flight, via ``os._exit`` with a job
journaled but unsettled — comes back in a fresh interpreter over the
same ``$REPRO_CACHE_DIR`` and

* answers ``status()``/``result()``/``counts()`` for pre-restart
  ``svc-N`` ids with bit-identical counts,
* re-runs the unsettled job exactly once, and
* still honours the pre-restart bearer token (hashed records persist).

A crash *mid-journal-write* is simulated by truncating entry files: the
store's digest check must turn the torn record into a miss, never a
crash (corruption-is-a-miss, inherited from PR 3).

The drivers run through :func:`repro.runtime.harness.run_driver_process`
— the same subprocess contract the persistence sweeps use.
"""

import hashlib

import pytest

from repro.circuits import library
from repro.runtime import execute
from repro.runtime.harness import run_driver_process
from repro.service import JobJournal

#: Both executors the scheduler can fan out over; the service must be
#: restart-durable regardless of which ran the pre-crash jobs.
EXECUTORS = ("thread", "process")

#: Life 1: serve two seeded jobs to completion, journal a third, then die
#: without yielding to the event loop — deterministically unsettled.
_FIRST_LIFE = """
import asyncio, json, os, sys
from repro.circuits import library
from repro.service import RuntimeService

spec = json.loads(sys.argv[1])

def bell():
    c = library.bell_pair()
    c.measure_all()
    return c

def ghz():
    c = library.ghz_state(3)
    c.measure_all()
    return c

async def main():
    service = RuntimeService(executor=spec["executor"])
    token = service.register_client("alice", token="alice-token", weight=2)
    first = await service.submit(bell(), "statevector", shots=512, seed=11,
                                 token=token)
    second = await service.submit(ghz(), "noisy:ibmqx4", shots=256, seed=7,
                                  token=token)
    report = {
        "first": {"id": first.job_id,
                  "counts": [dict(sorted(c.items()))
                             for c in await first.counts()]},
        "second": {"id": second.job_id,
                   "counts": [dict(sorted(c.items()))
                              for c in await second.counts()]},
    }
    # Settlement journaling runs off-loop; wait until both records are
    # settled ON DISK (a fresh journal over the same dir sees them), so
    # the kill below deterministically tears off only the third job.
    # Bounded: a wedged settlement should fail loudly, not hang the
    # harness until its timeout.
    from repro.service import JobJournal
    deadline = asyncio.get_running_loop().time() + 120.0
    while True:
        durable = JobJournal(cache_dir=os.environ["REPRO_CACHE_DIR"])
        one, two = durable.record(1), durable.record(2)
        if one and two and one["settled"] and two["settled"]:
            break
        if asyncio.get_running_loop().time() > deadline:
            raise RuntimeError(f"settlements never landed on disk: {one} {two}")
        await asyncio.sleep(0.01)
    third = await service.submit(bell(), "statevector", shots=128, seed=3,
                                 token=token)
    report["third"] = {"id": third.job_id}
    print(json.dumps(report))
    sys.stdout.flush()
    # Die without ever yielding to the loop again: the settle machinery
    # (loop callbacks -> journal settlement) can never run, so the third
    # job stays journaled-but-unsettled no matter what the executor did
    # with it.  Worker processes are reaped first purely so they do not
    # inherit our stdout pipe and wedge the harness waiting on EOF.
    from repro.runtime.pool import shutdown_executors
    shutdown_executors(wait=True)
    os._exit(0)

asyncio.run(main())
"""

#: Life 2: recover in a fresh interpreter and serve the pre-restart ids.
_SECOND_LIFE = """
import asyncio, json, sys
from repro.service import RuntimeService

spec = json.loads(sys.argv[1])

async def main():
    service = RuntimeService(executor=spec["executor"])
    summary = await service.recover()
    report = {"summary": summary, "jobs": {}}
    for job_id in spec["job_ids"]:
        handle = service.job(job_id, token=spec.get("token"))
        await handle.wait()
        report["jobs"][job_id] = {
            "status": service.status(job_id, token=spec.get("token")),
            "type": type(handle).__name__,
            "counts": [dict(sorted(c.items()))
                       for c in await handle.counts()],
        }
    report["second_recover"] = await service.recover()
    await service.close()
    print(json.dumps(report))

asyncio.run(main())
"""


@pytest.mark.parametrize("executor", EXECUTORS)
def test_killed_service_recovers_bit_identically(tmp_path, executor):
    spec = {"executor": executor}
    first_life, _ = run_driver_process(_FIRST_LIFE, spec, cache_dir=tmp_path)
    ids = [first_life["first"]["id"], first_life["second"]["id"],
           first_life["third"]["id"]]
    assert ids == ["svc-1", "svc-2", "svc-3"]

    second_life, _ = run_driver_process(
        _SECOND_LIFE,
        {"executor": executor, "job_ids": ids, "token": "alice-token"},
        cache_dir=tmp_path,
    )
    # Two settled jobs restored, the torn-off third re-run exactly once.
    assert second_life["summary"] == {
        "restored": 2, "resubmitted": 1, "skipped": 0,
    }
    assert second_life["second_recover"] == {
        "restored": 0, "resubmitted": 0, "skipped": 3,
    }
    jobs = second_life["jobs"]
    for key in ("first", "second"):
        pre = first_life[key]
        post = jobs[pre["id"]]
        assert post["type"] == "RecoveredJob"
        assert post["status"] == "done"
        assert post["counts"] == pre["counts"]  # bit-identical
    # The recovered third job ran for real, deterministically: its counts
    # must match a local reference run of the same workload.
    bell = library.bell_pair()
    bell.measure_all()
    reference = [
        dict(sorted(r.counts.items()))
        for r in execute([bell], "statevector", shots=128, seed=3).result()
    ]
    third = jobs[first_life["third"]["id"]]
    assert third["type"] == "ServiceJob"
    assert third["status"] == "done"
    assert third["counts"] == reference


def test_crash_mid_journal_write_is_a_miss_not_a_crash(tmp_path):
    first_life, _ = run_driver_process(
        _FIRST_LIFE, {"executor": "thread"}, cache_dir=tmp_path
    )
    journal_dir = tmp_path / "service" / "journal"
    entries = sorted(journal_dir.glob("*.entry"))
    assert len(entries) == 3
    # Simulate the crash landing mid-write: tear every record short.
    # (Atomic rename makes this nearly impossible for the real store, but
    # a dying disk or copied-around cache dir can still produce it.)
    for entry in entries:
        entry.write_bytes(entry.read_bytes()[:37])

    # Loading must not raise, and every torn record is simply gone.
    journal = JobJournal(cache_dir=str(tmp_path))
    assert len(journal) == 0
    assert journal.next_id() == 1

    second_life, _ = run_driver_process(
        _SECOND_LIFE,
        {"executor": "thread", "job_ids": [], "token": "alice-token"},
        cache_dir=tmp_path,
    )
    assert second_life["summary"] == {
        "restored": 0, "resubmitted": 0, "skipped": 0,
    }


def test_single_torn_record_spares_the_rest(tmp_path):
    first_life, _ = run_driver_process(
        _FIRST_LIFE, {"executor": "thread"}, cache_dir=tmp_path
    )
    journal_dir = tmp_path / "service" / "journal"
    before = JobJournal(cache_dir=str(tmp_path))
    assert len(before) == 3
    # Tear exactly the settled first job's record.
    victim_key = ("job", 1)
    digest = hashlib.sha256(repr(victim_key).encode()).hexdigest()[:48]
    victim = journal_dir / f"{digest}.entry"
    assert victim.exists()
    victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])

    journal = JobJournal(cache_dir=str(tmp_path))
    assert len(journal) == 2  # the miss, not a crash
    assert journal.record(1) is None
    assert journal.record(2) is not None
    # Ids never collide with the survivors.
    assert journal.next_id() == 4

    # Recovery over the remaining records still works end to end.
    second_life, _ = run_driver_process(
        _SECOND_LIFE,
        {"executor": "thread", "job_ids": [first_life["second"]["id"]],
         "token": "alice-token"},
        cache_dir=tmp_path,
    )
    assert second_life["summary"]["restored"] == 1
    assert second_life["summary"]["resubmitted"] == 1
    assert (
        second_life["jobs"][first_life["second"]["id"]]["counts"]
        == first_life["second"]["counts"]
    )


#: Life 1 of the status test: a job whose backend raises settles, and the
#: live handle reports the outcome the journal records.
_FAILING_LIFE = """
import asyncio, json
from repro.circuits import library
from repro.devices.backend import Backend
from repro.service import RuntimeService

class FailingBackend(Backend):
    name = "faulty"

    def run(self, circuit, shots=1024, seed=None):
        raise RuntimeError("hardware on fire")

async def main():
    service = RuntimeService(executor="thread")
    circuit = library.bell_pair()
    circuit.measure_all()
    handle = await service.submit(circuit, FailingBackend(), shots=16)
    await handle.wait(timeout=60)
    client = service.stats()["clients"][handle.client]
    report = {"id": handle.job_id, "status": handle.status(),
              "failed_batches": client["failed_batches"]}
    await service.drain()
    await service.close()
    print(json.dumps(report))

asyncio.run(main())
"""

_STATUS_AFTER_RESTART = """
import asyncio, json, sys
from repro.service import RuntimeService

async def main():
    service = RuntimeService(executor="thread")
    await service.recover()
    status = service.status(json.loads(sys.argv[1])["id"])
    await service.close()
    print(json.dumps({"status": status}))

asyncio.run(main())
"""


def test_failed_job_status_survives_restart_unchanged(tmp_path):
    """One outcome per job: the live handle, the service's counters and
    the recovered record all call a job whose backend raised "failed"."""
    live, _ = run_driver_process(_FAILING_LIFE, cache_dir=tmp_path)
    recovered, _ = run_driver_process(
        _STATUS_AFTER_RESTART, {"id": live["id"]}, cache_dir=tmp_path
    )
    assert live["failed_batches"] == 1
    assert live["status"] == recovered["status"] == "failed"
