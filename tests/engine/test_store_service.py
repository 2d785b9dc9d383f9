"""MiningService + JobStore: restart recovery, retention, dispatch order.

The durable-service contract under test:

- terminal records survive a restart **bit-identically** and are served
  from the store with zero recompute;
- queued/running jobs are re-enqueued in their original submit order;
- warm belief prefixes replay from the on-disk spill (no candidate
  evaluation for replayed iterations);
- terminal records expire by count and by age;
- equal-priority submissions dispatch in arrival order.
"""

import time

import pytest

from repro.engine.service import JobStatus, MiningService
from repro.errors import EngineError
from repro.events import SCHEDULER_EVENT_KINDS, MiningObserver
from repro.persist import job_result_to_dict
from repro.spec import MiningSpec
from repro.store import JobStore

FAST = dict(beam_width=6, max_depth=2, top_k=10)


def _job(seed=0, config=FAST, **kwargs):
    return MiningSpec.build("synthetic", seed=seed, **config, **kwargs)


class _ScheduleLog(MiningObserver):
    """Collects scheduler events (thread-safely appended tuples)."""

    def __init__(self):
        self.events = []

    def on_schedule(self, event):
        self.events.append((event.kind, event.job_id, event.job.label))

    def kinds(self, kind):
        return [e for e in self.events if e[0] == kind]


class TestRestartRecovery:
    def test_terminal_records_served_bit_identically_with_zero_recompute(
        self, tmp_path
    ):
        with MiningService(
            max_workers=2, backend="thread", store=tmp_path
        ) as service:
            ids = [
                service.submit(_job(seed=s, n_iterations=2, kind="spread"))
                for s in range(3)
            ]
            docs = {
                i: job_result_to_dict(service.result(i, 120)) for i in ids
            }

        log = _ScheduleLog()
        with MiningService(
            max_workers=2, backend="thread", store=tmp_path, observer=log
        ) as service:
            for i in ids:
                # Already DONE on open: no queueing, no dispatch.
                assert service.status(i) == JobStatus.DONE
                assert job_result_to_dict(service.result(i, 5)) == docs[i]
            assert log.kinds("dispatched") == []
            assert log.kinds("recovered") == []
            # A resubmission of a recovered spec is a result-cache hit.
            again = service.submit(_job(seed=0, n_iterations=2, kind="spread"))
            assert service.status(again) == JobStatus.DONE
            assert log.kinds("dispatched") == []

    def test_failed_jobs_recover_their_error(self, tmp_path):
        with MiningService(backend="serial", store=tmp_path) as service:
            job_id = service.submit(_job(targets=("not-a-target",)))
            assert service.status(job_id) == JobStatus.FAILED
        with MiningService(backend="serial", store=tmp_path) as service:
            assert service.status(job_id) == JobStatus.FAILED
            with pytest.raises(EngineError):
                service.result(job_id)

    def test_interrupted_jobs_reenqueue_in_submit_order(self, tmp_path):
        import threading

        # Simulate a crash: close the *store* under a live service (its
        # later persistence attempts are swallowed), leaving the records
        # at their last durable states: running / queued.
        running = threading.Event()

        class _Stall(MiningObserver):
            """Keeps the blocker visibly RUNNING across the 'crash'."""

            def on_iteration(self, iteration):
                running.set()
                time.sleep(0.5)

        service = MiningService(max_workers=1, backend="thread", store=tmp_path)
        blocker = service.submit(
            _job(seed=9, n_iterations=4, name="blocker"), observer=_Stall()
        )
        assert running.wait(60)  # the blocker reached RUNNING (persisted)
        queued = [
            service.submit(_job(seed=s, name=f"queued-{s}")) for s in (1, 2, 3)
        ]
        service.store.close()  # "crash": nothing after this persists

        log = _ScheduleLog()
        recovered = MiningService(
            max_workers=1, backend="thread", store=tmp_path, observer=log
        )
        try:
            assert len(log.kinds("recovered")) == 4
            statuses = recovered.wait_all(timeout=180)
            assert statuses[blocker] == JobStatus.DONE
            assert [statuses[i] for i in queued] == [JobStatus.DONE] * 3
            # One worker: dispatch order == recovery order == submit order.
            names = [e[2] for e in log.kinds("dispatched")]
            assert names == ["blocker", "queued-1", "queued-2", "queued-3"]
            assert {e[0] for e in log.events} <= set(SCHEDULER_EVENT_KINDS)
        finally:
            recovered.shutdown()
            service.shutdown(wait=False)

    def test_warm_belief_prefix_replays_from_disk_without_candidates(
        self, tmp_path
    ):
        spec = dict(seed=4, kind="spread", config=FAST)
        with MiningService(
            max_workers=1, backend="thread", store=tmp_path
        ) as service:
            job_id = service.submit(_job(n_iterations=2, **spec))
            first = job_result_to_dict(service.result(job_id, 120))

        class _Trace(MiningObserver):
            def __init__(self):
                self.trace = []

            def on_candidate(self, candidate):
                self.trace.append("candidate")

            def on_iteration(self, iteration):
                self.trace.append(("iteration", iteration.index))

        trace = _Trace()
        with MiningService(
            max_workers=1, backend="thread", store=tmp_path
        ) as service:
            # A *longer* run of the same spec: not a result-cache hit,
            # but its first two iterations replay from the spilled
            # belief prefix — instantly, with zero candidates evaluated.
            job_id = service.submit(
                _job(n_iterations=3, **spec), observer=trace
            )
            extended = job_result_to_dict(service.result(job_id, 120))
        assert trace.trace[0] == ("iteration", 1)
        assert trace.trace[1] == ("iteration", 2)
        assert "candidate" in trace.trace  # iteration 3 was really mined
        # The replayed prefix is bit-identical to the original mine.
        assert extended["iterations"][:2] == first["iterations"]


class TestTerminalExpiry:
    def test_cap_evicts_oldest_terminal_records(self, tmp_path):
        log = _ScheduleLog()
        with MiningService(
            backend="serial",
            store=tmp_path,
            max_terminal_records=1,
            observer=log,
        ) as service:
            ids = [service.submit(_job(seed=s)) for s in range(3)]
            # Pruning runs on scheduling actions; the next submit is one.
            trigger = service.submit(_job(seed=99))
            jobs = service.jobs()
            # The oldest terminal records are gone, the newest survive.
            assert ids[0] not in jobs and ids[1] not in jobs
            assert ids[2] in jobs
            assert len(log.kinds("evicted")) == 2
            assert {e[0] for e in log.events} <= set(SCHEDULER_EVENT_KINDS)
        with JobStore(tmp_path) as store:
            stored = [d["job_id"] for d in store.records()]
            assert ids[2] in stored and trigger in stored
            assert ids[0] not in stored and ids[1] not in stored

    def test_ttl_expires_terminal_records(self, tmp_path):
        with MiningService(
            backend="serial", store=tmp_path, record_ttl_seconds=0.05
        ) as service:
            old = service.submit(_job(seed=0))
            time.sleep(0.1)
            service.submit(_job(seed=1))  # any submit triggers pruning
            assert old not in service.jobs()

    def test_validation(self, tmp_path):
        with pytest.raises(EngineError):
            MiningService(store=tmp_path, record_ttl_seconds=0.0)
        with pytest.raises(EngineError):
            MiningService(store=tmp_path, max_terminal_records=0)


class TestDispatchOrder:
    def test_untenanted_submissions_keep_exact_fifo_behavior(self, tmp_path):
        import threading

        running = threading.Event()
        release = threading.Event()

        class _Gate(MiningObserver):
            def on_iteration(self, iteration):
                running.set()
                release.wait(60)

        log = _ScheduleLog()
        with MiningService(
            max_workers=1, backend="thread", observer=log
        ) as service:
            service.submit(
                _job(seed=9, n_iterations=2, name="blocker"), observer=_Gate()
            )
            assert running.wait(60)
            for s in (1, 2, 3):
                service.submit(_job(seed=s, name=f"plain-{s}"))
            release.set()
            service.wait_all(timeout=180)
        names = [e[2] for e in log.kinds("dispatched")]
        assert names == ["blocker", "plain-1", "plain-2", "plain-3"]
