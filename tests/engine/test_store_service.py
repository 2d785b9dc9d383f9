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

import json
import time

import pytest

from repro.engine.service import JobStatus, MiningService
from repro.errors import EngineError
from repro.events import SCHEDULER_EVENT_KINDS, MiningObserver
from repro.obs.instruments import METRICS, STORE_RECORDS, STORE_RECORDS_SKIPPED
from repro.persist import job_result_to_dict
from repro.spec import MiningSpec
from repro.store import JobStore

FAST = dict(beam_width=6, max_depth=2, top_k=10)


def _job(seed=0, config=FAST, **kwargs):
    return MiningSpec.build("synthetic", seed=seed, **config, **kwargs)


def _set_aside(root):
    """The ids of the record files under ``records/unreadable/``."""
    return sorted(path.stem for path in (root / "records" / "unreadable").glob("*.json"))


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

    def test_serial_backend_runs_a_recovered_running_record(self, tmp_path):
        """A crash mid-run leaves a record ``running``. The serial backend
        has no pool to dispatch it to: it runs the record inline before
        the constructor returns, to the bits of a fresh mine."""
        from repro.engine.jobs import run_job

        spec = _job(seed=3, n_iterations=2, kind="spread")
        with MiningService(backend="serial", store=tmp_path) as service:
            job_id = service.submit(spec)
            service.result(job_id, 120)
        with JobStore(tmp_path) as store:
            (record,) = store.records()
            store.put(dict(record, state="running", result=None))

        log = _ScheduleLog()
        with MiningService(backend="serial", store=tmp_path, observer=log) as service:
            assert service.status(job_id) == JobStatus.DONE
            result = service.result(job_id, 3)
        fresh = job_result_to_dict(run_job(spec))
        assert job_result_to_dict(result)["iterations"] == fresh["iterations"]
        assert [event[0] for event in log.events] == ["recovered", "dispatched"]
        assert {event[0] for event in log.events} <= set(SCHEDULER_EVENT_KINDS)
        with JobStore(tmp_path) as store:
            (record,) = store.records()
        assert record["state"] == "done"

    def test_a_record_that_no_longer_decodes_keeps_its_id(self, tmp_path):
        """A stored spec the spec rules now refuse (sparsity 3 was accepted
        once) is skipped on restart; its id is not handed to a new job, and
        its file is kept under ``records/unreadable/``."""
        with MiningService(backend="serial", store=tmp_path) as service:
            kept = service.submit(_job(seed=1))
            refused = service.submit(_job(seed=2))
        with JobStore(tmp_path) as store:
            record = store.get(refused)
            store.put(dict(record, job=dict(record["job"], sparsity=3)))

        with MiningService(backend="serial", store=tmp_path) as service:
            assert service.status(kept) == JobStatus.DONE
            with pytest.raises(EngineError, match="unknown job id"):
                service.status(refused)
            assert service.submit(_job(seed=3)) not in (kept, refused)
        with JobStore(tmp_path) as store:
            assert store.get(refused) is None
        assert _set_aside(tmp_path) == [refused]
        moved = json.loads((tmp_path / "records" / "unreadable" / f"{refused}.json").read_text())
        assert moved["job"]["sparsity"] == 3

    def test_an_unreadable_record_is_set_aside_once_and_its_id_stays_reserved(
        self, tmp_path
    ):
        """Reopened twice: the first restart counts the record that no
        longer decodes (a spec, or a done result) and moves it into
        ``records/unreadable/``; the second neither reads nor counts it,
        and still gives neither id to a new job."""
        with MiningService(backend="serial", store=tmp_path) as service:
            kept = service.submit(_job(seed=1))
            bad_spec = service.submit(_job(seed=2))
            bad_result = service.submit(_job(seed=3))
        with JobStore(tmp_path) as store:
            record = store.get(bad_spec)
            store.put(dict(record, job=dict(record["job"], sparsity=3)))
            record = store.get(bad_result)
            store.put(dict(record, result={"not": "a result"}))

        issued = []
        for restart, skipped in ((1, 2), (2, 0)):
            before = STORE_RECORDS_SKIPPED.value
            with MiningService(backend="serial", store=tmp_path) as service:
                assert STORE_RECORDS_SKIPPED.value - before == skipped, restart
                assert service.status(kept) == JobStatus.DONE
                for job_id in (bad_spec, bad_result):
                    with pytest.raises(EngineError, match="unknown job id"):
                        service.status(job_id)
                METRICS.render()  # refreshes the store gauge
                assert STORE_RECORDS.value == restart  # kept, and the jobs issued
                issued.append(service.submit(_job(seed=3 + restart)))
            with JobStore(tmp_path) as store:
                assert len(store) == 1 + restart
            assert _set_aside(tmp_path) == sorted([bad_spec, bad_result])
        assert issued == ["job-0004", "job-0005"]

    def test_a_record_file_that_is_not_json_is_counted_and_set_aside(
        self, tmp_path
    ):
        """A record file that does not parse is counted as skipped and
        moved, byte for byte, into ``records/unreadable/``; its id stays
        reserved, and a second restart neither reads nor counts it."""
        with MiningService(backend="serial", store=tmp_path) as service:
            kept = [service.submit(_job(seed=seed)) for seed in (1, 2)]
        path = tmp_path / "records" / "job-0003.json"
        path.write_bytes(b"{not json")

        before = STORE_RECORDS_SKIPPED.value
        with MiningService(backend="serial", store=tmp_path) as service:
            assert STORE_RECORDS_SKIPPED.value - before == 1
            METRICS.render()  # refreshes the store gauge
            assert STORE_RECORDS.value == 2
            assert [service.status(i) for i in kept] == [JobStatus.DONE] * 2
            assert service.submit(_job(seed=3)) == "job-0004"
        assert not path.exists()
        assert _set_aside(tmp_path) == ["job-0003"]
        moved = tmp_path / "records" / "unreadable" / "job-0003.json"
        assert moved.read_bytes() == b"{not json"

        before = STORE_RECORDS_SKIPPED.value
        with MiningService(backend="serial", store=tmp_path) as service:
            assert STORE_RECORDS_SKIPPED.value == before
            assert service.submit(_job(seed=4)) == "job-0005"
        assert moved.read_bytes() == b"{not json"

    @staticmethod
    def _crash_with_a_running_blocker(tmp_path):
        """A live service whose store is closed under it (its later
        persistence attempts are swallowed), leaving the records at their
        last durable states: the blocker running, three jobs queued behind
        it. Returns the service, the blocker's id and the queued ids."""
        import threading

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
        return service, blocker, queued

    def test_interrupted_jobs_reenqueue_in_submit_order(self, tmp_path):
        service, blocker, queued = self._crash_with_a_running_blocker(tmp_path)
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

    def test_recovered_dispatches_leave_in_decision_order(
        self, tmp_path, monkeypatch
    ):
        """The restart holds its first ``recovered`` event open. The
        recovered blocker, dispatched in that same decision, does not run
        until its ``dispatched`` event has left the service, so that
        event leaves before ``queued-1``'s, which was decided after it."""
        import threading

        from repro.engine import service as service_module

        service, blocker, queued = self._crash_with_a_running_blocker(tmp_path)
        blocker_ran = threading.Event()
        run = service_module.run_job_with_workers

        def run_and_signal(job, **kwargs):
            try:
                return run(job, **kwargs)
            finally:
                if job.label == "blocker":
                    blocker_ran.set()

        monkeypatch.setattr(service_module, "run_job_with_workers", run_and_signal)

        class _SlowFirstRecovered(_ScheduleLog):
            ran_while_held = None

            def on_schedule(self, event):
                if event.kind == "recovered" and not self.events:
                    # Were the blocker free to run now, it would replay
                    # from the spill, settle and dispatch on in this time.
                    self.ran_while_held = blocker_ran.wait(1.0)
                super().on_schedule(event)

        log = _SlowFirstRecovered()
        recovered = MiningService(
            max_workers=1, backend="thread", store=tmp_path, observer=log
        )
        try:
            statuses = recovered.wait_all(timeout=180)
            assert log.ran_while_held is False
            assert [statuses[i] for i in [blocker, *queued]] == [JobStatus.DONE] * 4
            names = [e[2] for e in log.kinds("dispatched")]
            assert names == ["blocker", "queued-1", "queued-2", "queued-3"]
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

            def on_candidates(self, batch):
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


def _race_store_writes(tmp_path, hold_first):
    """Mine one job while one of its ``running`` store writes is held back.

    The held write waits until the job has mined its last iteration,
    and the job's mining thread waits until a write is held (or the
    submission has returned), so the job ends while that write is in
    flight. (Its terminal event cannot be delivered before the held
    write lands: the service emits in the order it decided.)
    ``hold_first`` holds the first ``running`` write; otherwise only a
    repeated one is held. Returns the job id and the states in the
    order their writes landed.
    """
    import threading

    held = threading.Event()
    mined = threading.Event()
    landed = []

    class HeldStore(JobStore):
        def put(self, doc):
            if doc["state"] == "running" and (hold_first or "running" in landed):
                held.set()
                mined.wait(10)
            super().put(doc)
            landed.append(doc["state"])

    class Pause(MiningObserver):
        def on_iteration(self, iteration):
            held.wait(10)
            if iteration.index == 2:
                mined.set()

    with MiningService(
        max_workers=1, backend="thread", store=HeldStore(tmp_path)
    ) as service:
        job_id = service.submit(
            _job(seed=5, n_iterations=2, kind="spread"), observer=Pause()
        )
        held.set()  # the submission returned: none of its writes is held
        service.result(job_id, 120)
    return job_id, landed


class TestStoredStateOrder:
    @pytest.mark.parametrize(
        "hold_first", [False, True], ids=["repeated-write", "first-write"]
    )
    def test_a_held_back_write_cannot_overwrite_a_later_state(
        self, tmp_path, hold_first
    ):
        """A record's writes land in transition order, each state once.

        Written in any other order, a ``running`` write that lands after
        ``done`` leaves the finished job ``running`` on disk, and the next
        service mines it again.
        """
        job_id, landed = _race_store_writes(tmp_path, hold_first)
        assert landed == ["running", "done"]
        log = _ScheduleLog()
        with MiningService(
            max_workers=1, backend="thread", store=tmp_path, observer=log
        ) as service:
            assert service.status(job_id) == JobStatus.DONE
        assert log.events == []

    def test_concurrent_submissions_store_every_final_state(self, tmp_path):
        import os
        import sys
        from concurrent.futures import ThreadPoolExecutor

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MiningService(
                max_workers=(os.cpu_count() or 1) + 2,
                backend="thread",
                store=tmp_path,
            ) as service:
                # Every spec twice: the second coalesces or hits the cache.
                with ThreadPoolExecutor(4) as submitters:
                    ids = list(
                        submitters.map(
                            lambda s: service.submit(
                                _job(seed=s % 12, n_iterations=1)
                            ),
                            range(24),
                        )
                    )
                statuses = service.wait_all(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert set(statuses.values()) == {JobStatus.DONE}
        with JobStore(tmp_path) as store:
            stored = {doc["job_id"]: doc["state"] for doc in store.records()}
        assert stored == {job_id: "done" for job_id in ids}


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
