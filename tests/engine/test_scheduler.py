"""Scheduler acceptance: deterministic ordering and observable decisions.

The service must dispatch queued jobs by (priority desc, deadline asc,
arrival asc) — never by pool FIFO luck — and every decision (queued,
dispatched, cache_hit, coalesced, promoted, cancelled, expired) must be
observable through ``repro.events``. Cancel-while-queued and deadline
expiry are deterministic terminal states.
"""

import concurrent.futures

import pytest

from repro.engine.service import JobStatus, MiningService
from repro.errors import DeadlineExpired, EngineError, ReproError
from repro.events import EventLog
from repro.spec import MiningSpec

FAST = dict(beam_width=6, max_depth=2, top_k=10)
#: A noticeably slower job, used to keep a one-worker pool busy while
#: the queue fills up.
SLOW = dict(beam_width=40, max_depth=4, top_k=150)


def _job(seed=0, config=FAST, dataset="synthetic", **kwargs):
    return MiningSpec.build(dataset, seed=seed, **config, **kwargs)


def _dispatch_order(log: EventLog) -> list[str]:
    return [e.job_id for e in log.schedule if e.kind == "dispatched"]


class TestJobScheduleFields:
    def test_priority_and_deadline_do_not_change_the_fingerprint(self):
        base = _job()
        assert base.fingerprint() == _job(priority=7, deadline=10.0).fingerprint()
        assert "priority" not in base.work_document()

    def test_with_schedule(self):
        job = _job().with_changes(priority=4, deadline=9.0)
        assert (job.executor.priority, job.executor.deadline) == (4, 9.0)
        assert job.with_changes().executor.priority == 4
        assert job.with_changes(deadline=None).executor.deadline is None

    def test_invalid_schedule_terms_rejected(self):
        with pytest.raises(ReproError):
            _job(priority="high")
        with pytest.raises(ReproError):
            _job(deadline=-1.0)
        with pytest.raises(ReproError):
            _job(deadline=float("nan"))
        with pytest.raises(ReproError):  # typed, not a raw ValueError
            _job(deadline="soon")
        with pytest.raises(ReproError):  # typed, not a raw TypeError
            _job(deadline=[1])

    def test_spec_round_trips_schedule_terms(self):
        spec = MiningSpec.build(
            "synthetic", priority=3, deadline=5.0, beam_width=6, max_depth=2, top_k=10
        )
        from repro.persist import job_from_dict, job_to_dict

        document = job_to_dict(spec)
        assert (document["priority"], document["deadline"]) == (3, 5.0)
        lifted = job_from_dict(document)
        assert (lifted.executor.priority, lifted.executor.deadline) == (3, 5.0)
        rebuilt = MiningSpec.from_dict(spec.to_dict())
        assert rebuilt.executor.priority == 3
        # Scheduling terms never change *what* is computed.
        assert spec.fingerprint() == MiningSpec.build(
            "synthetic", beam_width=6, max_depth=2, top_k=10
        ).fingerprint()

    def test_job_json_round_trips_schedule_terms(self):
        from repro.persist import job_from_dict, job_to_dict

        job = _job(priority=2, deadline=30.0)
        assert job_from_dict(job_to_dict(job)) == job

    def test_batch_file_schedule_validation_is_loud(self):
        from repro.persist import job_from_dict

        # The serialization path must not silently coerce what direct
        # construction rejects (2.7 -> 2, True -> 1).
        for bad in ({"priority": 2.7}, {"priority": True}, {"deadline": "soon"}):
            with pytest.raises(ReproError):
                job_from_dict({"dataset": "synthetic", **bad})


class TestDeterministicOrdering:
    def test_priority_then_deadline_then_arrival(self):
        log = EventLog()
        with MiningService(max_workers=1, backend="thread", observer=log) as service:
            blocker = service.submit(_job(config=SLOW, n_iterations=2))
            # Submitted in scrambled order while the worker is busy; all
            # deadlines are generous enough never to expire.
            plain_first = service.submit(_job(seed=1))
            late_deadline = service.submit(_job(seed=2, deadline=600.0))
            high = service.submit(_job(seed=3, priority=5))
            early_deadline = service.submit(_job(seed=4, deadline=60.0))
            plain_second = service.submit(_job(seed=5))
            service.wait_all()
        assert _dispatch_order(log) == [
            blocker,
            high,            # highest priority
            early_deadline,  # then earliest deadline
            late_deadline,
            plain_first,     # then arrival order among the deadline-free
            plain_second,
        ]
        # Reordering never loses work: everything ran to completion.
        assert set(service.jobs().values()) == {JobStatus.DONE}

    def test_every_submission_emits_a_queued_event(self):
        log = EventLog()
        with MiningService(max_workers=2, backend="thread", observer=log) as service:
            ids = [service.submit(_job(seed=s)) for s in range(3)]
            service.wait_all()
        queued = [e.job_id for e in log.schedule if e.kind == "queued"]
        assert queued == ids

    def test_serial_backend_emits_schedule_events(self):
        log = EventLog()
        with MiningService(backend="serial", observer=log) as service:
            job_id = service.submit(_job())
            dup_id = service.submit(_job(name="again"))
        kinds = [(e.job_id, e.kind) for e in log.schedule]
        assert (job_id, "dispatched") in kinds
        assert (dup_id, "cache_hit") in kinds


class TestCancelWhileQueued:
    def test_cancel_is_deterministic_and_observable(self):
        log = EventLog()
        with MiningService(max_workers=1, backend="thread", observer=log) as service:
            blocker = service.submit(_job(config=SLOW, n_iterations=2))
            victim = service.submit(_job(seed=9))
            assert service.status(victim) == JobStatus.PENDING
            assert service.cancel(victim) is True
            assert service.status(victim) == JobStatus.CANCELLED
            with pytest.raises(concurrent.futures.CancelledError):
                service.result(victim)
            assert service.cancel(victim) is False  # already terminal
            service.result(blocker)
        assert [e.job_id for e in log.schedule if e.kind == "cancelled"] == [victim]
        assert victim not in _dispatch_order(log)

    def test_running_job_cannot_be_cancelled(self):
        with MiningService(max_workers=1, backend="thread") as service:
            job_id = service.submit(_job())
            service.result(job_id)
            assert service.cancel(job_id) is False


class TestDeadlineExpiry:
    def test_expired_job_is_terminal_and_observable(self):
        log = EventLog()
        with MiningService(max_workers=1, backend="thread", observer=log) as service:
            blocker = service.submit(_job(config=SLOW, n_iterations=2))
            doomed = service.submit(_job(seed=9, deadline=0.0))
            service.wait_all()
            assert service.status(doomed) == JobStatus.EXPIRED
            with pytest.raises(DeadlineExpired, match="deadline"):
                service.result(doomed)
            service.result(blocker)
        assert [e.job_id for e in log.schedule if e.kind == "expired"] == [doomed]
        assert doomed not in _dispatch_order(log)

    def test_status_query_expires_an_overdue_queued_job(self):
        with MiningService(max_workers=1, backend="thread") as service:
            blocker = service.submit(_job(config=SLOW, n_iterations=2))
            doomed = service.submit(_job(seed=9, deadline=0.0))
            # The worker is still busy; the status query itself must
            # observe the expiry rather than reporting PENDING forever.
            assert service.status(doomed) == JobStatus.EXPIRED
            service.result(blocker)

    def test_serial_backend_honors_an_already_expired_deadline(self):
        with MiningService(backend="serial") as service:
            doomed = service.submit(_job(deadline=0.0))
            assert service.status(doomed) == JobStatus.EXPIRED
            with pytest.raises(DeadlineExpired):
                service.result(doomed)

    def test_generous_deadline_runs_normally(self):
        with MiningService(backend="serial") as service:
            job_id = service.submit(_job(deadline=600.0))
            assert service.status(job_id) == JobStatus.DONE
            assert service.result(job_id).iterations


class TestCoalescing:
    def test_inflight_duplicate_runs_once_and_both_get_the_result(self):
        log = EventLog()
        with MiningService(max_workers=1, backend="thread", observer=log) as service:
            blocker = service.submit(_job(config=SLOW, n_iterations=2))
            first = service.submit(_job(seed=7, name="first"))
            twin = service.submit(_job(seed=7, name="twin"))
            result_first = service.result(first)
            result_twin = service.result(twin)
            service.result(blocker)
        assert result_first is result_twin  # one mining run, shared result
        assert service.status(twin) == JobStatus.DONE
        coalesced = [e for e in log.schedule if e.kind == "coalesced"]
        assert [e.job_id for e in coalesced] == [twin]
        assert first in coalesced[0].detail
        assert twin not in _dispatch_order(log)

    def test_higher_priority_duplicate_boosts_the_queued_primary(self):
        log = EventLog()
        with MiningService(max_workers=1, backend="thread", observer=log) as service:
            blocker = service.submit(_job(config=SLOW, n_iterations=2))
            primary = service.submit(_job(seed=7))           # priority 0
            rival = service.submit(_job(seed=8, priority=5))
            urgent_twin = service.submit(_job(seed=7, priority=9, name="urgent"))
            service.wait_all()
        order = _dispatch_order(log)
        # The boosted primary (priority 9 via its twin) overtakes the
        # priority-5 rival.
        assert order == [blocker, primary, rival]

    def test_cancelling_the_primary_promotes_the_duplicate(self):
        log = EventLog()
        with MiningService(max_workers=1, backend="thread", observer=log) as service:
            blocker = service.submit(_job(config=SLOW, n_iterations=2))
            primary = service.submit(_job(seed=7, name="original"))
            twin = service.submit(_job(seed=7, name="survivor"))
            assert service.cancel(primary) is True
            result = service.result(twin)
            service.result(blocker)
        assert result.iterations
        assert service.status(primary) == JobStatus.CANCELLED
        assert service.status(twin) == JobStatus.DONE
        promoted = [e for e in log.schedule if e.kind == "promoted"]
        assert [e.job_id for e in promoted] == [twin]
        assert twin in _dispatch_order(log)

    def test_coalesced_duplicate_deadline_is_still_enforced(self):
        log = EventLog()
        with MiningService(max_workers=1, backend="thread", observer=log) as service:
            blocker = service.submit(_job(config=SLOW, n_iterations=2))
            primary = service.submit(_job(seed=7))  # queued behind the blocker
            doomed_twin = service.submit(_job(seed=7, deadline=0.0, name="late"))
            # The shared work has not started, so the duplicate's
            # "must start by" budget still applies.
            assert service.status(doomed_twin) == JobStatus.EXPIRED
            with pytest.raises(DeadlineExpired):
                service.result(doomed_twin)
            # The primary is unaffected and still serves its own client.
            assert service.result(primary).iterations
            service.result(blocker)
        assert [e.job_id for e in log.schedule if e.kind == "expired"] == [
            doomed_twin
        ]

    def test_coalesced_duplicate_with_generous_deadline_rides_along(self):
        with MiningService(max_workers=1, backend="thread") as service:
            blocker = service.submit(_job(config=SLOW, n_iterations=2))
            primary = service.submit(_job(seed=7))
            twin = service.submit(_job(seed=7, deadline=600.0, name="patient"))
            assert service.result(twin, timeout=120) is service.result(primary)
            service.result(blocker)

    def test_duplicate_deadline_tightens_the_primary_ordering(self):
        log = EventLog()
        with MiningService(max_workers=1, backend="thread", observer=log) as service:
            blocker = service.submit(_job(config=SLOW, n_iterations=2))
            primary = service.submit(_job(seed=7))               # no deadline
            rival = service.submit(_job(seed=8, deadline=600.0))
            urgent_twin = service.submit(
                _job(seed=7, deadline=60.0, name="urgent")
            )
            service.wait_all()
        # The twin's 60s deadline transferred to its queued primary,
        # which now outranks the 600s rival; without the transfer the
        # deadline-free primary would sort last and the twin could
        # expire while 'earlier deadline' work waited.
        assert _dispatch_order(log) == [blocker, primary, rival]
        assert service.status(urgent_twin) == JobStatus.DONE

    def test_cancelling_a_duplicate_leaves_the_primary_running(self):
        with MiningService(max_workers=1, backend="thread") as service:
            blocker = service.submit(_job(config=SLOW, n_iterations=2))
            primary = service.submit(_job(seed=7))
            twin = service.submit(_job(seed=7, name="twin"))
            assert service.cancel(twin) is True
            assert service.result(primary).iterations
            with pytest.raises(concurrent.futures.CancelledError):
                service.result(twin)
            service.result(blocker)


class TestLiveReporting:
    def test_live_reporter_prints_scheduling_decisions(self):
        import io

        from repro.report.live import LiveReporter

        out = io.StringIO()
        with MiningService(
            backend="serial", observer=LiveReporter(out)
        ) as service:
            job_id = service.submit(_job())
        text = out.getvalue()
        assert f"~ {job_id} queued" in text
        assert f"~ {job_id} dispatched" in text
        # An unnamed spec is reported under its derived label.
        assert f"[{_job().label}] done in" in text


class TestShutdownSemantics:
    def test_result_waiter_wakes_at_the_deadline(self):
        import time as _time

        with MiningService(max_workers=1, backend="thread") as service:
            # A genuinely slow blocker (crime takes seconds; synthetic
            # can finish in milliseconds and release the slot too soon).
            blocker = service.submit(
                MiningSpec.build("crime", beam_width=40, max_depth=3, top_k=150)
            )
            doomed = service.submit(_job(seed=9, deadline=0.05))
            started = _time.monotonic()
            # The worker stays busy far longer than 50ms; the waiter
            # must be released by the deadline, not by a freed slot.
            with pytest.raises(DeadlineExpired):
                service.result(doomed, timeout=30)
            assert _time.monotonic() - started < 2
            service.result(blocker)

    def test_submit_after_shutdown_fails_the_record_not_the_scheduler(self):
        wide, log = EventLog(), EventLog()
        service = MiningService(max_workers=1, backend="thread", observer=wide)
        service.shutdown(wait=True)
        job_id = service.submit(_job(), observer=log)
        assert service.status(job_id) == JobStatus.FAILED
        with pytest.raises(RuntimeError):  # the pool's shutdown error
            service.result(job_id)
        # The refusal is the job's one terminal event, on every observer.
        for observer in (wide, log):
            assert len(observer.failures) == 1
            assert isinstance(observer.failures[0][1], RuntimeError)
            assert not observer.jobs
        # The scheduler is not wedged: shutdown again returns promptly
        # (a leaked live record would block the graceful drain forever).
        service.shutdown(wait=True)

    def test_graceful_shutdown_drains_the_queue(self):
        service = MiningService(max_workers=1, backend="thread")
        ids = [service.submit(_job(seed=s)) for s in range(3)]
        service.shutdown(wait=True)
        assert all(service.status(i) == JobStatus.DONE for i in ids)

    def test_abrupt_shutdown_cancels_queued_jobs(self):
        log = EventLog()
        service = MiningService(max_workers=1, backend="thread", observer=log)
        blocker = service.submit(_job(config=SLOW, n_iterations=2))
        queued = service.submit(_job(seed=9))
        service.shutdown(wait=False)
        assert service.status(queued) == JobStatus.CANCELLED
        cancelled = [e for e in log.schedule if e.kind == "cancelled"]
        assert any(e.job_id == queued and "shutdown" in e.detail for e in cancelled)
        # The blocker was already running; let it finish for a clean exit.
        service.result(blocker)


class TestAgingStarvationGuard:
    """Long-queued low-priority jobs must eventually outrank fresh load.

    The blocker is held open deterministically: its per-job observer
    blocks the worker thread on an Event until the queue is arranged, so
    these tests do not depend on mining speed.
    """

    @staticmethod
    def _gated_blocker(service, gate):
        from repro.events import CallbackObserver

        return service.submit(
            _job(seed=777),
            observer=CallbackObserver(on_iteration=lambda _: gate.wait(10)),
        )

    def test_aged_job_dispatches_ahead_of_younger_high_priority_work(self):
        import threading
        import time

        gate = threading.Event()
        log = EventLog()
        with MiningService(
            max_workers=1, backend="thread", observer=log, aging_seconds=0.01
        ) as service:
            blocker = self._gated_blocker(service, gate)
            starved = service.submit(_job(seed=1, priority=0))
            # By the time the high-priority burst arrives, the starved
            # job has earned well over 5 aging levels.
            time.sleep(0.2)
            burst = [
                service.submit(_job(seed=10 + s, priority=5)) for s in range(2)
            ]
            gate.set()
            service.wait_all()
        order = _dispatch_order(log)
        assert order[0] == blocker
        assert order.index(starved) < min(order.index(b) for b in burst)
        aged = [e for e in log.schedule if e.kind == "aged"]
        assert any(e.job_id == starved for e in aged)
        assert all("priority after" in e.detail for e in aged)
        assert set(service.jobs().values()) == {JobStatus.DONE}

    def test_aging_disabled_preserves_strict_priority_order(self):
        import threading
        import time

        gate = threading.Event()
        log = EventLog()
        with MiningService(
            max_workers=1, backend="thread", observer=log, aging_seconds=None
        ) as service:
            blocker = self._gated_blocker(service, gate)
            starved = service.submit(_job(seed=1, priority=0))
            time.sleep(0.2)
            high = service.submit(_job(seed=2, priority=5))
            gate.set()
            service.wait_all()
        order = _dispatch_order(log)
        assert order == [blocker, high, starved]
        assert not [e for e in log.schedule if e.kind == "aged"]

    def test_invalid_aging_seconds_rejected(self):
        for bad in (0, -1, float("nan")):
            with pytest.raises(EngineError):
                MiningService(backend="thread", aging_seconds=bad)

    def test_aging_leaves_deadline_semantics_alone(self):
        # Aging boosts ordering only: the aged job still runs, and its
        # own deadline (generous here) is what governs expiry.
        import threading
        import time

        gate = threading.Event()
        log = EventLog()
        with MiningService(
            max_workers=1, backend="thread", observer=log, aging_seconds=0.01
        ) as service:
            self._gated_blocker(service, gate)
            aged = service.submit(_job(seed=1, deadline=600.0))
            time.sleep(0.05)
            gate.set()
            service.wait_all()
        assert service.status(aged) == JobStatus.DONE
