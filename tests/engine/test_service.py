"""Tests for the mining service (submit/status/result/cancel)."""

import concurrent.futures
import threading

import pytest

from repro.engine.service import JobStatus, MiningService
from repro.errors import EngineError
from repro.spec import MiningSpec

FAST = dict(beam_width=6, max_depth=2, top_k=10)
#: A noticeably slower job, used to keep a one-worker pool busy.
SLOW = dict(beam_width=40, max_depth=4, top_k=150)


def _job(seed=0, config=FAST, **kwargs):
    return MiningSpec.build("synthetic", seed=seed, **config, **kwargs)


class TestSerialBackend:
    def test_submit_resolves_immediately(self):
        with MiningService(backend="serial") as service:
            job_id = service.submit(_job())
            assert service.status(job_id) == JobStatus.DONE
            result = service.result(job_id)
            assert result.iterations[0].location.si > 0

    def test_failure_is_reported(self):
        with MiningService(backend="serial") as service:
            job_id = service.submit(_job(targets=("not-a-target",)))
            assert service.status(job_id) == JobStatus.FAILED
            with pytest.raises(Exception):
                service.result(job_id)


class TestThreadBackend:
    def test_many_jobs_complete(self):
        jobs = [_job(seed=s) for s in range(4)]
        with MiningService(max_workers=2, backend="thread") as service:
            ids = [service.submit(job) for job in jobs]
            statuses = service.wait_all()
            assert [statuses[i] for i in ids] == [JobStatus.DONE] * 4
            seen = {service.job(i).search.seed for i in ids}
            assert seen == {0, 1, 2, 3}

    def test_identical_spec_hits_the_cache(self):
        with MiningService(max_workers=1, backend="thread") as service:
            first = service.submit(_job(name="original"))
            service.result(first)
            second = service.submit(_job(name="duplicate"))
            # Cached submissions resolve without touching the pool.
            assert service.status(second) == JobStatus.DONE
            assert service.cache_stats.hits == 1
            assert service.result(second).job.name == "original"

    def test_cancel_pending_job(self):
        with MiningService(max_workers=1, backend="thread") as service:
            blocker = service.submit(_job(config=SLOW, n_iterations=2))
            victim = service.submit(_job(seed=99))
            cancelled = service.cancel(victim)
            if cancelled:  # the pool was still busy with the blocker
                assert service.status(victim) == JobStatus.CANCELLED
                with pytest.raises(concurrent.futures.CancelledError):
                    service.result(victim)
            service.result(blocker)

    def test_wait_all_timeout_is_total_and_raises(self):
        with MiningService(max_workers=1, backend="thread") as service:
            for seed in range(2):
                service.submit(_job(seed=seed, config=SLOW, n_iterations=2))
            with pytest.raises(concurrent.futures.TimeoutError):
                service.wait_all(timeout=0.001)
            service.wait_all()  # then drain for a clean shutdown

    def test_unknown_id_raises(self):
        with MiningService(backend="thread") as service:
            with pytest.raises(EngineError):
                service.status("job-9999")
            with pytest.raises(EngineError):
                service.result("job-9999")
            with pytest.raises(EngineError):
                service.job("job-9999")


class TestEventOrder:
    """A thread-backend job's own events follow its dispatch."""

    def test_a_job_mines_only_after_its_dispatch_left_the_service(self):
        from repro.events import MiningObserver

        class Order(MiningObserver):
            def __init__(self):
                self.kinds = []
                self.heard = threading.Event()

            def on_schedule(self, event):
                self.kinds.append(event.kind)

            def on_candidates(self, batch):
                self.kinds.append("candidates")
                self.heard.set()

            def on_iteration(self, iteration):
                self.kinds.append("iteration")

            def on_job(self, result):
                self.kinds.append("job")

        logs = {seed: Order() for seed in range(4)}

        class HoldDrain(MiningObserver):
            # The service-wide observer hears each scheduling event just
            # before the job's own observer. Holding the post drain open in
            # its "dispatched" call ends at once if the job mines
            # meanwhile, else after a quarter second.
            def on_schedule(self, event):
                if event.kind == "dispatched":
                    logs[event.job.search.seed].heard.wait(0.25)

        with MiningService(
            max_workers=2, backend="thread", observer=HoldDrain()
        ) as service:
            ids = [
                service.submit(_job(seed=seed, n_iterations=2), observer=log)
                for seed, log in logs.items()
            ]
            for job_id in ids:
                service.result(job_id, timeout=60)
        for log in logs.values():
            assert log.kinds[:2] == ["queued", "dispatched"]
            assert set(log.kinds[2:-1]) == {"candidates", "iteration"}
            assert log.kinds[-1] == "job"


class TestProcessBackend:
    def test_jobs_complete_in_worker_processes(self):
        jobs = [_job(seed=s) for s in range(2)]
        with MiningService(max_workers=2, backend="process") as service:
            ids = [service.submit(job) for job in jobs]
            results = [service.result(i, timeout=120) for i in ids]
        assert [r.job.search.seed for r in results] == [0, 1]
        assert all(r.iterations[0].location.si > 0 for r in results)


class TestValidation:
    def test_rejects_bad_backend(self):
        with pytest.raises(EngineError):
            MiningService(backend="quantum")

    def test_rejects_bad_worker_count(self):
        with pytest.raises(EngineError):
            MiningService(max_workers=0)

    def test_rejects_non_job(self):
        with MiningService(backend="serial") as service:
            with pytest.raises(EngineError):
                service.submit("not a job")


class TestServiceStartMethod:
    """Regression: MiningService must thread start_method into its pool."""

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_uses_requested_start_method(self, method):
        with MiningService(
            max_workers=1, backend="process", start_method=method
        ) as service:
            assert service._pool._mp_context.get_start_method() == method
            assert service.start_method == method

    def test_fork_spawn_parity(self):
        """The same job mines identical patterns under either method."""
        results = {}
        for method in ("fork", "spawn"):
            with MiningService(
                max_workers=1, backend="process", start_method=method
            ) as service:
                job_id = service.submit(_job(seed=2))
                results[method] = service.result(job_id, timeout=120)
        fork, spawn = results["fork"], results["spawn"]
        assert len(fork.iterations) == len(spawn.iterations)
        for a, b in zip(fork.iterations, spawn.iterations):
            assert a.location.description == b.location.description
            assert a.location.score.ic == b.location.score.ic

    def test_non_process_backends_ignore_start_method(self):
        with MiningService(backend="thread", start_method="spawn") as service:
            job_id = service.submit(_job())
            assert service.result(job_id, timeout=60) is not None


class TestEdgePaths:
    """The paths a high-traffic service exercises daily: cancels of work
    that never started, failures crossing worker boundaries, and
    duplicate submissions racing the first run."""

    def test_cancel_of_never_started_job(self):
        with MiningService(max_workers=1, backend="thread") as service:
            blocker = service.submit(_job(config=SLOW, n_iterations=2))
            victim = service.submit(_job(seed=99))
            # Deterministic: a job the scheduler has not dispatched
            # always cancels (no racing the pool for the slot).
            assert service.cancel(victim) is True
            assert service.status(victim) == JobStatus.CANCELLED
            with pytest.raises(concurrent.futures.CancelledError):
                service.result(victim)
            # Terminal: a second cancel reports failure, statuses stick.
            assert service.cancel(victim) is False
            assert service.status(victim) == JobStatus.CANCELLED
            assert service.result(blocker).iterations

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_result_on_failed_job_reraises_the_worker_error(self, backend):
        from repro.errors import DataError

        with MiningService(max_workers=1, backend=backend) as service:
            job_id = service.submit(_job(targets=("not-a-target",)))
            with pytest.raises(DataError, match="not-a-target"):
                service.result(job_id, timeout=120)
            assert service.status(job_id) == JobStatus.FAILED
            # Re-asking re-raises; the failure is stable, not consumed.
            with pytest.raises(DataError):
                service.result(job_id)

    def test_double_submit_of_identical_fingerprint_hits_the_cache(self):
        with MiningService(max_workers=1, backend="thread") as service:
            first = service.submit(_job(seed=5))
            service.result(first)
            second = service.submit(_job(seed=5, name="rerun"))
            assert service.status(second) == JobStatus.DONE
            assert service.result(second) is service.result(first)
            assert service.cache_stats.hits == 1

    def test_double_submit_while_first_still_inflight_runs_once(self):
        # The race the cache alone cannot catch: the duplicate arrives
        # before the first run finishes. It must coalesce, not re-mine.
        with MiningService(max_workers=1, backend="thread") as service:
            blocker = service.submit(_job(config=SLOW, n_iterations=2))
            first = service.submit(_job(seed=5))
            duplicate = service.submit(_job(seed=5, name="race"))
            assert service.result(duplicate, timeout=120) is service.result(first)
            # While the primary is queued/running the duplicate reports
            # the primary's progress rather than a stuck PENDING.
            assert service.status(duplicate) == JobStatus.DONE
            service.result(blocker)


class TestServiceSharedMemory:
    def test_serial_backend_threads_shared_memory_through(self):
        """A workers=2 spec runs the warm shared-memory pool, same patterns."""
        from repro.engine import shm

        with MiningService(backend="serial") as service:
            baseline = service.result(service.submit(_job(seed=5)))
        with MiningService(backend="serial") as service:
            job_id = service.submit(_job(seed=5, workers=2))
            shared = service.result(job_id)
        assert shm.live_segments() == frozenset()
        assert len(baseline.iterations) == len(shared.iterations)
        a = baseline.iterations[0].location
        b = shared.iterations[0].location
        assert a.description == b.description
        assert a.score.ic == b.score.ic


class TestPerJobObserver:
    """submit(observer=...) hears exactly its own submission's events."""

    def _log(self):
        from repro.events import EventLog

        return EventLog()

    def test_hears_only_its_own_job(self):
        mine, other = self._log(), self._log()
        with MiningService(max_workers=2, backend="thread") as service:
            a = service.submit(_job(seed=0), observer=mine)
            b = service.submit(_job(seed=1), observer=other)
            result_a = service.result(a)
            result_b = service.result(b)
        # Exactly one terminal on_job carrying this submission's result.
        assert [r.job.search.seed for r in mine.jobs] == [0]
        assert [r.job.search.seed for r in other.jobs] == [1]
        # Iterations arrive once (live on the thread backend, no replay).
        assert len(mine.iterations) == len(result_a.iterations)
        assert mine.iterations[0] is result_a.iterations[0]
        assert len(other.iterations) == len(result_b.iterations)
        # Scheduling decisions are this job's only.
        assert mine.schedule and all(e.job_id == a for e in mine.schedule)
        assert all(e.job_id == b for e in other.schedule)

    def test_serial_backend_fires_live(self):
        log = self._log()
        with MiningService(backend="serial") as service:
            job_id = service.submit(_job(n_iterations=2), observer=log)
            result = service.result(job_id)
        assert [e.kind for e in log.schedule] == ["queued", "dispatched"]
        assert len(log.iterations) == 2
        assert log.candidates  # live beam candidates reached the observer
        assert log.jobs == [result]

    def test_cache_hit_replays_iterations(self):
        log = self._log()
        with MiningService(max_workers=1, backend="thread") as service:
            first = service.submit(_job(seed=5))
            original = service.result(first)
            second = service.submit(_job(seed=5), observer=log)
            assert service.result(second) is original
        kinds = [e.kind for e in log.schedule]
        assert kinds == ["queued", "cache_hit"]
        assert len(log.iterations) == len(original.iterations)
        assert log.jobs == [original]

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_failure_reaches_the_per_job_observer(self, backend):
        wide, log = self._log(), self._log()
        kwargs = {} if backend == "serial" else {"max_workers": 1}
        with MiningService(backend=backend, observer=wide, **kwargs) as service:
            job_id = service.submit(
                _job(targets=("not-a-target",)), observer=log
            )
            with pytest.raises(Exception):
                service.result(job_id)
        # Exactly one terminal event per observer, and it is the failure.
        for observer in (wide, log):
            assert len(observer.failures) == 1
            assert observer.failures[0][0].dataset.targets == ("not-a-target",)
            assert not observer.jobs
            assert not observer.iterations

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_mined_then_cached_job_events_per_observer(self, backend):
        """Each observer hears every iteration of a job exactly once.

        Live where the observer was wired into the run (the per-job
        observer on serial and thread, the service-wide one on serial),
        replayed before ``on_job`` everywhere else, cache hits included.
        """
        wide, first, second = self._log(), self._log(), self._log()
        kwargs = {} if backend == "serial" else {"max_workers": 1}
        with MiningService(backend=backend, observer=wide, **kwargs) as service:
            mined = service.result(
                service.submit(_job(seed=8, n_iterations=2), observer=first)
            )
            cached = service.result(
                service.submit(_job(seed=8, n_iterations=2), observer=second)
            )
        assert cached is mined
        assert len(mined.iterations) == 2
        expected = [str(it.location) for it in mined.iterations]
        assert [str(it.location) for it in wide.iterations] == expected * 2
        assert len(wide.jobs) == 2 and all(r is mined for r in wide.jobs)
        for log in (first, second):
            assert [str(it.location) for it in log.iterations] == expected
            assert len(log.jobs) == 1 and log.jobs[0] is mined
            assert not log.failures
        assert bool(first.candidates) == (backend != "process")
        assert bool(wide.candidates) == (backend == "serial")
        assert not second.candidates
        assert [e.kind for e in wide.schedule] == [
            "queued", "dispatched", "queued", "cache_hit",
        ]
        assert [e.kind for e in first.schedule] == ["queued", "dispatched"]
        assert [e.kind for e in second.schedule] == ["queued", "cache_hit"]

    def test_process_backend_replays_at_completion(self):
        log = self._log()
        with MiningService(max_workers=1, backend="process") as service:
            job_id = service.submit(_job(seed=7, n_iterations=2), observer=log)
            result = service.result(job_id)
        assert len(log.iterations) == 2
        assert [r.job.search.seed for r in log.jobs] == [7]
        # Pool workers cannot call back live: no candidates crossed over.
        assert not log.candidates
        assert str(log.iterations[0].location) == str(result.iterations[0].location)

    def test_coalesced_duplicate_gets_its_own_terminal_event(self):
        primary_log, dup_log = self._log(), self._log()
        with MiningService(max_workers=1, backend="thread") as service:
            blocker = service.submit(_job(config=SLOW, n_iterations=2))
            primary = service.submit(_job(seed=3), observer=primary_log)
            dup = service.submit(_job(seed=3, name="twin"), observer=dup_log)
            result = service.result(dup)
            service.wait_all()
        assert [e.kind for e in dup_log.schedule][:2] == ["queued", "coalesced"]
        assert dup_log.jobs and dup_log.jobs[0].iterations == result.iterations
        assert primary_log.jobs  # the primary's observer also closed out
        assert len(dup_log.iterations) == len(result.iterations)

    def test_late_coalescer_hears_its_iterations_once(self):
        """A duplicate of a running job was not wired in: it gets the replay."""
        wide, primary_log, dup_log = self._log(), self._log(), self._log()
        with MiningService(max_workers=1, backend="thread", observer=wide) as service:
            # A free slot: the primary dispatches inside its submit, so
            # the duplicate coalesces onto a running job.
            primary = service.submit(
                _job(config=SLOW, n_iterations=2), observer=primary_log
            )
            dup = service.submit(
                _job(config=SLOW, n_iterations=2, name="twin"), observer=dup_log
            )
            result = service.result(dup)
            assert service.result(primary) is result
        assert [e.kind for e in dup_log.schedule] == ["queued", "coalesced"]
        for log in (primary_log, dup_log):
            assert len(log.iterations) == len(result.iterations) == 2
            assert len(log.jobs) == 1
        assert primary_log.candidates and not dup_log.candidates
        assert len(wide.iterations) == 2 * len(result.iterations)
        assert len(wide.jobs) == 2

    def test_observer_exceptions_never_fail_the_job(self):
        from repro.events import CallbackObserver

        def boom(_):
            raise RuntimeError("observer bug")

        angry = CallbackObserver(on_iteration=boom, on_schedule=boom)
        with MiningService(max_workers=1, backend="thread") as service:
            job_id = service.submit(_job(seed=11), observer=angry)
            assert service.result(job_id).iterations
            assert service.status(job_id) == JobStatus.DONE
