"""Tests for the executor backends."""

import pytest

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from repro.engine.executor import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    normalize_workers,
    resolve_executor,
    resolve_pool,
)
from repro.errors import EngineError


def _double(item):
    return item * 2


def _add_context(context, item):
    return context + item


class TestSerialExecutor:
    def test_map_preserves_order(self):
        assert SerialExecutor().map(_double, [3, 1, 2]) == [6, 2, 4]

    def test_session_passes_context(self):
        with SerialExecutor().session(10) as session:
            assert session.map(_add_context, [1, 2, 3]) == [11, 12, 13]

    def test_parallelism_is_one(self):
        assert SerialExecutor().parallelism == 1


class TestProcessExecutor:
    def test_map_preserves_order(self):
        assert ProcessExecutor(2).map(_double, [3, 1, 2]) == [6, 2, 4]

    def test_session_ships_context_to_workers(self):
        with ProcessExecutor(2).session(100) as session:
            assert session.map(_add_context, [1, 2, 3]) == [101, 102, 103]

    def test_session_reusable_for_multiple_maps(self):
        with ProcessExecutor(2).session(1) as session:
            first = session.map(_add_context, [1, 2])
            second = session.map(_add_context, [3, 4])
        assert first == [2, 3]
        assert second == [4, 5]

    def test_worker_exception_propagates(self):
        with pytest.raises(ZeroDivisionError):
            ProcessExecutor(2).map(_reciprocal, [1, 0])

    def test_rejects_bad_worker_count(self):
        with pytest.raises(EngineError):
            ProcessExecutor(0)


def _reciprocal(item):
    return 1 / item


class TestResolveExecutor:
    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_serial_for_one_or_fewer(self, workers):
        assert isinstance(resolve_executor(workers), SerialExecutor)

    def test_process_pool_above_one(self):
        executor = resolve_executor(3)
        assert isinstance(executor, ProcessExecutor)
        assert executor.parallelism == 3

    @pytest.mark.parametrize("workers", [-1, -10])
    def test_negative_is_an_explicit_error(self, workers):
        with pytest.raises(EngineError, match=">= 0"):
            resolve_executor(workers)

    def test_backends_satisfy_protocol(self):
        assert isinstance(SerialExecutor(), Executor)
        assert isinstance(ProcessExecutor(2), Executor)


class TestNormalizeWorkers:
    """The single worker-count code path every entry point shares."""

    @pytest.mark.parametrize("workers,expected", [(None, 1), (0, 1), (1, 1), (7, 7)])
    def test_edge_cases(self, workers, expected):
        assert normalize_workers(workers) == expected

    def test_negative_raises(self):
        with pytest.raises(EngineError, match="worker count"):
            normalize_workers(-2)


class TestResolvePool:
    """The service's pool selection rides the same code path."""

    def test_serial_backend_is_none(self):
        assert resolve_pool("serial", 4) is None

    def test_thread_backend(self):
        pool = resolve_pool("thread", 2)
        assert isinstance(pool, ThreadPoolExecutor)
        pool.shutdown()

    def test_process_backend(self):
        pool = resolve_pool("process", 2)
        assert isinstance(pool, ProcessPoolExecutor)
        pool.shutdown()

    def test_unknown_backend_rejected(self):
        with pytest.raises(EngineError, match="backend"):
            resolve_pool("quantum", 2)

    def test_negative_workers_rejected(self):
        with pytest.raises(EngineError, match="worker count"):
            resolve_pool("thread", -1)

    def test_backends_tuple_exported(self):
        assert BACKENDS == ("process", "thread", "serial")


def _boom(context, item):
    raise ValueError("worker exploded")


def _worker_pid(context, item):
    import os

    return os.getpid()


def _context_plus(context, item):
    return context + item


class TestProcessSessionLifecycle:
    """Regressions: the session must never leave a pool running behind."""

    def test_close_without_context_manager(self):
        session = ProcessExecutor(2).session(10)
        assert session.map(_context_plus, [1]) == [11]
        pool = session._pool
        session.close()
        assert pool._shutdown_thread
        with pytest.raises(EngineError, match="closed"):
            session.map(_context_plus, [2])

    def test_close_is_idempotent(self):
        session = ProcessExecutor(2).session(0)
        session.close()
        session.close()

    def test_abandoned_session_pool_reclaimed_by_gc(self):
        import gc

        session = ProcessExecutor(2).session(1)
        pool = session._pool
        del session
        gc.collect()
        assert pool._shutdown_thread

    def test_worker_error_shuts_the_pool_down(self):
        session = ProcessExecutor(2).session(None)
        pool = session._pool
        with pytest.raises(ValueError, match="worker exploded"):
            session.map(_boom, [1, 2])
        assert pool._shutdown_thread
        with pytest.raises(EngineError, match="closed"):
            session.map(_context_plus, [1])


class TestSharedMemoryExecutor:
    def test_sessions_reuse_one_warm_pool(self):
        with ProcessExecutor(2, shared_memory=True) as executor:
            with executor.session(100) as first:
                out1 = first.map(_context_plus, [1, 2])
                pids1 = set(first.map(_worker_pid, [0, 0, 0, 0]))
                pool = executor._persistent
                worker_pids = set(pool._processes)
            with executor.session(200) as second:
                out2 = second.map(_context_plus, [1])
                pids2 = set(second.map(_worker_pid, [0, 0, 0, 0]))
                assert executor._persistent is pool
                # Same pool, same worker processes: warm reuse, not a
                # respawn (which task lands on which worker is the
                # scheduler's business — only membership is stable).
                assert set(pool._processes) == worker_pids
                assert (pids1 | pids2) <= worker_pids
        assert out1 == [101, 102]
        assert out2 == [201]

    def test_session_close_keeps_pool_but_unlinks_segments(self):
        import numpy as np

        from repro.engine import shm

        with ProcessExecutor(2, shared_memory=True) as executor:
            session = executor.session(np.arange(4, dtype=float))
            assert session.map(_context_plus, [1.0])[0][0] == 1.0
            assert shm.live_segments()
            session.close()
            assert shm.live_segments() == frozenset()
            assert not executor._persistent._shutdown_thread
            with pytest.raises(EngineError, match="closed"):
                session.map(_context_plus, [1.0])

    def test_executor_close_then_new_session_respawns(self):
        executor = ProcessExecutor(2, shared_memory=True)
        with executor.session(5) as session:
            assert session.map(_context_plus, [1]) == [6]
        first_pool = executor._persistent
        executor.close()
        assert executor._persistent is None
        with executor.session(7) as session:
            assert session.map(_context_plus, [1]) == [8]
        assert executor._persistent is not first_pool
        executor.close()

    def test_worker_error_releases_segments_on_close(self):
        with ProcessExecutor(2, shared_memory=True) as executor:
            session = executor.session(3)
            with pytest.raises(ValueError, match="worker exploded"):
                session.map(_boom, [1])
            # The pool survives a *task* error (only a broken pool is
            # discarded); the session's segments go with the session.
            assert session.map(_context_plus, [1]) == [4]
            session.close()

    def test_map_context_free_uses_warm_pool(self):
        with ProcessExecutor(2, shared_memory=True) as executor:
            assert executor.map(_double, [3, 1]) == [6, 2]
            assert executor._persistent is not None

    def test_resolve_executor_threads_the_toggle(self):
        executor = resolve_executor(3, shared_memory=True)
        assert isinstance(executor, ProcessExecutor)
        assert executor.shared_memory is True
        executor.close()
        assert isinstance(
            resolve_executor(1, shared_memory=True), SerialExecutor
        )


class TestResolvePoolStartMethod:
    """Regression: the service backend must honor its start method."""

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_process_pool_gets_the_requested_context(self, method):
        pool = resolve_pool("process", 2, start_method=method)
        try:
            assert pool._mp_context.get_start_method() == method
        finally:
            pool.shutdown(wait=False)

    def test_thread_and_serial_ignore_start_method(self):
        pool = resolve_pool("thread", 2, start_method="spawn")
        assert isinstance(pool, ThreadPoolExecutor)
        pool.shutdown()
        assert resolve_pool("serial", 2, start_method="spawn") is None
