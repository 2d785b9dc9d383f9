"""DistExecutor: bit-identical mining over real sockets, plus failover.

The determinism acceptance tests run the actual beam search with its
scorer shipped over HTTP to live worker daemons, then compare against
:class:`SerialExecutor` byte-for-byte — the same bar the process-pool
backend is held to in ``tests/engine/test_equivalence.py``.
"""

import socket
import threading
import time

import numpy as np
import pytest

from distfns import add, boom, echo, slow_add
from repro.datasets import make_synthetic
from repro.dist.executor import DistExecutor, WorkerUnavailable
from repro.engine.executor import SerialExecutor, resolve_executor
from repro.errors import EngineError
from repro.model.background import BackgroundModel
from repro.search.config import SearchConfig
from repro.search.miner import SubgroupDiscovery
from repro.search.spread import find_spread_direction

#: Small but non-trivial search: multiple levels, dozens of candidates.
CONFIG = SearchConfig(beam_width=8, max_depth=2, top_k=25)


def assert_search_results_identical(serial, parallel):
    """Byte-level equality of two SearchResults (exact float equality).

    Mirrors the helper of ``tests/engine/test_equivalence.py`` — the
    distributed backend is held to the same bar as the process pool.
    """
    assert serial.n_evaluated == parallel.n_evaluated
    assert serial.depth_reached == parallel.depth_reached
    assert serial.expired == parallel.expired
    assert len(serial.log) == len(parallel.log)
    for a, b in zip(serial.log, parallel.log):
        assert a.description == b.description
        assert np.array_equal(a.indices, b.indices)
        assert a.score.ic == b.score.ic
        assert a.score.dl == b.score.dl
        assert np.array_equal(a.observed_mean, b.observed_mean)
    assert (serial.best is None) == (parallel.best is None)
    if serial.best is not None:
        assert serial.best.description == parallel.best.description


def _search(dataset, executor, seed=0):
    return SubgroupDiscovery(
        dataset, config=CONFIG, seed=seed, executor=executor
    ).search_locations()


class TestPlainMaps:
    def test_session_map_orders_and_values(self, worker_pair):
        with DistExecutor(worker_pair, local_fallback=False) as executor:
            with executor.session(1000) as session:
                out = session.map(add, list(range(57)))
        assert out == [1000 + i for i in range(57)]

    def test_context_free_map(self, worker_pair):
        with DistExecutor(worker_pair, local_fallback=False) as executor:
            assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]

    def test_empty_items(self, worker_pair):
        with DistExecutor(worker_pair) as executor:
            with executor.session("ctx") as session:
                assert session.map(echo, []) == []

    def test_context_ships_once_per_worker(self, worker_pair):
        with DistExecutor(worker_pair, local_fallback=False) as executor:
            with executor.session("heavy context") as session:
                session.map(echo, list(range(40)))
                shipped_once = executor.stats["contexts_shipped"]
                session.map(echo, list(range(40)))
            assert executor.stats["contexts_shipped"] == shipped_once <= 2

    def test_needs_at_least_one_worker(self):
        with pytest.raises(EngineError, match="at least one worker"):
            DistExecutor([])

    def test_remote_fn_error_propagates_without_failover(self, worker_pair):
        with DistExecutor(worker_pair, local_fallback=False) as executor:
            with executor.session("ctx") as session:
                with pytest.raises(ValueError, match="boom"):
                    session.map(boom, [1, 2, 3])
            assert executor.stats["failovers"] == 0


def _double(item):
    return item * 2


class TestBitIdenticalMining:
    """Acceptance: remote search == serial search, byte for byte."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_synthetic(self, worker_pair, seed):
        dataset = make_synthetic(seed)
        serial = _search(dataset, SerialExecutor(), seed=seed)
        with DistExecutor(worker_pair, local_fallback=False) as executor:
            remote = _search(dataset, executor, seed=seed)
            assert executor.stats["shards_remote"] > 0
            assert executor.stats["shards_local"] == 0
        assert_search_results_identical(serial, remote)

    def test_mammals(self, worker_pair, mammals_dataset):
        serial = _search(mammals_dataset, SerialExecutor())
        with DistExecutor(worker_pair, local_fallback=False) as executor:
            remote = _search(mammals_dataset, executor)
            assert executor.stats["shards_remote"] > 0
        assert_search_results_identical(serial, remote)

    def test_after_a_spread_step(self, worker_pair):
        # The block covariances now differ, so the remote shards score on
        # the low-rank kernel the shipped scorer carries.
        miner = SubgroupDiscovery(make_synthetic(0), config=CONFIG, seed=0)
        miner.step(kind="spread")
        serial = miner.search_locations()
        with DistExecutor(worker_pair, local_fallback=False) as executor:
            miner.executor = executor
            remote = miner.search_locations()
            assert executor.stats["shards_remote"] > 0
        assert_search_results_identical(serial, remote)

    @pytest.mark.parametrize("name", ["synthetic", "socio", "mammals"])
    def test_spread_search(self, worker_pair, socio_dataset, mammals_dataset, name):
        # Each worker ascends one contiguous chunk of the ten starts in
        # lockstep; on mammals' first location subgroup the ascents hit
        # their 300-iteration cap. Synthetic's two targets take the circle
        # route, which runs in the caller and ships nothing.
        if name == "synthetic":
            dataset, rows, seed = make_synthetic(0), np.arange(40), 7
        elif name == "socio":
            dataset, rows, seed = socio_dataset, np.arange(40), 7
        else:
            dataset, seed = mammals_dataset, 0
            rows = np.flatnonzero(dataset.column("tmp_mar").values <= -1.73595)
        model = BackgroundModel.from_targets(dataset.targets)
        serial = find_spread_direction(model, rows, dataset.targets, seed=seed)
        with DistExecutor(worker_pair, local_fallback=False) as executor:
            remote = find_spread_direction(
                model, rows, dataset.targets, seed=seed, executor=executor
            )
            shipped = 0 if name == "synthetic" else 2
            assert executor.stats["shards_remote"] == shipped
        assert remote.direction.tobytes() == serial.direction.tobytes()
        assert remote.ic == serial.ic
        assert (remote.n_starts, remote.n_iterations, remote.n_capped, remote.route) == (
            serial.n_starts,
            serial.n_iterations,
            serial.n_capped,
            "circle" if name == "synthetic" else "ascent",
        )
        if name == "mammals":
            assert serial.n_capped == 10

    def test_worker_count_does_not_matter(self, worker_pair):
        dataset = make_synthetic(0)
        serial = _search(dataset, SerialExecutor())
        with DistExecutor(worker_pair[:1], local_fallback=False) as one:
            assert_search_results_identical(serial, _search(dataset, one))
        with DistExecutor(worker_pair, local_fallback=False) as two:
            assert_search_results_identical(serial, _search(dataset, two))

    def test_resolve_executor_hook(self, worker_pair):
        executor = resolve_executor(None, dist_workers=worker_pair)
        assert isinstance(executor, DistExecutor)
        assert executor.parallelism == 2
        executor.close()
        assert isinstance(
            resolve_executor(1, dist_workers=None), SerialExecutor
        )
        assert isinstance(resolve_executor(1, dist_workers=[]), SerialExecutor)


class TestArrivalOrder:
    def test_slow_shards_cannot_reorder_results(self, worker_pair):
        """Replies land by shard index, not completion order."""
        with DistExecutor(worker_pair, local_fallback=False) as executor:
            with executor.session(0) as session:
                # slow_add sleeps per item, so shard completion order is
                # scrambled relative to shard index; the merge must not be.
                out = session.map(slow_add, list(range(10)))
        assert out == list(range(10))


class TestFailoverAndBackoff:
    def test_dead_url_fails_over_to_live_worker(self, worker_pair):
        workers = [worker_pair[0], "http://127.0.0.1:9"]
        with DistExecutor(workers, timeout=2.0, local_fallback=False) as executor:
            with executor.session(7) as session:
                out = session.map(add, list(range(20)))
        assert out == [7 + i for i in range(20)]
        assert executor.stats["failovers"] >= 1
        assert executor.stats["shards_local"] == 0

    def test_all_workers_dead_falls_back_locally(self):
        with DistExecutor(["http://127.0.0.1:9"], timeout=1.0) as executor:
            with executor.session(5) as session:
                assert session.map(add, [1, 2]) == [6, 7]
        assert executor.stats["shards_local"] == 2
        assert executor.stats["shards_remote"] == 0

    def test_truncated_reply_falls_back_locally(self, truncating_peer):
        """A worker that closes mid-body is unavailable, not a crash."""
        peer = truncating_peer(b"{}")
        with DistExecutor([peer.url], timeout=2.0) as executor:
            with executor.session(5) as session:
                assert session.map(add, [1, 2]) == [6, 7]
        assert peer.requests >= 1
        assert executor.stats["failovers"] >= 1
        assert executor.stats["shards_local"] == 2
        assert executor.stats["shards_remote"] == 0

    def test_no_fallback_raises_when_everyone_is_dead(self):
        with DistExecutor(
            ["http://127.0.0.1:9"], timeout=1.0, local_fallback=False
        ) as executor:
            with executor.session(5) as session:
                with pytest.raises(WorkerUnavailable):
                    session.map(add, [1])

    def test_timeout_then_backoff(self):
        """A hung (accepting but mute) worker times out, is sidelined
        with exponential backoff, and the shard completes locally."""
        mute = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        mute.bind(("127.0.0.1", 0))
        mute.listen(4)
        port = mute.getsockname()[1]
        held = []
        stop = threading.Event()

        def hold():
            mute.settimeout(0.2)
            while not stop.is_set():
                try:
                    conn, _ = mute.accept()
                except OSError:
                    continue
                held.append(conn)  # accept, then never answer

        thread = threading.Thread(target=hold, daemon=True)
        thread.start()
        try:
            executor = DistExecutor(
                [f"http://127.0.0.1:{port}"], timeout=0.5, backoff=30.0
            )
            with executor:
                started = time.monotonic()
                with executor.session(0) as session:
                    out = session.map(add, [1, 2, 3])
                first_run = time.monotonic() - started
                assert out == [1, 2, 3]
                assert executor.stats["failovers"] >= 1
                state = executor._states[0]
                assert not state.alive(time.monotonic())
                assert state.dead_until > time.monotonic() + 25.0
                # While sidelined, the worker is not even tried: the next
                # map is instant local fallback, no per-shard timeout.
                started = time.monotonic()
                with executor.session(0) as session:
                    assert session.map(add, [4]) == [4]
                assert time.monotonic() - started < first_run
                assert executor.stats["shards_local"] >= 4
        finally:
            stop.set()
            thread.join(timeout=2.0)
            for conn in held:
                conn.close()
            mute.close()

    def test_backoff_doubles_per_failure(self):
        from repro.dist.executor import WorkerClient, _WorkerState

        state = _WorkerState(
            WorkerClient("http://127.0.0.1:9"), backoff=1.0, max_backoff=4.0
        )
        state.mark_dead(100.0)
        assert state.dead_until == pytest.approx(101.0)
        state.mark_dead(100.0)
        assert state.dead_until == pytest.approx(102.0)
        state.mark_dead(100.0)
        assert state.dead_until == pytest.approx(104.0)
        state.mark_dead(100.0)
        assert state.dead_until == pytest.approx(104.0)  # capped
        state.mark_alive()
        assert state.alive(0.0)
