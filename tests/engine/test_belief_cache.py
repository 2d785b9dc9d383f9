"""Prefix-cache acceptance: warm replays are bit-identical to cold runs.

The tentpole guarantee: a session resuming from a k-pattern cached
prefix produces byte-identical iterations (patterns, SI scores, RNG
state) to a cold full run — on the serial *and* the process executor —
and pays no beam search for the replayed prefix.
"""

import dataclasses

import numpy as np
import pytest

from repro.datasets import make_synthetic
from repro.engine.cache import BELIEF_CACHE, BeliefCache, CachedStep
from repro.engine.executor import ProcessExecutor, SerialExecutor
from repro.engine.service import MiningService
from repro.errors import EngineError
from repro.events import EventLog, MiningObserver
from repro.obs import clock
from repro.obs.instruments import (
    MINER_STEPS_EXPIRED,
    MINER_STEPS_MINED,
    MINER_STEPS_REPLAYED,
)
from repro.search.config import SearchConfig
from repro.search.miner import SubgroupDiscovery
from repro.session import MiningSession
from repro.spec import MiningSpec
from repro.utils.rng import rng_state

CONFIG = SearchConfig(beam_width=8, max_depth=2, top_k=10)


def _spec(**kwargs) -> MiningSpec:
    return MiningSpec.build("synthetic", beam_width=8, max_depth=2, top_k=10, **kwargs)


def assert_iterations_identical(ours, theirs):
    """Byte-level equality of two iteration sequences."""
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.index == b.index
        assert a.location.description == b.location.description
        assert np.array_equal(a.location.indices, b.location.indices)
        assert a.location.score.ic == b.location.score.ic  # exact, not approx
        assert a.location.score.dl == b.location.score.dl
        assert np.array_equal(a.location.mean, b.location.mean)
        assert (a.spread is None) == (b.spread is None)
        if a.spread is not None:
            assert np.array_equal(a.spread.direction, b.spread.direction)
            assert a.spread.variance == b.spread.variance
            assert a.spread.score.ic == b.spread.score.ic


def _miner(executor=None, belief_cache=None, observer=None):
    return SubgroupDiscovery(
        make_synthetic(0),
        config=CONFIG,
        seed=0,
        executor=executor if executor is not None else SerialExecutor(),
        belief_cache=belief_cache,
        observer=observer,
    )


class TestPrefixEquivalence:
    """The acceptance criterion, on both executors."""

    @pytest.fixture(scope="class")
    def cold(self):
        miner = _miner()
        iterations = miner.run(3, kind="spread")
        return iterations, rng_state(miner._rng)

    @pytest.mark.parametrize("executor_kind", ["serial", "process"])
    def test_warm_run_resuming_cached_prefix_is_bit_identical(
        self, cold, executor_kind
    ):
        cold_iterations, cold_rng = cold
        cache = BeliefCache()
        # Warm the cache with a 2-iteration session (the shared prefix).
        warmer = _miner(belief_cache=cache)
        warmer.run(2, kind="spread")

        executor = (
            ProcessExecutor(2) if executor_kind == "process" else SerialExecutor()
        )
        log = EventLog()
        try:
            warm = _miner(executor=executor, belief_cache=cache, observer=log)
            iterations = warm.run(3, kind="spread")
        finally:
            executor.close()
        assert_iterations_identical(iterations, cold_iterations)
        # The RNG stream continued exactly where the cold run's did.
        assert rng_state(warm._rng) == cold_rng
        # The 2-iteration prefix replayed from the cache: only iteration
        # 3 ran a beam search, so candidates fired once per iteration 3
        # candidate and on_iteration fired for all three.
        assert cache.stats.hits == 2
        assert [it.index for it in log.iterations] == [1, 2, 3]
        assert log.candidates, "the non-cached iteration must mine live"

    def test_continuation_after_replay_stays_bit_identical(self, cold):
        # Step *past* the cached prefix: the replayed RNG state must
        # drive iteration 4 to the same outcome a never-cached run gets.
        cold_reference = _miner()
        cold_iterations = cold_reference.run(4, kind="spread")
        cache = BeliefCache()
        _miner(belief_cache=cache).run(3, kind="spread")
        warm = _miner(belief_cache=cache)
        warm_iterations = warm.run(4, kind="spread")
        assert_iterations_identical(warm_iterations, cold_iterations)

    def test_entries_written_by_parallel_runs_replay_in_serial_runs(self):
        cache = BeliefCache()
        executor = ProcessExecutor(2)
        try:
            parallel = _miner(executor=executor, belief_cache=cache)
            parallel_iterations = parallel.run(2, kind="spread")
        finally:
            executor.close()
        warm = _miner(belief_cache=cache)
        warm_iterations = warm.run(2, kind="spread")
        assert cache.stats.hits == 2
        assert_iterations_identical(warm_iterations, parallel_iterations)


class TestChainSafety:
    def test_different_seed_never_shares_spread_entries(self):
        cache = BeliefCache()
        a = SubgroupDiscovery(
            make_synthetic(0), config=CONFIG, seed=0, belief_cache=cache
        )
        a.run(2, kind="spread")
        b = SubgroupDiscovery(
            make_synthetic(0), config=CONFIG, seed=123, belief_cache=cache
        )
        b.run(1, kind="spread")
        # Seed 123's RNG state differs, so its spread step cannot reuse
        # seed 0's entries (the key includes the RNG state).
        assert cache.stats.hits == 0

    def test_different_config_never_shares_entries(self):
        cache = BeliefCache()
        _miner(belief_cache=cache).run(1)
        other = SubgroupDiscovery(
            make_synthetic(0),
            config=SearchConfig(beam_width=4, max_depth=2, top_k=10),
            seed=0,
            belief_cache=cache,
        )
        other.run(1)
        assert cache.stats.hits == 0

    def test_undo_does_not_resurrect_a_stale_rng(self):
        cache = BeliefCache()
        session = MiningSession(
            make_synthetic(0), config=CONFIG, seed=0, kind="spread",
            belief_cache=cache,
        )
        first = session.step()
        session.step()
        session.undo()
        # Same belief state as after step 1, but the RNG has advanced —
        # the re-mined step 2 must be a miss, not a stale replay.
        misses_before = cache.stats.misses
        redone = session.step()
        assert cache.stats.misses > misses_before
        assert redone.index == 2
        assert first.location.description == session.history[0].location.description

    def test_manual_assimilation_changes_the_chain(self):
        cache = BeliefCache()
        a = _miner(belief_cache=cache)
        a.run(1)
        b = _miner(belief_cache=cache)
        b.assimilate(a.history[0].location)  # same constraint, by hand
        # b's belief chain now equals a's post-step-1 chain, so b's next
        # location step replays a's second step if it exists — mine it:
        a.step()
        b.step()
        assert cache.stats.hits >= 1
        assert (
            b.history[-1].location.description
            == a.history[-1].location.description
        )


class _ExpireOnFirstCandidate(MiningObserver):
    """Moves the frozen clock past the budget when the first level is scored."""

    def __init__(self, advance, seconds: float) -> None:
        self._advance = advance
        self._seconds = seconds
        self.fired = False

    def on_candidates(self, batch) -> None:
        if not self.fired:
            self.fired = True
            self._advance(self._seconds)


class TestExpiredSteps:
    def test_expired_step_is_never_cached_or_replayed(self):
        config = dataclasses.replace(CONFIG, time_budget_seconds=5.0)
        cache = BeliefCache()
        counts = (MINER_STEPS_EXPIRED.value, MINER_STEPS_MINED.value)
        with clock.fixed() as advance:
            observer = _ExpireOnFirstCandidate(advance, 10.0)
            first = SubgroupDiscovery(
                make_synthetic(0), config=config, seed=0,
                belief_cache=cache, observer=observer,
            )
            iteration = first.step(kind="spread")
        # The budget ran out after depth 1: the best-so-far pattern is
        # still returned and assimilated, but never written to the cache.
        assert observer.fired
        assert len(iteration.location.description) == 1
        assert len(first.model.constraints) == 2
        assert len(cache) == 0
        assert MINER_STEPS_EXPIRED.value == counts[0] + 1
        assert MINER_STEPS_MINED.value == counts[1]

        # A second miner over the same cache mines the step in full.
        replayed = MINER_STEPS_REPLAYED.value
        log = EventLog()
        second = SubgroupDiscovery(
            make_synthetic(0), config=config, seed=0, belief_cache=cache, observer=log
        )
        second.step(kind="spread")
        assert log.candidates
        assert MINER_STEPS_REPLAYED.value == replayed
        assert MINER_STEPS_MINED.value == counts[1] + 1
        assert len(cache) == 1


class TestSessionAndServiceIntegration:
    def test_saved_session_resumes_through_the_cache(self, tmp_path):
        cache = BeliefCache()
        session = MiningSession(
            make_synthetic(0), config=CONFIG, seed=0, kind="spread",
            belief_cache=cache,
        )
        session.step()
        path = session.save(tmp_path / "session.json")
        session.step()  # iteration 2 is now cached
        resumed = MiningSession.resume(
            make_synthetic(0), path, config=CONFIG, belief_cache=cache
        )
        hits_before = cache.stats.hits
        continued = resumed.step()
        assert cache.stats.hits == hits_before + 1  # replayed, not re-mined
        # A resumed session restarts its history numbering (documented),
        # so compare the work under matching labels.
        reference = session.history[1]
        assert continued.index == 1
        assert_iterations_identical(
            [continued], [dataclasses.replace(reference, index=1)]
        )

    def test_service_jobs_share_prefixes_across_fingerprints(self):
        # Two *different* jobs (1 vs 2 iterations) share the first
        # iteration's belief state; the service's belief cache makes the
        # second job replay it.
        cache = BeliefCache()
        with MiningService(backend="serial", belief_cache=cache) as service:
            short = service.result(
                service.submit(_spec())
            )
            long = service.result(service.submit(_spec(n_iterations=2)))
        assert cache.stats.hits == 1
        assert_iterations_identical(short.iterations, long.iterations[:1])

    def test_thread_backend_shares_the_cache_across_jobs(self):
        cache = BeliefCache()
        with MiningService(
            backend="thread", max_workers=1, belief_cache=cache
        ) as service:
            first = service.submit(_spec())
            service.result(first)
            second = service.submit(_spec(n_iterations=3))
            result = service.result(second)
        assert cache.stats.hits == 1
        assert len(result.iterations) == 3

    def test_belief_cache_false_disables_reuse(self):
        with MiningService(backend="serial", belief_cache=False) as service:
            assert service.belief_cache is None

    def test_belief_cache_true_selects_the_process_wide_cache(self):
        with MiningService(backend="serial", belief_cache=True) as service:
            assert service.belief_cache is BELIEF_CACHE

    def test_invalid_belief_cache_argument_rejected(self):
        with pytest.raises(EngineError, match="belief_cache"):
            MiningService(backend="serial", belief_cache="yes please")


class TestCacheObject:
    def test_put_rejects_non_entries(self):
        cache = BeliefCache()
        with pytest.raises(EngineError, match="CachedStep"):
            cache.put("key", {"not": "an entry"})

    def test_len_and_clear(self):
        cache = BeliefCache()
        _miner(belief_cache=cache).run(2)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0

    def test_bounded_eviction(self):
        cache = BeliefCache(maxsize=1)
        _miner(belief_cache=cache).run(2)
        assert len(cache) == 1
        assert cache.stats.evictions == 1

    def test_cached_step_is_a_frozen_record(self):
        cache = BeliefCache()
        miner = _miner(belief_cache=cache)
        miner.run(1)
        entry = cache._entries.get(next(iter(cache._entries._data)))
        assert isinstance(entry, CachedStep)
        with pytest.raises(AttributeError):
            entry.iteration = None
