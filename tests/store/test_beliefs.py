"""BeliefStore: on-disk belief-prefix entries, bit-identical round trips.

Entries come from a *real* miner run (not hand-built fixtures), so the
encode/decode pair is exercised against everything the search actually
puts in a :class:`~repro.engine.cache.CachedStep` — float scores, int
index arrays, nested constraints, RNG state.
"""

import pickle

import numpy as np
import pytest

from repro.datasets import make_synthetic
from repro.engine.cache import BeliefCache
from repro.engine.executor import SerialExecutor
from repro.errors import EngineError
from repro.search.config import SearchConfig
from repro.search.miner import SubgroupDiscovery
from repro.store import BeliefStore, BeliefStoreHandle

CONFIG = SearchConfig(beam_width=8, max_depth=2, top_k=10)


@pytest.fixture(scope="module")
def warm_cache():
    """An in-memory cache warmed by a 2-iteration spread mine."""
    cache = BeliefCache()
    miner = SubgroupDiscovery(
        make_synthetic(0),
        config=CONFIG,
        seed=0,
        executor=SerialExecutor(),
        belief_cache=cache,
    )
    miner.run(2, kind="spread")
    return cache


def _entries(cache):
    # The cache's in-memory LRU maps chain-hash key -> CachedStep.
    return dict(cache._entries._data)


def _assert_steps_identical(a, b):
    assert a.iteration.index == b.iteration.index
    assert a.iteration.location.description == b.iteration.location.description
    assert np.array_equal(a.iteration.location.indices, b.iteration.location.indices)
    assert a.iteration.location.indices.dtype == b.iteration.location.indices.dtype
    assert a.iteration.location.score.ic == b.iteration.location.score.ic
    assert a.iteration.location.score.dl == b.iteration.location.score.dl
    assert (a.iteration.spread is None) == (b.iteration.spread is None)
    if a.iteration.spread is not None:
        assert np.array_equal(
            a.iteration.spread.direction, b.iteration.spread.direction
        )
        assert a.iteration.spread.variance == b.iteration.spread.variance
    assert len(a.constraints) == len(b.constraints)
    for ca, cb in zip(a.constraints, b.constraints):
        assert type(ca) is type(cb)
        assert np.array_equal(ca.indices, cb.indices)
    assert a.rng_state == b.rng_state


class TestRoundTrip:
    def test_every_entry_is_bit_identical_from_disk(self, warm_cache, tmp_path):
        store = BeliefStore(tmp_path)
        entries = _entries(warm_cache)
        assert entries  # the mine must have cached something
        for key, step in entries.items():
            store.put(key, step)
        for key, step in entries.items():
            _assert_steps_identical(store.get(key), step)
        assert store.stats.stores == len(entries)
        assert store.stats.hits == len(entries)

    def test_arrays_come_back_as_memmaps(self, warm_cache, tmp_path):
        store = BeliefStore(tmp_path)
        key, step = next(iter(_entries(warm_cache).items()))
        store.put(key, step)
        loaded = store.get(key)
        # Decoded arrays are views over an np.memmap (no eager copy):
        # the file pages in lazily. Walk the base chain to find it.
        array = loaded.iteration.location.indices
        assert not array.flags.owndata
        base = array.base
        while base is not None and not isinstance(base, np.memmap):
            base = base.base
        assert isinstance(base, np.memmap)

    def test_put_is_idempotent(self, warm_cache, tmp_path):
        store = BeliefStore(tmp_path)
        key, step = next(iter(_entries(warm_cache).items()))
        store.put(key, step)
        store.put(key, step)  # same content-addressed file: skipped
        assert store.stats.stores == 1
        assert len(store) == 1

    def test_missing_key_is_a_counted_miss(self, tmp_path):
        store = BeliefStore(tmp_path)
        assert store.get("0" * 32) is None
        assert store.stats.misses == 1
        assert store.stats.errors == 0

    def test_corrupt_file_is_a_miss_not_a_crash(self, warm_cache, tmp_path):
        store = BeliefStore(tmp_path)
        key, step = next(iter(_entries(warm_cache).items()))
        store.put(key, step)
        path = store._path(key)
        path.write_bytes(b"garbage that is not a belief file")
        assert store.get(key) is None
        assert store.stats.errors == 1

    def test_undecodable_record_is_a_miss(self, warm_cache, tmp_path):
        """A record the codec rejects (here an unknown constraint type,
        same byte length so the layout holds) is a miss, not a crash."""
        store = BeliefStore(tmp_path)
        key, step = next(iter(_entries(warm_cache).items()))
        store.put(key, step)
        path = store._path(key)
        raw = path.read_bytes()
        assert b'"type":"location"' in raw
        path.write_bytes(raw.replace(b'"type":"location"', b'"type":"xocation"'))
        assert store.get(key) is None
        assert store.stats.errors == 1

    def test_rejects_traversal_keys(self, tmp_path):
        store = BeliefStore(tmp_path)
        with pytest.raises(EngineError):
            store.get("../../etc/passwd")


class TestHandle:
    def test_handle_pickles_and_resolves_to_spilled_cache(
        self, warm_cache, tmp_path
    ):
        store = BeliefStore(tmp_path)
        entries = _entries(warm_cache)
        for key, step in entries.items():
            store.put(key, step)
        handle = store.handle()
        clone = pickle.loads(pickle.dumps(handle))
        assert isinstance(clone, BeliefStoreHandle)
        cache = clone.resolve()
        key = next(iter(entries))
        assert cache.get(key) is not None

    def test_resolve_is_memoized_per_root(self, tmp_path):
        store = BeliefStore(tmp_path)
        assert store.handle().resolve() is store.handle().resolve()


class TestSpillThroughCache:
    def test_cold_cache_with_spill_serves_warm_entries(self, warm_cache, tmp_path):
        store = BeliefStore(tmp_path)
        for key, step in _entries(warm_cache).items():
            store.put(key, step)
        cold = BeliefCache(spill=BeliefStore(tmp_path))
        key = next(iter(_entries(warm_cache)))
        assert cold.get(key) is not None  # promoted from disk
        assert cold.get(key) is not None  # now an in-memory hit
