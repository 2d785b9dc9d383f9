"""Tests for the zero-copy shared-memory transport (repro.engine.shm)."""

import os
import pickle
import uuid
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.datasets import make_synthetic
from repro.engine import shm
from repro.engine.shm import ArrayStore, SharedContext
from repro.errors import EngineError
from repro.model.background import BackgroundModel
from repro.search.beam import LocationICScorer
from repro.search.spread import SpreadObjective

from engine.conftest import _dev_shm_segments


def _ship(store: ArrayStore, context):
    """Share ``context`` and load it back the way a worker does."""
    return pickle.loads(pickle.dumps(store.share(context))).load()


def _scorer() -> LocationICScorer:
    dataset = make_synthetic(0)
    model = BackgroundModel.from_targets(dataset.targets)
    return LocationICScorer(model, dataset.targets)


class TestArrayStore:
    def test_share_round_trips_values_dtypes_and_shapes(self):
        arrays = [
            np.arange(12, dtype=float).reshape(3, 4),
            np.array([True, False, True]),
            np.arange(5, dtype=np.int64),
        ]
        with ArrayStore() as store:
            restored = _ship(store, arrays)
            for array, original in zip(restored, arrays):
                assert np.array_equal(array, original)
                assert array.dtype == original.dtype
                assert array.shape == original.shape

    def test_contiguous_arrays_load_as_read_only_views(self):
        with ArrayStore() as store:
            view = _ship(store, np.zeros(4))
            with pytest.raises(ValueError):
                view[0] = 1.0

    def test_undeclared_arrays_are_shared_too(self):
        context = SimpleNamespace(factors=np.eye(3), nested={"x": np.ones(2)})
        with ArrayStore() as store:
            restored = _ship(store, context)
        assert not restored.factors.flags.writeable
        assert not restored.nested["x"].flags.writeable
        assert np.array_equal(restored.factors, context.factors)

    def test_non_contiguous_arrays_round_trip_exactly(self):
        matrix = np.arange(20, dtype=float).reshape(4, 5)
        column = matrix[:, 2]  # stride > itemsize
        with ArrayStore() as store:
            restored = _ship(store, column)
        assert np.array_equal(restored, column)

    def test_share_leaves_the_context_alone(self):
        scorer = _scorer()
        targets, features = scorer.targets, scorer.features
        with ArrayStore() as store:
            store.share(scorer)
        assert scorer.targets is targets and scorer.features is features
        assert targets.flags.writeable and features.flags.writeable

    def test_handle_is_small_and_pickles_as_itself(self):
        with ArrayStore() as store:
            handle = store.share({"tol": 1e-9, "rows": np.arange(1000.0)})
            assert isinstance(handle, SharedContext)
            assert pickle.loads(pickle.dumps(handle)) == handle
            assert len(handle.buffers) == 1
            assert handle.size < 1000

    def test_close_unlinks_everything_and_is_idempotent(self):
        store = ArrayStore()
        store.share(np.ones(3))
        store.share(None)
        assert len(store.segment_names) == 2
        assert shm.live_segments()
        store.close()
        assert store.segment_names == ()
        assert shm.live_segments() == frozenset()
        store.close()  # second close is a no-op

    def test_closed_store_rejects_new_segments(self):
        store = ArrayStore()
        store.close()
        with pytest.raises(EngineError, match="closed"):
            store.share(np.ones(1))

    def test_load_after_unlink_is_a_typed_error(self):
        store = ArrayStore()
        handle = store.share(np.arange(64, dtype=float))
        store.close()
        assert handle.name not in shm.live_segments()
        with pytest.raises(EngineError, match="unlinked"):
            handle.load()


class TestSharedContexts:
    def test_restored_scorer_scores_bit_identically(self):
        scorer = _scorer()
        masks = np.zeros((3, scorer.model.n_rows), dtype=bool)
        masks[0, :10] = True
        masks[1, 5:40] = True
        masks[2, ::7] = True
        reference_ics, reference_means = scorer.score_masks(masks)
        with ArrayStore() as store:
            restored = _ship(store, scorer)
            assert not restored.features.flags.writeable
            ics, means = restored.score_masks(masks)
        assert np.array_equal(ics, reference_ics)
        assert np.array_equal(means, reference_means)
        assert np.array_equal(restored.model.labels, scorer.model.labels)

    def test_restored_spread_objective_scores_bit_identically(self):
        dataset = make_synthetic(0)
        model = BackgroundModel.from_targets(dataset.targets)
        objective = SpreadObjective(model, np.arange(40), dataset.targets)
        w = np.zeros(objective.dim)
        w[0] = 1.0
        reference = objective.value(w)
        with ArrayStore() as store:
            restored, max_iterations, tol = _ship(store, (objective, 300, 1e-9))
            assert (max_iterations, tol) == (300, 1e-9)
            assert restored.value(w) == reference

    def test_repeated_array_ships_once(self):
        array = np.arange(6, dtype=float)
        with ArrayStore() as store:
            handle = store.share((array, array))
            assert len(handle.buffers) == 1
            a, b = handle.load()
        assert a is b
        assert np.array_equal(a, array)

    def test_payload_shrinks_at_least_5x_on_scorer(self):
        """Acceptance: per-session context-shipping payload >= 5x smaller."""
        scorer = _scorer()
        copied = len(pickle.dumps(scorer, protocol=pickle.HIGHEST_PROTOCOL))
        with ArrayStore() as store:
            shared = store.share(scorer).size
        assert shared * 5 <= copied, (
            f"expected >=5x reduction, got {copied} -> {shared} bytes"
        )


_DTYPES = (np.float64, np.float32, np.int64, np.bool_, np.uint8)


@st.composite
def _laid_out_arrays(draw):
    """An array in C, F, transposed or strided layout (0-3 dims, sides 0-5)."""
    dtype = draw(st.sampled_from(_DTYPES))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
    values = draw(hnp.arrays(dtype, shape))
    layout = draw(st.sampled_from(("C", "F", "transposed", "strided")))
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "transposed":
        return values.T
    if layout == "strided":
        spaced = np.zeros(tuple(2 * side for side in shape), dtype=dtype)
        strided = spaced[(..., *(slice(None, None, 2) for _ in shape))]
        strided[...] = values
        return strided
    return values


_CONTEXTS = st.recursive(
    _laid_out_arrays(),
    lambda children: (
        st.lists(children, max_size=3)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=3), children, max_size=3)
    ),
    max_leaves=8,
)


def _array_pairs(original, loaded):
    """Yield each original array with its loaded counterpart."""
    assert type(loaded) is type(original)
    if isinstance(original, np.ndarray):
        yield original, loaded
    elif isinstance(original, dict):
        assert loaded.keys() == original.keys()
        for key in original:
            yield from _array_pairs(original[key], loaded[key])
    else:
        assert len(loaded) == len(original)
        for old, new in zip(original, loaded):
            yield from _array_pairs(old, new)


class TestSharedContextProperty:
    @settings(max_examples=60, deadline=None)
    @given(tree=_CONTEXTS, repeated=_laid_out_arrays())
    def test_any_context_round_trips_byte_for_byte(self, tree, repeated):
        context = (tree, repeated, [repeated])
        with ArrayStore() as store:
            loaded = _ship(store, context)
        assert loaded[1] is loaded[2][0]
        for original, array in _array_pairs(context, loaded):
            assert array.dtype == original.dtype
            assert array.shape == original.shape
            assert array.tobytes() == original.tobytes()
            if original.flags.c_contiguous or original.flags.f_contiguous:
                assert not array.flags.writeable


class TestPruneAttachments:
    """Pruning must never unmap pages a live view still points into."""

    def test_busy_segments_survive_prune(self):
        store = ArrayStore()
        data = np.arange(8, dtype=float)
        handle = store.share(data)
        view = handle.load()
        shm.prune_attachments()
        assert handle.name in shm._ATTACHED  # shielded by the live view
        assert np.array_equal(view, data)  # pages still mapped
        del view
        shm.prune_attachments()
        assert handle.name not in shm._ATTACHED  # closable once views die
        store.close()

    def test_keep_shields_viewless_segments(self):
        store = ArrayStore()
        handle = store.share(np.ones(4))
        shm._attach_segment(handle.name)  # mapped, no views yet
        shm.prune_attachments(keep=(handle.name,))
        assert handle.name in shm._ATTACHED
        shm.prune_attachments()
        assert handle.name not in shm._ATTACHED
        store.close()


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
class TestLeakCheck:
    def test_lists_only_this_process_segments(self):
        """The engine tests' leak check counts another process's segments
        as none of its own, even one whose pid's hex starts with ours."""
        prefix = shm.segment_prefix()
        pid = os.getpid()
        ours = f"{prefix}_{pid:x}_{uuid.uuid4().hex[:12]}"
        theirs = [
            f"{prefix}_{other:x}_{uuid.uuid4().hex[:12]}" for other in (pid + 1, pid * 16)
        ]
        paths = [os.path.join("/dev/shm", name) for name in [ours, *theirs]]
        try:
            for path in paths:
                open(path, "wb").close()
            listed = _dev_shm_segments()
        finally:
            for path in paths:
                os.remove(path)
        assert ours in listed
        assert not listed & set(theirs)
