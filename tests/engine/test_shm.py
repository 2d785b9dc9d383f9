"""Tests for the zero-copy shared-memory transport (repro.engine.shm)."""

import pickle

import numpy as np
import pytest

from repro.datasets import make_synthetic
from repro.engine import shm
from repro.engine.shm import ArrayStore, SharedArrayRef, SharedBytesRef, publish
from repro.errors import EngineError
from repro.model.background import BackgroundModel
from repro.search.beam import LocationICScorer
from repro.search.spread import SpreadObjective


def _attach(ref: SharedArrayRef) -> np.ndarray:
    """Reattach a ref the way a consumer does: by unpickling it."""
    return pickle.loads(pickle.dumps(ref))


def _pickled_nbytes(context) -> int:
    return len(pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL))


class TestArrayStore:
    def test_pack_roundtrips_values_and_dtypes(self):
        with ArrayStore() as store:
            arrays = [
                np.arange(12, dtype=float).reshape(3, 4),
                np.array([True, False, True]),
                np.arange(5, dtype=np.int64),
            ]
            refs = store.pack(arrays)
            for ref, original in zip(refs, arrays):
                restored = pickle.loads(pickle.dumps(ref))
                assert np.array_equal(restored, original)
                assert restored.dtype == original.dtype
                assert restored.shape == original.shape

    def test_views_are_read_only(self):
        with ArrayStore() as store:
            ref = store.pack([np.zeros(4)])[0]
            view = _attach(ref)
            with pytest.raises(ValueError):
                view[0] = 1.0

    def test_non_contiguous_arrays_pack_exactly(self):
        matrix = np.arange(20, dtype=float).reshape(4, 5)
        column = matrix[:, 2]  # stride > itemsize
        with ArrayStore() as store:
            ref = store.pack([column])[0]
            assert np.array_equal(_attach(ref), column)

    def test_object_dtype_rejected(self):
        with ArrayStore() as store:
            with pytest.raises(EngineError, match="object-dtype"):
                store.pack([np.array([object()])])

    def test_share_bytes_roundtrip(self):
        with ArrayStore() as store:
            ref = store.share_bytes(b"hello shared world")
            assert isinstance(ref, SharedBytesRef)
            assert ref.load() == b"hello shared world"
            # Unlike array refs, byte refs unpickle as themselves.
            assert pickle.loads(pickle.dumps(ref)) == ref

    def test_close_unlinks_everything_and_is_idempotent(self):
        store = ArrayStore()
        store.pack([np.ones(3), np.zeros(2)])
        store.share_bytes(b"x")
        assert store.segment_names
        assert shm.live_segments()
        store.close()
        assert store.segment_names == ()
        assert shm.live_segments() == frozenset()
        store.close()  # second close is a no-op

    def test_closed_store_rejects_new_segments(self):
        store = ArrayStore()
        store.close()
        with pytest.raises(EngineError, match="closed"):
            store.pack([np.ones(1)])

    def test_attach_after_unlink_is_a_typed_error(self):
        store = ArrayStore()
        ref = store.pack([np.arange(64, dtype=float)])[0]
        store.close()
        assert ref.name not in shm.live_segments()
        with pytest.raises(EngineError, match="unlinked"):
            _attach(SharedArrayRef(ref.name, ref.offset, ref.shape, ref.dtype))


class TestPublish:
    def test_strips_declared_arrays_without_touching_original(self):
        dataset = make_synthetic(0)
        model = BackgroundModel.from_targets(dataset.targets)
        scorer = LocationICScorer(model, dataset.targets)
        targets_before = scorer.targets
        with ArrayStore() as store:
            stripped = publish(scorer, store)
            assert scorer.targets is targets_before  # original untouched
            assert isinstance(stripped.targets, SharedArrayRef)
            restored = pickle.loads(pickle.dumps(stripped))
        assert np.array_equal(restored.targets, scorer.targets)
        assert np.array_equal(restored.features, scorer.features)
        assert np.array_equal(
            restored.model.labels, scorer.model.labels
        )
        assert np.array_equal(restored.model.prior.mean, model.prior.mean)

    def test_restored_scorer_scores_bit_identically(self):
        dataset = make_synthetic(0)
        model = BackgroundModel.from_targets(dataset.targets)
        scorer = LocationICScorer(model, dataset.targets)
        masks = np.zeros((3, dataset.n_rows), dtype=bool)
        masks[0, :10] = True
        masks[1, 5:40] = True
        masks[2, ::7] = True
        reference_ics, reference_means = scorer.score_masks(masks)
        with ArrayStore() as store:
            restored = pickle.loads(pickle.dumps(publish(scorer, store)))
            ics, means = restored.score_masks(masks)
        assert np.array_equal(ics, reference_ics)
        assert np.array_equal(means, reference_means)

    def test_spread_objective_publishes(self):
        dataset = make_synthetic(0)
        model = BackgroundModel.from_targets(dataset.targets)
        objective = SpreadObjective(model, np.arange(40), dataset.targets)
        w = np.zeros(objective.dim)
        w[0] = 1.0
        reference = objective.value(w)
        with ArrayStore() as store:
            context = publish((objective, 300, 1e-9), store)
            restored, max_iterations, tol = pickle.loads(pickle.dumps(context))
            assert (max_iterations, tol) == (300, 1e-9)
            assert restored.value(w) == reference

    def test_shared_array_referenced_twice_ships_once(self):
        array = np.arange(6, dtype=float)
        with ArrayStore() as store:
            stripped = publish((array, array), store)
            assert stripped[0] is stripped[1]
            assert len(store.segment_names) == 1
            a, b = pickle.loads(pickle.dumps(stripped))
        assert np.array_equal(a, array)
        assert np.array_equal(b, array)

    def test_context_without_shareable_arrays_passes_through(self):
        context = {"max_iterations": 300, "tol": 1e-9}
        with ArrayStore() as store:
            assert publish(context, store) is context
            assert store.segment_names == ()

    def test_payload_shrinks_at_least_5x_on_scorer(self):
        """Acceptance: per-session context-shipping payload >= 5x smaller."""
        dataset = make_synthetic(0)
        model = BackgroundModel.from_targets(dataset.targets)
        scorer = LocationICScorer(model, dataset.targets)
        copied = _pickled_nbytes(scorer)
        with ArrayStore() as store:
            shared = _pickled_nbytes(publish(scorer, store))
        assert shared * 5 <= copied, (
            f"expected >=5x reduction, got {copied} -> {shared} bytes"
        )


class TestPruneAttachments:
    """Pruning must never unmap pages a live view still points into."""

    def test_busy_segments_survive_prune(self):
        store = ArrayStore()
        data = np.arange(8, dtype=float)
        ref = store.pack([data])[0]
        view = _attach(ref)
        shm.prune_attachments()
        assert ref.name in shm._ATTACHED  # shielded by the live view
        assert np.array_equal(view, data)  # pages still mapped
        del view
        shm.prune_attachments()
        assert ref.name not in shm._ATTACHED  # closable once views die
        store.close()

    def test_keep_shields_viewless_segments(self):
        store = ArrayStore()
        ref = store.pack([np.ones(4)])[0]
        shm._attach_segment(ref.name)  # mapped, no views yet
        shm.prune_attachments(keep=(ref.name,))
        assert ref.name in shm._ATTACHED
        shm.prune_attachments()
        assert ref.name not in shm._ATTACHED
        store.close()
