"""JobStore: durable job records, validation, and the generation counter."""

import pytest

from repro.errors import EngineError
from repro.store import RECORD_SCHEMA, JobStore


def _doc(job_id="j-1", state="done", seq=0, **extra):
    doc = {
        "schema": RECORD_SCHEMA,
        "job_id": job_id,
        "state": state,
        "seq": seq,
        "submitted_at": 0.0,
        "updated_at": 0.0,
        "job": {"dataset": "synthetic"},
        "result": None,
        "error": None,
    }
    doc.update(extra)
    return doc


class TestRecords:
    def test_put_get_roundtrip(self, tmp_path):
        with JobStore(tmp_path) as store:
            store.put(_doc("j-1"))
            assert store.get("j-1")["job_id"] == "j-1"
            assert store.get("nope") is None
            assert "j-1" in store and len(store) == 1

    def test_records_sorted_by_seq(self, tmp_path):
        with JobStore(tmp_path) as store:
            store.put(_doc("j-3", seq=2))
            store.put(_doc("j-1", seq=0))
            store.put(_doc("j-2", seq=1))
            assert [d["job_id"] for d in store.records()] == ["j-1", "j-2", "j-3"]

    def test_survives_reopen(self, tmp_path):
        with JobStore(tmp_path) as store:
            store.put(_doc("j-1", state="queued"))
            store.put(_doc("j-1", state="done"))
            store.put(_doc("j-2", state="failed", seq=1))
            store.delete("j-2")
        with JobStore(tmp_path) as reopened:
            assert [d["job_id"] for d in reopened.records()] == ["j-1"]
            assert reopened.get("j-1")["state"] == "done"

    def test_rejects_malformed_documents(self, tmp_path):
        with JobStore(tmp_path) as store:
            with pytest.raises(EngineError):
                store.put({"job_id": "j-1"})  # no schema
            with pytest.raises(EngineError):
                store.put(_doc(state="sideways"))  # unknown state
            bad = _doc()
            bad.pop("job_id")
            with pytest.raises(EngineError):
                store.put(bad)


class TestGeneration:
    def test_monotone_across_reopens(self, tmp_path):
        with JobStore(tmp_path) as store:
            first = store.next_generation()
            second = store.next_generation()
        with JobStore(tmp_path) as reopened:
            third = reopened.next_generation()
        assert first < second < third

    def test_corrupt_meta_restarts_counting(self, tmp_path):
        with JobStore(tmp_path) as store:
            store.next_generation()
            store.meta_path.write_text("{not json")
            # Corruption is tolerated, not fatal: counting restarts.
            assert isinstance(store.next_generation(), int)

    def test_belief_dir_is_inside_the_store(self, tmp_path):
        with JobStore(tmp_path) as store:
            assert store.belief_dir == tmp_path / "beliefs"
