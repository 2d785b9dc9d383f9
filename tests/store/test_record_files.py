"""JobStore on disk: one atomically replaced file per record.

A record is ``<root>/records/<job_id>.json``, written whole by
:func:`repro.store.atomic.write_atomic`, so a put that dies halfway
leaves the previous document readable. A store written by an earlier
version (a sqlite table plus a JSONL journal) is imported once on open.
"""

import json
import os
import sqlite3
import subprocess
import sys

import pytest

from repro.errors import EngineError
from repro.store import RECORD_SCHEMA, JobStore

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _doc(job_id="j-1", state="done", seq=0, **extra):
    doc = {
        "schema": RECORD_SCHEMA,
        "job_id": job_id,
        "state": state,
        "seq": seq,
        "job": {"dataset": "synthetic"},
        "result": None,
        "error": None,
    }
    doc.update(extra)
    return doc


def _legacy_store(root, rows, journal):
    """A store as earlier versions left it: sqlite rows plus a journal."""
    conn = sqlite3.connect(str(root / "records.db"))
    try:
        conn.execute(
            "CREATE TABLE records (key TEXT PRIMARY KEY, doc TEXT NOT NULL)"
        )
        conn.executemany(
            "INSERT INTO records (key, doc) VALUES (?, ?)",
            [(doc["job_id"], json.dumps(doc)) for doc in rows],
        )
        conn.commit()
    finally:
        conn.close()
    (root / "wal.jsonl").write_text(journal, encoding="utf-8")


class TestRecordFiles:
    def test_one_json_file_per_record(self, tmp_path):
        with JobStore(tmp_path) as store:
            store.put(_doc("j-1"))
            store.put(_doc("j-2", seq=1))
            store.delete("j-2")
            store.delete("never-stored")
            assert store.get("j-2") is None
        assert sorted(p.name for p in (tmp_path / "records").iterdir()) == [
            "j-1.json"
        ]
        assert json.loads((tmp_path / "records" / "j-1.json").read_text()) == (
            _doc("j-1")
        )

    def test_floats_round_trip_exactly_and_get_returns_a_copy(self, tmp_path):
        doc = _doc(updated_at=1.0 / 3.0, submitted_at=2.2250738585072014e-308)
        with JobStore(tmp_path) as store:
            store.put(doc)
            store.get("j-1")["job"]["dataset"] = "changed"
        with JobStore(tmp_path) as reopened:
            assert reopened.get("j-1") == doc

    @pytest.mark.parametrize("job_id", ["../x", "a/b", "a\\b", ".hidden"])
    def test_a_job_id_that_is_not_a_plain_file_name_is_refused(
        self, tmp_path, job_id
    ):
        with JobStore(tmp_path) as store:
            with pytest.raises(EngineError):
                store.put(_doc(job_id))
            for call in (store.get, store.delete):
                with pytest.raises(EngineError):
                    call(job_id)
        assert not (tmp_path / "x.json").exists()
        assert list((tmp_path / "records").iterdir()) == []

    def test_a_closed_store_refuses_writes(self, tmp_path):
        store = JobStore(tmp_path)
        store.put(_doc())
        store.close()
        store.close()  # idempotent
        with pytest.raises(EngineError):
            store.put(_doc(state="failed"))
        with pytest.raises(EngineError):
            store.delete("j-1")
        assert store.get("j-1")["state"] == "done"

    def test_a_put_killed_before_its_rename_keeps_the_previous_document(
        self, tmp_path
    ):
        with JobStore(tmp_path) as store:
            store.put(_doc(state="running"))
        # The child dies after the temp file is written and fsynced, at
        # the moment it would publish it.
        script = (
            "import os, sys\n"
            "from repro.store import JobStore\n"
            "store = JobStore(sys.argv[1])\n"
            "os.replace = lambda src, dst: os._exit(3)\n"
            f"store.put({_doc(state='done')!r})\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        child = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], env=env, timeout=60
        )
        assert child.returncode == 3
        strays = list((tmp_path / "records").glob("*.tmp"))
        assert len(strays) == 1
        with JobStore(tmp_path) as reopened:
            assert reopened.get("j-1")["state"] == "running"
            assert len(reopened) == 1
        assert not strays[0].exists()


class TestLegacyImport:
    ROWS = [_doc("j-1", state="queued"), _doc("j-2", seq=1)]
    JOURNAL = (
        json.dumps({"op": "put", "key": "j-1", "doc": _doc("j-1")}) + "\n"
        + json.dumps({"op": "delete", "key": "j-2"}) + "\n"
        + "\n"
        + json.dumps({"op": "put", "key": "j-3", "doc": _doc("j-3", seq=2)})
        + "\n"
        # A crash mid-append: the last line never got its newline.
        + '{"op": "put", "key": "j-4", "doc": {"schema"'
    )

    def test_recovers_what_the_table_and_journal_held(self, tmp_path):
        _legacy_store(tmp_path, self.ROWS, self.JOURNAL)
        with JobStore(tmp_path) as store:
            assert store.records() == [_doc("j-1"), _doc("j-3", seq=2)]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records"]

    def test_imports_once(self, tmp_path):
        _legacy_store(tmp_path, self.ROWS, self.JOURNAL)
        with JobStore(tmp_path) as store:
            store.put(_doc("j-5", seq=5))
        # What a crash after the import's commit leaves: the old files.
        _legacy_store(tmp_path, [_doc("j-9", seq=9)], "")
        with JobStore(tmp_path) as store:
            assert [d["job_id"] for d in store.records()] == ["j-1", "j-3", "j-5"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records"]

    def test_an_import_cut_short_runs_again(self, tmp_path):
        _legacy_store(tmp_path, self.ROWS, self.JOURNAL)
        # What a crash before the import's commit leaves: a partial
        # staging directory next to the untouched old files.
        (tmp_path / "records.import").mkdir()
        (tmp_path / "records.import" / "j-1.json").write_text("{")
        with JobStore(tmp_path) as store:
            assert store.records() == [_doc("j-1"), _doc("j-3", seq=2)]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records"]
