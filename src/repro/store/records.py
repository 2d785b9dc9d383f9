"""The durable job store: one directory holding everything a service owns.

Layout of a store root::

    <root>/records/<job_id>.json   one record document per job
    <root>/meta.json               server metadata (stream-generation counter)
    <root>/beliefs/                content-addressed belief-prefix spill

Every file is written by :func:`repro.store.atomic.write_atomic`, so a
stored record is always a whole document: the last one put, or (after
a crash mid-put) the one before it. Opening a store removes the temp
files such a crash leaves in ``records/`` and in the root; those in
``beliefs/`` stay, since worker processes of a server that died may
still be writing there.

Record documents reuse the repo's existing wire vocabulary — jobs via
:func:`repro.persist.job_to_dict`, results via
:func:`repro.persist.job_result_to_dict`, errors via the
``{"type", "message"}`` shape of :func:`repro.server.wire.error_to_wire`
— so a stored record is exactly what the HTTP layer would have sent,
and restoring one is bit-identical by construction.

Earlier versions kept the records in a sqlite table (``records.db``)
plus a JSONL journal of the puts and deletes made since
(``wal.jsonl``). Opening such a store imports its records once.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from pathlib import Path
from typing import Any

from repro.errors import EngineError
from repro.store.atomic import TMP_SUFFIX, fsync_dir, write_atomic

__all__ = ["JobStore", "RECORD_SCHEMA"]

#: Version stamp on every stored record document.
RECORD_SCHEMA = 1

#: Record states the service may persist.
_STATES = ("queued", "running", "done", "failed", "cancelled", "expired")

#: What an earlier version's store holds in place of ``records/``.
_LEGACY = ("records.db", "wal.jsonl")


def _file_name(job_id: object) -> str:
    """The record file of ``job_id``, which must be a plain file name."""
    name = str(job_id)
    if not name or name.startswith(".") or any(ch in name for ch in "/\\\0"):
        raise EngineError(f"job id {name!r} is not a plain file name")
    return f"{name}.json"


def _read(path: Path) -> dict[str, Any] | None:
    """One record document, or ``None`` if the file is gone or not JSON."""
    try:
        doc: dict[str, Any] = json.loads(path.read_bytes())
    except (FileNotFoundError, ValueError):
        return None
    return doc


def _legacy_records(root: Path) -> dict[str, dict[str, Any]]:
    """The records an earlier version's sqlite table and journal held.

    The journal replays as that version replayed it: puts and deletes
    apply in order, and the first line that is unterminated (a torn
    append), not JSON, or not a put or delete ends the replay.
    """
    import sqlite3  # only a store written by an earlier version needs it

    docs: dict[str, dict[str, Any]] = {}
    if (root / "records.db").exists():
        conn = sqlite3.connect(str(root / "records.db"))
        try:
            for key, doc in conn.execute("SELECT key, doc FROM records"):
                docs[key] = json.loads(doc)
        finally:
            conn.close()
    if (root / "wal.jsonl").exists():
        with open(root / "wal.jsonl", encoding="utf-8") as fh:
            for line in fh:
                if not line.endswith("\n"):
                    break  # a torn append
                if not line.strip():
                    continue
                try:
                    op = json.loads(line)
                except ValueError:
                    break
                if not isinstance(op, dict) or op.get("op") not in ("put", "delete"):
                    break
                if op["op"] == "put":
                    docs[op["key"]] = op["doc"]
                else:
                    docs.pop(op["key"], None)
    return docs


class JobStore:
    """Durable table of scheduler records, keyed by job id.

    Pins the directory layout, validates record documents on the way
    in, and owns the server's restart *generation* counter
    (``meta.json``). Puts from several threads are safe, each publishing
    a whole file; putting one record's documents in order is the
    caller's part (:class:`~repro.engine.service.MiningService` writes
    each record's states in the order they happened).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._dir = self.root / "records"
        self._closed = False
        self._meta_lock = threading.Lock()
        self._import_legacy()
        self._dir.mkdir(exist_ok=True)
        fsync_dir(self.root)  # the records/ entry outlives a crash too
        for directory in (self.root, self._dir):
            for stray in directory.glob(f"*{TMP_SUFFIX}"):
                stray.unlink(missing_ok=True)

    def _import_legacy(self) -> None:
        """Move an earlier version's records onto one file per record.

        The records are written under ``records.import`` and that
        directory is renamed to ``records``: the rename commits the
        import, so a crash before it imports again on the next open, and
        a crash after it only leaves the old files for the next open to
        remove. A store that has ``records/`` never imports again.
        """
        legacy = [self.root / name for name in _LEGACY]
        if not self._dir.exists() and any(path.exists() for path in legacy):
            staging = self.root / "records.import"
            shutil.rmtree(staging, ignore_errors=True)
            staging.mkdir()
            for job_id, doc in _legacy_records(self.root).items():
                self._write(staging / _file_name(job_id), doc)
            os.replace(staging, self._dir)
            fsync_dir(self.root)
        for path in legacy:
            path.unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # Records
    # ------------------------------------------------------------------ #
    def _write(self, path: Path, doc: dict[str, Any]) -> None:
        if self._closed:
            raise EngineError("job store is closed")
        body = json.dumps(doc, separators=(",", ":"), allow_nan=False)
        write_atomic(path, [body.encode("utf-8")])

    def put(self, doc: dict[str, Any]) -> None:
        """Durably replace the record stored under the document's job id."""
        if doc.get("schema") != RECORD_SCHEMA:
            raise EngineError(
                f"record document must carry schema={RECORD_SCHEMA}, "
                f"got {doc.get('schema')!r}"
            )
        job_id = doc.get("job_id")
        if not job_id:
            raise EngineError("record document is missing job_id")
        if doc.get("state") not in _STATES:
            raise EngineError(f"record state {doc.get('state')!r} is not storable")
        self._write(self._dir / _file_name(job_id), doc)

    def get(self, job_id: str) -> dict[str, Any] | None:
        """The stored record for ``job_id``, or ``None``."""
        return _read(self._dir / _file_name(job_id))

    def delete(self, job_id: str) -> None:
        """Durably forget ``job_id`` (a no-op if absent)."""
        path = self._dir / _file_name(job_id)
        if self._closed:
            raise EngineError("job store is closed")
        try:
            path.unlink()
        except FileNotFoundError:
            return
        fsync_dir(self._dir)

    def records(self) -> list[dict[str, Any]]:
        """Every stored record, ordered by submission sequence number."""
        docs = [
            doc for doc in map(_read, self._dir.glob("*.json")) if doc is not None
        ]
        docs.sort(key=lambda doc: (doc.get("seq", 0), doc.get("job_id", "")))
        return docs

    def __len__(self) -> int:
        return sum(1 for _ in self._dir.glob("*.json"))

    def __contains__(self, job_id: str) -> bool:
        return (self._dir / _file_name(job_id)).exists()

    # ------------------------------------------------------------------ #
    # Server metadata
    # ------------------------------------------------------------------ #
    @property
    def meta_path(self) -> Path:
        return self.root / "meta.json"

    def next_generation(self) -> int:
        """Atomically advance and return the stream-generation counter.

        Each server process serving this store gets a distinct,
        monotonically increasing generation — the marker SSE clients use
        to tell a restart apart from sequence-number redelivery.
        """
        with self._meta_lock:
            meta: dict[str, Any] = {}
            try:
                meta = json.loads(self.meta_path.read_text(encoding="utf-8"))
            except FileNotFoundError:
                pass
            except ValueError:
                pass  # corrupt meta: restart the counter rather than die
            if not isinstance(meta, dict):
                meta = {}
            generation = int(meta.get("generation", 0)) + 1
            meta["generation"] = generation
            body = json.dumps(meta, separators=(",", ":"))
            write_atomic(self.meta_path, [body.encode("utf-8")])
            return generation

    # ------------------------------------------------------------------ #
    # Belief spill
    # ------------------------------------------------------------------ #
    @property
    def belief_dir(self) -> Path:
        """Directory for the content-addressed belief-prefix spill."""
        return self.root / "beliefs"

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Refuse further writes (idempotent); every put is already on disk."""
        self._closed = True

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
