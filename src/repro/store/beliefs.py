"""Content-addressed on-disk spill of belief-prefix cache entries.

The paper's mining loop is sequential — each shown pattern updates the
background model — so the :class:`~repro.engine.cache.BeliefCache`
chain-hash keys identify one *belief state reached by one exact
history*. That makes the entries perfect content-addressed objects: the
key already commits to the bytes, so an entry file can be written once,
never rewritten, and shared by every process that derives the same key.

:class:`BeliefStore` persists :class:`~repro.engine.cache.CachedStep`
entries as single files::

    <root>/<key[:2]>/<key>.blf

    magic "SISDBLF1" | u64 header length | JSON header | pad | arrays

The JSON header holds the step document — the iteration and constraint
records of :mod:`repro.persist`, written with every numpy array as an
``{"__array__": i}`` reference into an array directory
(dtype/shape/offset) — and the raw array bytes follow 64-byte aligned,
so :meth:`get` reads the header and **memory-maps** each array payload
(``numpy.memmap``, read-only) instead of copying it onto the heap.
Warm prefixes over large datasets load at page-cache speed, and N
worker processes replaying the same prefix share one physical copy.

Writes are atomic (:func:`repro.store.atomic.write_atomic`) and
idempotent: two processes racing to store the same key both win,
bit-identically.

:class:`BeliefStoreHandle` is the picklable face of a store directory:
the service ships it to process-backend workers, and each worker
resolves it (once per process) into a fresh
:class:`~repro.engine.cache.BeliefCache` spilling to the shared
directory — which is how warm prefixes cross the process boundary that
the in-memory cache cannot.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.engine.cache import CachedStep
from repro.errors import EngineError, ReproError
from repro.persist import (
    decode_constraint,
    decode_iteration,
    encode_constraint,
    encode_iteration,
)
from repro.store.atomic import write_atomic

__all__ = ["BeliefStore", "BeliefStoreHandle"]

_MAGIC = b"SISDBLF1"
_ALIGN = 64
_SCHEMA = 1


# --------------------------------------------------------------------- #
# A CachedStep as persist's records, arrays by directory reference
# --------------------------------------------------------------------- #
def _encode_entry(entry: CachedStep) -> tuple[dict, list[np.ndarray]]:
    arrays: list[np.ndarray] = []

    def ref(array: np.ndarray) -> dict:
        arrays.append(np.ascontiguousarray(array))
        return {"__array__": len(arrays) - 1}

    doc = {
        "iteration": encode_iteration(entry.iteration, ref),
        "constraints": [encode_constraint(c, ref) for c in entry.constraints],
        "rng_state": entry.rng_state,
    }
    return doc, arrays


def _decode_entry(doc: dict, arrays: list[np.ndarray]) -> CachedStep:
    def deref(node: dict, dtype) -> np.ndarray:
        # The memmap view as stored: its dtype is the file's, never copied.
        return np.asarray(arrays[node["__array__"]])

    return CachedStep(
        iteration=decode_iteration(doc["iteration"], deref),
        constraints=tuple(decode_constraint(c, deref) for c in doc["constraints"]),
        rng_state=doc["rng_state"],
    )


# --------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------- #
@dataclass
class BeliefStoreStats:
    """Counters of one store's disk traffic."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0


class BeliefStore:
    """Content-addressed directory of spilled belief-cache entries.

    Give one to :class:`~repro.engine.cache.BeliefCache` as its
    ``spill`` and warm prefixes survive process restarts: every ``put``
    is written through to disk, every in-memory miss falls back to a
    (mmap-backed) disk read.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = BeliefStoreStats()
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        key = str(key)
        if not key or any(ch in key for ch in "/\\."):
            raise EngineError(f"invalid belief store key {key!r}")
        return self.root / key[:2] / f"{key}.blf"

    # ------------------------------ write ----------------------------- #
    def put(self, key: str, entry: CachedStep) -> None:
        """Write one entry; already-present keys are left untouched.

        Content addressing makes the skip safe: an existing file under
        this key decodes to the same entry.
        """
        path = self._path(key)
        if path.exists():
            return
        doc, arrays = _encode_entry(entry)
        directory = []
        offset = 0
        blobs: list[bytes] = []
        for array in arrays:
            pad = (-offset) % _ALIGN
            offset += pad
            blobs.append(b"\x00" * pad)
            payload = array.tobytes()
            directory.append(
                {
                    "dtype": array.dtype.str,
                    "shape": list(array.shape),
                    "offset": offset,
                    "nbytes": len(payload),
                }
            )
            blobs.append(payload)
            offset += len(payload)
        header = json.dumps(
            {"schema": _SCHEMA, "doc": doc, "arrays": directory},
            separators=(",", ":"),
            allow_nan=False,
        ).encode("utf-8")
        prefix_len = len(_MAGIC) + 8 + len(header)
        lead_pad = (-prefix_len) % _ALIGN
        # Array offsets are relative to the end of the padded header, so
        # the header can state them before knowing its own length.
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(
            path,
            [
                _MAGIC,
                len(header).to_bytes(8, "little"),
                header,
                b"\x00" * lead_pad,
                *blobs,
            ],
        )
        with self._lock:
            self.stats.stores += 1

    # ------------------------------ read ------------------------------ #
    def get(self, key: str) -> CachedStep | None:
        """Load one entry (arrays memory-mapped read-only), or None."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                magic = fh.read(len(_MAGIC))
                if magic != _MAGIC:
                    raise EngineError(f"{path}: not a belief store entry")
                header_len = int.from_bytes(fh.read(8), "little")
                header = json.loads(fh.read(header_len).decode("utf-8"))
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            return None
        except (OSError, ValueError, EngineError):
            # A torn or foreign file under a content-addressed key:
            # treat as a miss (the entry will be re-mined and the file
            # overwritten by a future atomic put of the same key).
            with self._lock:
                self.stats.errors += 1
                self.stats.misses += 1
            return None
        if header.get("schema") != _SCHEMA:
            with self._lock:
                self.stats.errors += 1
                self.stats.misses += 1
            return None
        base = len(_MAGIC) + 8 + header_len
        base += (-base) % _ALIGN
        try:
            arrays = [
                np.memmap(
                    path,
                    dtype=np.dtype(meta["dtype"]),
                    mode="r",
                    offset=base + meta["offset"],
                    shape=tuple(meta["shape"]),
                )
                for meta in header["arrays"]
            ]
            entry = _decode_entry(header["doc"], arrays)
        except (OSError, ValueError, KeyError, TypeError, ReproError):
            with self._lock:
                self.stats.errors += 1
                self.stats.misses += 1
            return None
        with self._lock:
            self.stats.hits += 1
        return entry

    # --------------------------- bookkeeping -------------------------- #
    def keys(self) -> list[str]:
        """Every spilled key currently on disk."""
        return sorted(p.stem for p in self.root.glob("*/*.blf"))

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.blf"))

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def handle(self) -> "BeliefStoreHandle":
        """A picklable reference workers can resolve into a warm cache."""
        return BeliefStoreHandle(str(self.root))


#: Per-process resolved caches, keyed by store root: every job a worker
#: process runs shares one in-memory LRU over the same spill directory.
_RESOLVED: dict[str, "object"] = {}
_RESOLVED_LOCK = threading.Lock()


@dataclass(frozen=True)
class BeliefStoreHandle:
    """Picklable pointer to a :class:`BeliefStore` directory.

    Crossing a process boundary costs one short string; the worker side
    calls :meth:`resolve` to get a process-local
    :class:`~repro.engine.cache.BeliefCache` spilling to the shared
    directory (memoized per directory, so repeated jobs in one worker
    keep their in-memory LRU warm).
    """

    root: str
    maxsize: int = 256

    def resolve(self):
        """Materialise the shared per-root cache this handle points at."""
        from repro.engine.cache import BeliefCache

        key = str(Path(self.root).resolve())
        with _RESOLVED_LOCK:
            cache = _RESOLVED.get(key)
            if cache is None:
                cache = BeliefCache(self.maxsize, spill=BeliefStore(self.root))
                _RESOLVED[key] = cache
        return cache
