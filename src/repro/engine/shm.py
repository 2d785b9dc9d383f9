"""Zero-copy shared-memory data transport (engine layer).

The SI scorer evaluates thousands of candidate subgroups per beam level
against the same immutable arrays — targets, its feature matrix,
background-model vectors. Shipping those arrays to pool workers through
``pickle`` copies them once per session (and once per worker); on the
scalability-sized datasets that copying *is* the dominant parallel
overhead. This module moves the arrays into
``multiprocessing.shared_memory`` instead:

- :class:`ArrayStore` owns the segments one producer creates, packs many
  arrays into one segment, and guarantees they are unlinked exactly once
  (``close``/context manager/GC finalizer — whichever comes first).
- :class:`SharedArrayRef` is the lightweight handle that replaces an
  array during pickling. Unpickling it *is* the reattach: the receiving
  process maps the segment and the ref materializes as a read-only
  ``numpy`` view over shared pages, so consumers never see handles.
- :func:`publish` walks a session context (a scorer, an objective, a
  tuple of either) and swaps every array declared via the
  ``__shm_arrays__`` class hook for a ref, returning a lightweight
  shippable clone. The originals are untouched.

The views are read-only on the worker side: a worker that mutated a
shared page would poison its siblings and break the engine's
bit-identical determinism contract, so mutation fails loudly instead.

Leak accounting: every segment created by this process is tracked in a
module-level registry until it is unlinked; :func:`live_segments`
exposes the registry so tests can assert that a run left nothing behind
in ``/dev/shm``.
"""

from __future__ import annotations

import atexit
import copy
import os
import pickle
import threading
import uuid
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import EngineError

__all__ = [
    "ArrayStore",
    "SharedArrayRef",
    "SharedBytesRef",
    "attach_array",
    "collect_arrays",
    "live_segments",
    "publish",
    "segment_prefix",
]

#: Prefix of every segment this library creates; leak checks (and a
#: worried operator listing ``/dev/shm``) can filter on it.
SEGMENT_PREFIX = "sisd"

#: 64-byte alignment for packed arrays (cache line / SIMD friendly).
_ALIGN = 64

#: Names created by *this process* and not yet unlinked.
_LIVE_SEGMENTS: set[str] = set()
_LIVE_LOCK = threading.Lock()

#: Attachment cache of the *consuming* process: segment name -> mapping.
#: Old sessions' segments are closed once no view over them survives.
_ATTACHED: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()
_ATTACHED_SOFT_CAP = 64

#: Weakrefs to the numpy views handed out per attached segment (a plain
#: list of ``weakref.ref``s — arrays are unhashable, so no WeakSet).
#: ``memoryview.release()``'s BufferError guard is NOT a reliable
#: liveness signal for ``np.ndarray(buffer=...)`` views (numpy may drop
#: its Py_buffer export while the array still points into the mapping,
#: so a close() can succeed and unmap pages a live view dereferences — a
#: segfault, not an exception). Track liveness explicitly instead: a
#: segment is closable only when every view handed out over it has been
#: garbage collected.
_ATTACHED_VIEWS: dict[str, list] = {}


def _segment_busy(name: str) -> bool:
    """True while any view handed out over ``name`` is still alive."""
    refs = _ATTACHED_VIEWS.get(name)
    if not refs:
        return False
    live = [ref for ref in refs if ref() is not None]
    _ATTACHED_VIEWS[name] = live
    return bool(live)


def segment_prefix() -> str:
    """The name prefix of every segment this library creates."""
    return SEGMENT_PREFIX


def live_segments() -> frozenset[str]:
    """Names of segments this process created and has not unlinked."""
    with _LIVE_LOCK:
        return frozenset(_LIVE_SEGMENTS)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Map a segment by name, caching the mapping per process.

    On Python < 3.13 attaching registers the segment with the resource
    tracker exactly like creating it does. That is safe here — pool
    workers inherit the *producer's* tracker (multiprocessing passes the
    tracker fd to fork/spawn/forkserver children alike), its name cache
    is a set, so the attach-side registration is an idempotent no-op and
    the producer's unlink unregisters exactly once. Do not "fix" this
    with ``resource_tracker.unregister`` in the consumer: that removes
    the shared entry early and the producer's unlink then crashes the
    tracker with a KeyError.
    """
    segment = _ATTACHED.get(name)
    if segment is not None:
        _ATTACHED.move_to_end(name)
        return segment
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        raise EngineError(
            f"shared-memory segment {name!r} is gone — it was unlinked "
            f"before this consumer attached (session closed too early?)"
        ) from None
    _ATTACHED[name] = segment
    if len(_ATTACHED) > _ATTACHED_SOFT_CAP:
        # The segment just mapped has no views yet — shield it.
        prune_attachments(keep=(name,))
    return segment


def prune_attachments(keep: tuple = ()) -> None:
    """Close cached mappings with no surviving views.

    A long-lived warm worker accumulates mappings of segments whose
    producers have long unlinked them; the pages stay resident until the
    mapping closes. Workers call this when a *new* session's context
    arrives (the old session's views have just been dropped), bounding
    resident shared memory to roughly the active session. Liveness comes
    from the per-segment view registry — see :data:`_ATTACHED_VIEWS` for
    why BufferError alone is not a safe guard. ``keep`` names segments
    to shield regardless of liveness (e.g. one mapped but not yet
    viewed).
    """
    for name in list(_ATTACHED):
        if name in keep or _segment_busy(name):
            continue
        try:
            _ATTACHED[name].close()
        except BufferError:  # pragma: no cover - belt and braces
            continue
        del _ATTACHED[name]
        _ATTACHED_VIEWS.pop(name, None)


def _close_attachments() -> None:  # pragma: no cover - exercised at exit
    for segment in _ATTACHED.values():
        try:
            segment.close()
        except Exception:
            pass
    _ATTACHED.clear()


atexit.register(_close_attachments)


def attach_array(
    name: str, offset: int, shape: tuple, dtype: str
) -> np.ndarray:
    """Materialize a read-only view over a shared segment.

    This is the unpickle target of :class:`SharedArrayRef`: the consumer
    process maps the segment (cached) and wraps the bytes in place — no
    copy is made, and the view rejects writes.
    """
    segment = _attach_segment(name)
    array = np.ndarray(
        tuple(shape), dtype=np.dtype(dtype), buffer=segment.buf, offset=offset
    )
    array.flags.writeable = False
    _ATTACHED_VIEWS.setdefault(name, []).append(weakref.ref(array))
    return array


def _load_bytes(name: str, size: int) -> bytes:
    """Unpickle target of :class:`SharedBytesRef`: read a raw payload."""
    segment = _attach_segment(name)
    return bytes(segment.buf[:size])


@dataclass(frozen=True)
class SharedArrayRef:
    """Handle to one array inside a shared segment.

    Pickling a ref ships four small fields; *unpickling it returns the
    array itself* (a read-only zero-copy view), so code downstream of a
    pickle boundary never has to know refs exist. On the producing side
    (no pickle round-trip) call :meth:`resolve`.
    """

    name: str
    offset: int
    shape: tuple
    dtype: str

    def resolve(self) -> np.ndarray:
        """The read-only view this ref describes (producer-side access)."""
        return attach_array(self.name, self.offset, self.shape, self.dtype)

    def __reduce__(self):
        return (attach_array, (self.name, self.offset, self.shape, self.dtype))


@dataclass(frozen=True)
class SharedBytesRef:
    """Handle to a raw byte payload (e.g. a pickled context) in a segment.

    Unlike :class:`SharedArrayRef` this unpickles as *itself* — callers
    decide when to :meth:`load`, so a cached consumer can skip the read
    entirely (the warm-worker fast path).
    """

    name: str
    size: int

    def load(self) -> bytes:
        """Read the payload out of shared memory."""
        return _load_bytes(self.name, self.size)


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class ArrayStore:
    """Owner of the shared segments one producer (session) creates.

    Every ``pack``/``share_bytes`` call creates one segment; the store
    remembers them all and :meth:`close` unlinks them exactly once —
    explicitly, via the context manager, or at garbage collection
    through a ``weakref.finalize``-style guard (``__del__`` here, since
    the store holds no cycles). Consumers attach read-only and never
    unlink; see :func:`_untrack` for why.
    """

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Producing
    # ------------------------------------------------------------------ #
    def _new_segment(self, size: int) -> shared_memory.SharedMemory:
        if self._closed:
            raise EngineError("ArrayStore is closed")
        name = f"{SEGMENT_PREFIX}_{os.getpid():x}_{uuid.uuid4().hex[:12]}"
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=max(size, 1)
        )
        with _LIVE_LOCK:
            _LIVE_SEGMENTS.add(segment.name)
        with self._lock:
            self._segments[segment.name] = segment
        return segment

    def pack(self, arrays: list[np.ndarray]) -> list[SharedArrayRef]:
        """Copy arrays into one new segment; returns their refs in order.

        Arrays are laid out back to back at 64-byte alignment in C
        order, so a ref's view has the exact bytes (and contiguity) of
        ``np.ascontiguousarray`` of the original.
        """
        specs = []
        offset = 0
        for array in arrays:
            array = np.asarray(array)
            if array.dtype.hasobject:
                raise EngineError(
                    f"cannot share object-dtype array (dtype {array.dtype})"
                )
            offset = _aligned(offset)
            specs.append((array, offset))
            offset += array.nbytes
        segment = self._new_segment(offset)
        refs = []
        for array, off in specs:
            view = np.ndarray(
                array.shape, dtype=array.dtype, buffer=segment.buf, offset=off
            )
            np.copyto(view, array)
            refs.append(
                SharedArrayRef(
                    name=segment.name,
                    offset=off,
                    shape=tuple(array.shape),
                    dtype=array.dtype.str,
                )
            )
            del view  # release the buffer export before any later close
        return refs

    def share_array(self, array: np.ndarray) -> SharedArrayRef:
        """Put one array in its own segment."""
        return self.pack([array])[0]

    def share_bytes(self, payload: bytes) -> SharedBytesRef:
        """Put a raw byte payload (a pickled context) in its own segment."""
        segment = self._new_segment(len(payload))
        segment.buf[: len(payload)] = payload
        return SharedBytesRef(name=segment.name, size=len(payload))

    # ------------------------------------------------------------------ #
    # Releasing
    # ------------------------------------------------------------------ #
    def _destroy(self, segment: shared_memory.SharedMemory) -> None:
        try:
            segment.close()
        finally:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            with _LIVE_LOCK:
                _LIVE_SEGMENTS.discard(segment.name)

    def release(self, ref: SharedArrayRef | SharedBytesRef) -> None:
        """Unlink one ref's segment early (before the store closes).

        Consumers already attached keep their mapping — on POSIX an
        unlinked segment lives until the last mapping closes — but new
        attaches will fail, so release only after every ``map`` that
        ships the ref has returned.
        """
        with self._lock:
            segment = self._segments.pop(ref.name, None)
        if segment is not None:
            self._destroy(segment)

    def close(self) -> None:
        """Unlink every remaining segment; idempotent."""
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
            self._closed = True
        for segment in segments:
            self._destroy(segment)

    @property
    def segment_names(self) -> tuple[str, ...]:
        """Names of this store's still-linked segments."""
        with self._lock:
            return tuple(self._segments)

    def __enter__(self) -> "ArrayStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrayStore(segments={len(self.segment_names)})"


# --------------------------------------------------------------------- #
# Context publishing: the __shm_arrays__ walk
# --------------------------------------------------------------------- #
def collect_arrays(obj, found: dict[int, np.ndarray] | None = None) -> dict:
    """Gather every shareable array reachable from ``obj``, deduplicated.

    The walk descends into tuples/lists/dicts unconditionally and into
    objects exactly through their ``__shm_arrays__`` class hook (a tuple
    of attribute names); an attribute may hold an array, a container of
    arrays, or a nested object with its own hook. Arrays are keyed by
    identity so one array referenced twice ships once.
    """
    if found is None:
        found = {}
    if isinstance(obj, np.ndarray):
        if not obj.dtype.hasobject:
            found.setdefault(id(obj), obj)
        return found
    if isinstance(obj, (tuple, list)):
        for value in obj:
            collect_arrays(value, found)
        return found
    if isinstance(obj, dict):
        for value in obj.values():
            collect_arrays(value, found)
        return found
    names = getattr(type(obj), "__shm_arrays__", None)
    if names:
        for name in names:
            collect_arrays(getattr(obj, name), found)
    return found


def _swap(obj, mapping: dict[int, SharedArrayRef]):
    """Rebuild ``obj`` with every collected array replaced by its ref."""
    if isinstance(obj, np.ndarray):
        return mapping.get(id(obj), obj)
    if isinstance(obj, tuple):
        return tuple(_swap(value, mapping) for value in obj)
    if isinstance(obj, list):
        return [_swap(value, mapping) for value in obj]
    if isinstance(obj, dict):
        return {key: _swap(value, mapping) for key, value in obj.items()}
    names = getattr(type(obj), "__shm_arrays__", None)
    if names:
        clone = copy.copy(obj)
        for name in names:
            # object.__setattr__ so frozen dataclasses publish too.
            object.__setattr__(clone, name, _swap(getattr(obj, name), mapping))
        return clone
    return obj


def publish(context, store: ArrayStore):
    """A lightweight clone of ``context`` with its arrays in ``store``.

    The original context is untouched; the clone carries
    :class:`SharedArrayRef` handles in the array slots, which unpickle
    straight back into (read-only, zero-copy) arrays in the consumer.
    If nothing declares shareable arrays the context is returned as is.
    """
    found = collect_arrays(context)
    if not found:
        return context
    refs = store.pack(list(found.values()))
    mapping = dict(zip(found.keys(), refs))
    return _swap(context, mapping)


def payload_nbytes(context) -> int:
    """Pickled size of a context shipped the copying way (diagnostics)."""
    return len(pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL))
