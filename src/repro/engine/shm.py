"""Zero-copy shared-memory context transport (engine layer).

The SI scorer evaluates thousands of candidate subgroups per beam level
against the same immutable arrays — targets, its feature matrix,
background-model vectors. Shipping those arrays to pool workers through
``pickle`` copies them once per session (and once per worker); on the
scalability-sized datasets that copying *is* the dominant parallel
overhead. This module moves the arrays into
``multiprocessing.shared_memory`` instead, in one format for every
context:

- :meth:`ArrayStore.share` pickles a session context (a scorer, an
  objective, a tuple of either) once with pickle protocol 5, which
  hands every contiguous ``numpy`` array to a buffer callback instead
  of copying it into the stream. The stream and those out-of-band
  buffers go into one segment, and the caller gets a small
  :class:`SharedContext` handle. The original context is untouched.
- :meth:`SharedContext.load` maps the segment and unpickles the context
  over read-only views of the buffers, so every contiguous array comes
  back as a zero-copy view of shared pages. Non-contiguous and object
  arrays travel inside the stream as private copies.

No model or search class declares what ships: pickle decides, so an
array a scorer gains later is shared without anyone opting in.

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
import os
import pickle
import threading
import uuid
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.errors import EngineError

__all__ = [
    "ArrayStore",
    "SharedContext",
    "live_segments",
    "segment_prefix",
]

#: Prefix of every segment this library creates; leak checks (and a
#: worried operator listing ``/dev/shm``) can filter on it.
SEGMENT_PREFIX = "sisd"

#: 64-byte alignment for out-of-band buffers (cache line / SIMD friendly).
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
#: garbage collected. An unpickled array keeps its buffer's view as its
#: ``.base``, so the view lives exactly as long as some array over it.
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


@dataclass(frozen=True)
class SharedContext:
    """Handle to one context pickled into a shared segment.

    It holds the segment name, the size of the pickle stream at the
    segment's start, and each out-of-band buffer's ``(offset, nbytes)``.
    The handle pickles as itself, so a warm consumer that already holds
    the context never reads the segment; :meth:`load` rebuilds it.
    """

    name: str
    size: int
    buffers: tuple[tuple[int, int], ...]

    def load(self) -> Any:
        """Unpickle the context over read-only views of its buffers."""
        segment = _attach_segment(self.name)
        refs = _ATTACHED_VIEWS.setdefault(self.name, [])
        views = []
        for offset, nbytes in self.buffers:
            view = np.ndarray(
                (nbytes,), dtype=np.uint8, buffer=segment.buf, offset=offset
            )
            view.flags.writeable = False
            views.append(view)
            refs.append(weakref.ref(view))
        with segment.buf[: self.size] as stream:
            return pickle.loads(stream, buffers=views)


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class ArrayStore:
    """Owner of the shared segments one producer (session) creates.

    Every :meth:`share` call creates one segment; the store remembers
    them all and :meth:`close` unlinks them exactly once — explicitly,
    via the context manager, or at garbage collection through a
    ``weakref.finalize``-style guard (``__del__`` here, since the store
    holds no cycles). Consumers attach read-only and never unlink; see
    :func:`_attach_segment` for why.
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

    def share(self, context: Any) -> SharedContext:
        """Pickle ``context`` once into a new segment; returns its handle.

        The protocol-5 stream goes first, then each out-of-band buffer's
        raw bytes at 64-byte alignment, in the order pickle produced
        them. An array referenced twice is pickled, and shipped, once.
        """
        buffers: list[pickle.PickleBuffer] = []
        stream = pickle.dumps(context, protocol=5, buffer_callback=buffers.append)
        raws = [buffer.raw() for buffer in buffers]
        table = []
        end = len(stream)
        for raw in raws:
            offset = _aligned(end)
            table.append((offset, raw.nbytes))
            end = offset + raw.nbytes
        segment = self._new_segment(end)
        segment.buf[: len(stream)] = stream
        for raw, (offset, nbytes) in zip(raws, table):
            segment.buf[offset : offset + nbytes] = raw
            raw.release()
        return SharedContext(segment.name, len(stream), tuple(table))

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
