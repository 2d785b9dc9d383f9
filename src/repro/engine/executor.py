"""Executor backends: the *how* of parallel mining (engine layer).

The search algorithms never talk to ``concurrent.futures`` directly;
they describe their fan-out as ``executor.session(context)`` followed by
``session.map(fn, items)`` and merge the ordered results themselves.
Two backends implement that contract:

- :class:`SerialExecutor` runs everything inline, in order — the
  reference semantics every other backend must reproduce bit-for-bit.
- :class:`ProcessExecutor` keeps one *persistent* warm
  ``concurrent.futures`` process pool across sessions and ships each
  session's context — an IC scorer, a spread objective — through
  :mod:`repro.engine.shm`: large arrays live in
  ``multiprocessing.shared_memory`` and workers reattach them zero-copy,
  so a repeated ``session()`` (one per beam level / mining iteration)
  costs a handle, not a re-pickle and a pool respawn.

Determinism contract: ``session.map`` preserves item order, items are
sharded by the *caller* independently of the worker count, and ``fn``
must be a pure function of ``(context, item)``. Under those rules a
parallel run returns exactly the serial result regardless of
scheduling.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import uuid
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Protocol, runtime_checkable

from repro.engine import shm
from repro.errors import EngineError

#: Pool implementations selectable via :func:`resolve_pool` (and hence
#: ``MiningService(backend=...)``).
BACKENDS = ("process", "thread", "serial")

#: Per-worker cache of session contexts, keyed by session id. A worker
#: outliving many sessions (the whole point of the persistent pool)
#: keeps only the sessions it is actively serving:
#: stale entries are dropped the moment a new session's first task
#: arrives, so dead sessions' zero-copy views never pin their (already
#: unlinked) segments in memory.
_SESSION_CONTEXTS: "OrderedDict[str, Any]" = OrderedDict()

#: Cache-miss sentinel (``None`` is a legitimate context).
_MISS = object()


def _session_call(payload: tuple) -> Any:
    """Worker entry point of a :class:`ProcessExecutor` session.

    The per-task payload is tiny: a session id, a
    :class:`~repro.engine.shm.SharedBytesRef` to the pickled (stripped)
    context, the function, and the item. A warm worker that already
    holds the session's context skips the read entirely; a cold one
    reads the pickle out of shared memory once — its arrays reattach as
    zero-copy views while unpickling.
    """
    session_id, context_ref, fn, item = payload
    context = _SESSION_CONTEXTS.get(session_id, _MISS)
    if context is _MISS:
        # A new session supersedes the old ones: drop their contexts
        # (freeing the array views) and close the now-view-less segment
        # mappings so a warm worker's resident memory tracks the active
        # session, not its whole history.
        _SESSION_CONTEXTS.clear()
        shm.prune_attachments()
        context = pickle.loads(context_ref.load())
        _SESSION_CONTEXTS[session_id] = context
    return fn(context, item)


def _shutdown_pool(pool) -> None:
    """Finalizer target: stop a pool without waiting on pending work."""
    pool.shutdown(wait=False, cancel_futures=True)


@runtime_checkable
class ExecutorSession(Protocol):
    """One fan-out scope sharing a single context (e.g. one beam run)."""

    def map(self, fn: Callable[[Any, Any], Any], items: Iterable[Any]) -> list:
        """``[fn(context, item) for item in items]``, order-preserving."""
        ...

    def __enter__(self) -> "ExecutorSession": ...

    def __exit__(self, *exc_info) -> None: ...


@runtime_checkable
class Executor(Protocol):
    """The injection point the search algorithms and job runner share."""

    parallelism: int

    def session(self, context: Any = None) -> ExecutorSession:
        """Open a fan-out scope whose tasks all see ``context``."""
        ...

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
        """Context-free ordered map, for independent coarse tasks (jobs)."""
        ...

    def close(self) -> None:
        """Release held resources (idempotent; no-op for serial)."""
        ...


class _SerialSession:
    def __init__(self, context: Any) -> None:
        self._context = context

    def map(self, fn, items) -> list:
        return [fn(self._context, item) for item in items]

    def close(self) -> None:
        """Nothing to release; present for session-interface symmetry."""

    def __enter__(self) -> "_SerialSession":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


class SerialExecutor:
    """In-process, in-order execution: the reference backend."""

    parallelism = 1

    def session(self, context: Any = None) -> _SerialSession:
        """Open an inline session; ``map`` calls ``fn(context, item)``."""
        return _SerialSession(context)

    def map(self, fn, items) -> list:
        """``[fn(item) for item in items]``."""
        return [fn(item) for item in items]

    def close(self) -> None:
        """Nothing to release; present for executor-interface symmetry."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


class _ProcessSession:
    """One fan-out scope over the executor's persistent warm pool.

    The context is published once into shared memory
    (:func:`repro.engine.shm.publish`): its large arrays become segments
    workers map zero-copy, and the remaining skeleton is pickled into a
    segment of its own. Each task then carries only ``(session id,
    context handle, fn, item)``; warm workers that already cached this
    session's context pay nothing at all.

    Closing the session unlinks every segment it created but leaves the
    pool running for the executor's next session — that reuse is the
    point. A GC finalizer guarantees the segments are unlinked even when
    the session is abandoned mid-failure.
    """

    def __init__(self, owner: "ProcessExecutor", context: Any) -> None:
        self._owner = owner
        self._pool = owner._ensure_pool()
        self._store = shm.ArrayStore()
        self._finalizer = weakref.finalize(self, shm.ArrayStore.close, self._store)
        self._session_id = uuid.uuid4().hex
        stripped = shm.publish(context, self._store)
        payload = pickle.dumps(stripped, protocol=pickle.HIGHEST_PROTOCOL)
        #: Bytes actually pickled per session after array extraction —
        #: the number publishing through shared memory exists to shrink.
        self.context_payload_bytes = len(payload)
        self._context_ref = self._store.share_bytes(payload)

    def map(self, fn, items) -> list:
        if not self._finalizer.alive:
            raise EngineError("executor session is closed")
        payloads = [
            (self._session_id, self._context_ref, fn, item) for item in items
        ]
        try:
            return list(self._pool.map(_session_call, payloads))
        except BrokenProcessPool:
            # A dead worker poisons the whole pool; drop it so the next
            # session gets a fresh one, and release our segments now.
            self._owner._discard_pool(self._pool)
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Unlink this session's segments (the pool stays warm)."""
        if self._finalizer.detach() is not None:
            self._store.close()

    def __enter__(self) -> "_ProcessSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ProcessExecutor:
    """Fan-out over a persistent warm ``concurrent.futures`` process pool.

    Each :meth:`session` publishes its context through
    :mod:`repro.engine.shm` — large arrays into
    ``multiprocessing.shared_memory`` segments, the rest as a small
    pickle — and repeated sessions reuse the same worker processes,
    shipping only lightweight handles. Closing a session unlinks its
    segments; the pool stays warm until :meth:`close`.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to the machine's CPU count.
    start_method:
        ``multiprocessing`` start method (``fork``/``spawn``/
        ``forkserver``); ``None`` uses the platform default.

    Functions passed to :meth:`map`/``session().map`` must be importable
    module-level callables and all payloads must pickle — the standard
    ``concurrent.futures`` rules. The executor itself is a context
    manager; :meth:`close` (or GC) releases the persistent pool.
    """

    def __init__(
        self, max_workers: int | None = None, *, start_method: str | None = None
    ) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise EngineError(f"max_workers must be >= 1, got {max_workers}")
        self.parallelism = max_workers
        self._mp_context = (
            multiprocessing.get_context(start_method) if start_method else None
        )
        self._persistent: ProcessPoolExecutor | None = None
        self._pool_finalizer: weakref.finalize | None = None

    # ------------------------------------------------------------------ #
    # Pool plumbing
    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent pool, (re)created on first use or after a break."""
        if self._persistent is None:
            pool = ProcessPoolExecutor(
                max_workers=self.parallelism, mp_context=self._mp_context
            )
            self._persistent = pool
            self._pool_finalizer = weakref.finalize(self, _shutdown_pool, pool)
        return self._persistent

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        """Drop a broken persistent pool so the next session respawns."""
        if self._persistent is pool:
            self._persistent = None
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
                self._pool_finalizer = None
        pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------ #
    # Executor interface
    # ------------------------------------------------------------------ #
    def session(self, context: Any = None) -> _ProcessSession:
        """Open a fan-out scope whose workers all hold ``context``.

        The context is published through :mod:`repro.engine.shm` onto
        the warm pool; closing the session unlinks its segments and
        keeps the pool.
        """
        return _ProcessSession(self, context)

    def map(self, fn, items) -> list:
        """Ordered context-free map over the warm pool."""
        pool = self._ensure_pool()
        try:
            return list(pool.map(fn, list(items)))
        except BrokenProcessPool:
            self._discard_pool(pool)
            raise

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down the persistent pool (no-op without one); idempotent."""
        pool, self._persistent = self._persistent, None
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessExecutor(max_workers={self.parallelism})"


def normalize_workers(workers: int | None) -> int:
    """Validate a worker count; ``None`` and ``0`` normalize to 1 (serial).

    The single code path every entry point (CLI ``--workers``, the job
    runner, the service pool) funnels worker counts through, so the edge
    cases behave identically everywhere: ``None``/``0``/``1`` mean
    serial and a negative count is an explicit :class:`EngineError`
    rather than silently serial.
    """
    if workers is None:
        return 1
    count = int(workers)
    if count < 0:
        raise EngineError(f"worker count must be >= 0, got {count}")
    return count or 1


def resolve_executor(
    workers: int | None,
    *,
    start_method: str | None = None,
    dist_workers: Iterable[str] | None = None,
) -> Executor:
    """Map a ``--workers`` count to a backend.

    ``None``, ``0`` and ``1`` mean serial; anything larger gets a
    :class:`ProcessExecutor` of that size; negative counts raise.

    ``dist_workers`` — worker-daemon URLs (``sisd worker``) — overrides
    the local backends entirely with a
    :class:`repro.dist.DistExecutor` sharding across those nodes
    (``workers`` is then ignored: parallelism is the node count). The determinism contract still holds: the distributed
    executor merges shard replies in canonical order, so its results
    are bit-identical to serial.
    """
    if dist_workers is not None:
        urls = [url for url in dist_workers if url]
        if urls:
            from repro.dist.executor import DistExecutor

            return DistExecutor(urls)
    count = normalize_workers(workers)
    if count <= 1:
        return SerialExecutor()
    return ProcessExecutor(count, start_method=start_method)


def resolve_pool(
    backend: str, max_workers: int | None, *, start_method: str | None = None
):
    """Map a service backend name + worker count to a futures pool.

    Returns a ``concurrent.futures`` pool for ``"process"``/``"thread"``
    and ``None`` for ``"serial"`` (execute inline at submit time).
    ``start_method`` selects the ``multiprocessing`` context of the
    process backend (``None``: platform default; ignored by the others —
    threads have no start method). Shares :func:`normalize_workers`'s
    edge-case handling with :func:`resolve_executor`, so the CLI and the
    service resolve worker counts through one code path.
    """
    if backend not in BACKENDS:
        raise EngineError(f"backend must be one of {BACKENDS}, got {backend!r}")
    count = normalize_workers(max_workers)
    if backend == "process":
        return ProcessPoolExecutor(
            max_workers=count,
            mp_context=(
                multiprocessing.get_context(start_method) if start_method else None
            ),
        )
    if backend == "thread":
        return ThreadPoolExecutor(max_workers=count)
    return None
