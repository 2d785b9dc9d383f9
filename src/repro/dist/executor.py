"""``DistExecutor``: the Executor protocol over worker-node daemons.

The engine's determinism contract (items sharded by the caller, ``fn``
pure in ``(context, item)``, merges in item order) is exactly what makes
cross-machine execution safe: this executor may send any shard to any
node, retry it elsewhere after a death, or run it locally — the reply
is scattered back into its canonical slot either way, so the result is
bit-identical to :class:`~repro.engine.executor.SerialExecutor` no
matter which node answered, in which order, or how many died.

Failure policy, in one place:

- transport failures (connection refused/reset, timeouts) sideline the
  worker with exponential backoff and move the shard to the next live
  node; when every node is sidelined the shard runs locally (unless
  ``local_fallback=False``), so *no job ever fails because a node
  died*;
- remote **execution** errors — ``fn`` itself raised — re-raise locally
  unchanged: a deterministic function fails identically everywhere, so
  failover would just fail N times.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection, HTTPException
from typing import Any, Callable, Iterable

from repro.dist import wire as dwire
from repro.errors import EngineError
from repro.obs import clock
from repro.obs.instruments import (
    DIST_CONTEXTS_SHIPPED,
    DIST_FAILOVERS,
    DIST_SHARD_RTT,
    DIST_SHARDS_LOCAL,
    DIST_SHARDS_REMOTE,
)
from repro.obs.trace import TRACER, TraceContext, current
from repro.server.http import split_url

__all__ = ["DistExecutor", "ShardError", "WorkerClient", "WorkerUnavailable"]


class WorkerUnavailable(EngineError):
    """A worker could not be reached (or answered garbage): failover."""


class ShardError(EngineError):
    """A worker answered, but with a malformed or refused shard reply."""


class WorkerClient:
    """Blocking HTTP client for one :class:`~repro.dist.worker.WorkerDaemon`.

    One connection per call (the daemon supports keep-alive, but a fresh
    connection makes death detection trivial and retries stateless).
    Every transport-level failure is normalized to
    :class:`WorkerUnavailable` so the executor has exactly one signal to
    failover on.
    """

    def __init__(self, url: str, *, timeout: float = 60.0) -> None:
        self.host, self.port = split_url(url)
        self.url = (url if "//" in url else "http://" + url).rstrip("/")
        self.timeout = timeout

    def _exchange(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        *,
        content_type: str = dwire.PICKLE_CONTENT_TYPE,
    ) -> tuple[int, bytes]:
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            headers = {"Content-Type": content_type} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        except (ConnectionError, TimeoutError, OSError, HTTPException) as exc:
            raise WorkerUnavailable(
                f"worker {self.url} unreachable: {exc}"
            ) from exc
        finally:
            conn.close()

    def health(self) -> dict:
        """The worker's health document (raises WorkerUnavailable)."""
        import json

        status, body = self._exchange("GET", "/health")
        if status != 200:
            raise WorkerUnavailable(
                f"worker {self.url} health answered HTTP {status}"
            )
        return json.loads(body)

    def put_context(self, digest: str, payload: bytes) -> None:
        """Ship one pickled context under its content address."""
        status, body = self._exchange("PUT", f"/contexts/{digest}", payload)
        if status != 200:
            raise WorkerUnavailable(
                f"worker {self.url} refused context {digest[:12]}: "
                f"HTTP {status} {body[:200]!r}"
            )

    def run_shard(
        self, digest: str | None, fn, items: list, trace: dict | None = None
    ) -> dict:
        """Execute one shard remotely; returns the decoded reply envelope."""
        payload = dwire.dump(dwire.shard_request(digest, fn, items, trace=trace))
        status, body = self._exchange("POST", "/shards", payload)
        if status != 200:
            raise WorkerUnavailable(
                f"worker {self.url} refused shard: HTTP {status} {body[:200]!r}"
            )
        try:
            reply = dwire.load(body)
        except EngineError as exc:
            raise WorkerUnavailable(
                f"worker {self.url} answered an undecodable shard reply"
            ) from exc
        if not isinstance(reply, dict) or reply.get("status") not in (
            dwire.REPLY_STATUSES
        ):
            raise ShardError(f"worker {self.url} shard reply is malformed")
        return reply


class _WorkerState:
    """Liveness bookkeeping for one worker (exponential backoff)."""

    def __init__(self, client: WorkerClient, backoff: float, max_backoff: float):
        self.client = client
        self._backoff = backoff
        self._max_backoff = max_backoff
        self.failures = 0
        self.dead_until = 0.0
        #: Context digests this worker confirmed holding (cleared on
        #: failure: a restarted daemon has an empty cache).
        self.shipped: set[str] = set()
        #: Serializes context shipment: concurrent shards that all miss
        #: must not each re-upload the (potentially large) payload.
        self.ship_lock = threading.Lock()

    @property
    def url(self) -> str:
        return self.client.url

    def alive(self, now: float) -> bool:
        return now >= self.dead_until

    def mark_dead(self, now: float) -> None:
        self.failures += 1
        pause = min(
            self._backoff * (2 ** (self.failures - 1)), self._max_backoff
        )
        self.dead_until = now + pause
        self.shipped.clear()

    def mark_alive(self) -> None:
        self.failures = 0
        self.dead_until = 0.0


def _call_context_free(context, item):
    """Adapter for :meth:`DistExecutor.map`: the fn rides as the context."""
    return context(item)


class _DistSession:
    """One fan-out scope: the context pickled once, shipped by digest."""

    def __init__(self, owner: "DistExecutor", context: Any) -> None:
        self._owner = owner
        self._context = context
        self._payload = dwire.dump(context)
        self._digest = dwire.digest_of(self._payload)
        self._closed = False

    def map(self, fn: Callable[[Any, Any], Any], items: Iterable[Any]) -> list:
        if self._closed:
            raise EngineError("executor session is closed")
        return self._owner._map_shards(self, fn, list(items))

    def close(self) -> None:
        """Nothing remote to release: contexts stay cached by digest."""
        self._closed = True

    def __enter__(self) -> "_DistSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class DistExecutor:
    """Fan mining shards out to :class:`~repro.dist.worker.WorkerDaemon` nodes.

    Parameters
    ----------
    workers:
        Worker base URLs (``http://host:port``); at least one.
    timeout:
        Socket timeout per shard round trip, seconds.
    local_fallback:
        Run a shard in-process when no worker can take it (default).
        ``False`` raises :class:`WorkerUnavailable` instead — useful in
        tests that must prove the remote path ran.
    backoff / max_backoff:
        Exponential sideline window after a worker failure: the first
        failure pauses ``backoff`` seconds, doubling up to
        ``max_backoff``.
    shards_per_worker:
        Shard granularity: items are grouped into at most
        ``workers × shards_per_worker`` contiguous chunks (keyed only by
        the item count, never by liveness, so the grouping is stable).
    """

    def __init__(
        self,
        workers: Iterable[str],
        *,
        timeout: float = 60.0,
        local_fallback: bool = True,
        backoff: float = 0.25,
        max_backoff: float = 30.0,
        shards_per_worker: int = 4,
    ) -> None:
        urls = list(dict.fromkeys(workers))
        if not urls:
            raise EngineError("DistExecutor needs at least one worker URL")
        if shards_per_worker < 1:
            raise EngineError(
                f"shards_per_worker must be >= 1, got {shards_per_worker}"
            )
        self.timeout = timeout
        self.local_fallback = local_fallback
        self.parallelism = len(urls)
        self._states = [
            _WorkerState(WorkerClient(url, timeout=timeout), backoff, max_backoff)
            for url in urls
        ]
        self._lock = threading.Lock()
        self._shards_per_worker = shards_per_worker
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, 2 * len(urls)),
            thread_name_prefix="repro-dist-map",
        )
        #: Observability counters (asserted in tests, shown in benches).
        self.stats = {
            "shards_remote": 0,
            "shards_local": 0,
            "failovers": 0,
            "contexts_shipped": 0,
        }

    # ------------------------------------------------------------------ #
    # Executor protocol
    # ------------------------------------------------------------------ #
    def session(self, context: Any = None) -> _DistSession:
        """Open a fan-out scope; the context ships once per worker."""
        return _DistSession(self, context)

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
        """Context-free ordered map: the function itself is the context."""
        with self.session(fn) as session:
            return session.map(_call_context_free, items)

    def close(self) -> None:
        """Release the dispatch pool; idempotent."""
        self._pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "DistExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistExecutor({[state.url for state in self._states]!r}, "
            f"local_fallback={self.local_fallback})"
        )

    # ------------------------------------------------------------------ #
    # Sharding and dispatch
    # ------------------------------------------------------------------ #
    def _chunks(self, n_items: int) -> list[tuple[int, int]]:
        """Contiguous ``(start, stop)`` shard bounds for ``n_items``.

        Keyed only by the item count and the *configured* node count —
        never by which nodes are alive — so the shard layout (and hence
        every payload) is identical run to run. Determinism does not
        require that (merges are positional), but stable shards make
        failures reproducible and content-addressing effective.
        """
        if n_items == 0:
            return []
        n_shards = min(n_items, self.parallelism * self._shards_per_worker)
        base, extra = divmod(n_items, n_shards)
        bounds = []
        start = 0
        for index in range(n_shards):
            stop = start + base + (1 if index < extra else 0)
            bounds.append((start, stop))
            start = stop
        return bounds

    def _map_shards(self, session: _DistSession, fn, items: list) -> list:
        bounds = self._chunks(len(items))
        if not bounds:
            return []
        # The ambient trace context is thread-local; capture it here (the
        # caller's thread) so shards dispatched on pool threads still
        # parent under the submitting job's trace.
        ctx = current()
        results: list = [None] * len(items)
        if len(bounds) == 1:
            outputs = [self._run_shard(session, 0, fn, items, ctx)]
            spans = [bounds[0]]
        else:
            futures = [
                self._pool.submit(
                    self._run_shard, session, index, fn, items[start:stop], ctx
                )
                for index, (start, stop) in enumerate(bounds)
            ]
            # Canonical merge: replies land by *shard index*, so arrival
            # order (and which node answered) cannot reorder anything.
            outputs = [future.result() for future in futures]
            spans = bounds
        for (start, stop), shard_results in zip(spans, outputs):
            results[start:stop] = shard_results
        return results

    def _run_shard(
        self,
        session: _DistSession,
        shard_index: int,
        fn,
        items: list,
        ctx: TraceContext | None = None,
    ) -> list:
        """Execute one shard: remote with failover, locally as last resort."""
        n = len(self._states)
        last_unavailable: WorkerUnavailable | None = None
        tried_any = False
        for offset in range(n):
            state = self._states[(shard_index + offset) % n]
            now = clock.monotonic()
            with self._lock:
                if not state.alive(now):
                    continue
            tried_any = True
            try:
                shard_results = self._run_on_worker(session, state, fn, items, ctx)
            except WorkerUnavailable as exc:
                last_unavailable = exc
                DIST_FAILOVERS.inc()
                with self._lock:
                    state.mark_dead(clock.monotonic())
                    self.stats["failovers"] += 1
                continue
            DIST_SHARDS_REMOTE.inc()
            with self._lock:
                state.mark_alive()
                self.stats["shards_remote"] += 1
            return shard_results
        if not self.local_fallback:
            detail = (
                f": {last_unavailable}" if last_unavailable is not None
                else " (all sidelined by backoff)" if not tried_any else ""
            )
            raise WorkerUnavailable(
                f"no live worker could run shard {shard_index}{detail}"
            )
        DIST_SHARDS_LOCAL.inc()
        with self._lock:
            self.stats["shards_local"] += 1
        t_local = clock.perf_counter()
        local_results = [fn(session._context, item) for item in items]
        TRACER.record("shard", t_local, clock.perf_counter(), ctx,
                      tags={"path": "local", "items": len(items)})
        return local_results

    def _run_on_worker(
        self,
        session: _DistSession,
        state: _WorkerState,
        fn,
        items: list,
        ctx: TraceContext | None = None,
    ) -> list:
        """One remote attempt, shipping the context on a cache miss."""
        client = state.client
        # The shard span is opened *before* the request so its context
        # can ride the envelope — the worker parents its own span under
        # this one, stitching both processes into one trace.
        span = TRACER.start("shard", parent=ctx) if ctx is not None else None
        wire_trace = span.context.to_wire() if span is not None else None
        try:
            reply = self._timed_shard(client, session._digest, fn, items, wire_trace)
            if reply["status"] == "unknown-context":
                with state.ship_lock:
                    with self._lock:
                        need_ship = session._digest not in state.shipped
                    if need_ship:
                        client.put_context(session._digest, session._payload)
                        DIST_CONTEXTS_SHIPPED.inc()
                        with self._lock:
                            state.shipped.add(session._digest)
                            self.stats["contexts_shipped"] += 1
                reply = self._timed_shard(
                    client, session._digest, fn, items, wire_trace
                )
        finally:
            if span is not None:
                span.tag("worker", client.url).tag("items", len(items))
                TRACER.finish(span)
        if reply["status"] == "unknown-context":
            raise WorkerUnavailable(
                f"worker {client.url} still misses context "
                f"{session._digest[:12]} after shipping it"
            )
        if reply["status"] == "error":
            # fn itself raised remotely: deterministic, so re-raise as-is
            # instead of failing over N times.
            error = reply.get("error")
            if isinstance(error, BaseException):
                raise error
            raise ShardError(f"worker {client.url} reported: {error!r}")
        results = reply.get("results")
        if not isinstance(results, list) or len(results) != len(items):
            raise ShardError(
                f"worker {client.url} returned {type(results).__name__} "
                f"for a {len(items)}-item shard"
            )
        return results

    @staticmethod
    def _timed_shard(
        client: WorkerClient, digest: str | None, fn, items: list, trace
    ) -> dict:
        """One shard round trip, observed into the per-worker RTT histogram."""
        started = clock.perf_counter()
        reply = client.run_shard(digest, fn, items, trace=trace)
        DIST_SHARD_RTT.labels(client.url).observe(clock.perf_counter() - started)
        return reply
