"""``WorkerDaemon``: one compute node of the distributed mining tier.

A worker is deliberately dumb: it holds a content-addressed cache of
session contexts and executes shards against them. All policy —
sharding, ordering, retries, failover — lives in the coordinator's
:class:`~repro.dist.executor.DistExecutor`, which is what keeps the
determinism argument in one place.

HTTP surface (bodies are pickles, see :mod:`repro.dist.wire`):

=========================  ===========================================
``GET /health``            liveness + cached context digests + counters
``PUT /contexts/{digest}`` store one pickled context (verified against
                           its sha256 content address)
``POST /shards``           execute ``fn(context, item)`` over a shard's
                           items, in order; replies ``unknown-context``
                           when the digest has never been shipped here
=========================  ===========================================

Shards run on a thread pool off the asyncio loop, so health checks stay
responsive while numpy crunches. On start the daemon can announce its
URL to a coordinator (``POST {coordinator}/workers/register``, the
endpoint :class:`~repro.dist.router.MiningRouter` serves), retrying in
the background so boot order does not matter.
"""

from __future__ import annotations

import asyncio
import json
import secrets
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection, HTTPException

from repro.dist import wire as dwire
from repro.errors import EngineError
from repro.obs import clock
from repro.obs.instruments import (
    METRICS,
    WORKER_CONTEXT_MISSES,
    WORKER_ERRORS,
    WORKER_ITEMS,
    WORKER_SHARD_SECONDS,
    WORKER_SHARDS,
)
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.obs.trace import TRACER, TraceContext
from repro.server import http
from repro.version import __version__

__all__ = ["WorkerDaemon"]

#: Context-cache miss sentinel (``None`` is a legitimate context).
_MISS = object()


class WorkerDaemon(http.Daemon):
    """Serve shard execution over HTTP (stdlib asyncio only).

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks a free ephemeral port.
    parallelism:
        Shards executed concurrently (thread pool size). The default 2
        keeps a node useful while one long shard runs.
    max_contexts:
        Cached contexts kept (LRU by digest). A context evicted here is
        simply re-shipped by the coordinator on its next miss.
    register_with:
        Optional coordinator/router base URL, ``http://`` optional. The
        daemon announces ``{"url": ...}`` to
        ``POST {register_with}/workers/register`` after binding,
        retrying in the background until it succeeds.
    """

    role = "worker"
    #: Pickled shard bodies may carry a level's per-candidate sums; allow
    #: far more than the JSON tier's 16 MiB.
    max_body = 256 * 2**20

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        parallelism: int = 2,
        max_contexts: int = 8,
        register_with: str | None = None,
    ) -> None:
        if parallelism < 1:
            raise EngineError(f"parallelism must be >= 1, got {parallelism}")
        if max_contexts < 1:
            raise EngineError(f"max_contexts must be >= 1, got {max_contexts}")
        super().__init__(host, port)
        self.parallelism = parallelism
        self.max_contexts = max_contexts
        self.register_with = register_with
        self._registry = (
            None if register_with is None else http.split_url(register_with)
        )
        #: Per-boot marker, so a coordinator can tell a restarted worker
        #: (fresh, empty context cache) from a live one.
        self.generation = secrets.token_hex(8)
        self._contexts: OrderedDict[str, object] = OrderedDict()
        self._contexts_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=parallelism, thread_name_prefix="repro-dist-shard"
        )
        self._stats = {"shards": 0, "items": 0, "context_misses": 0, "errors": 0}

    async def start(self) -> None:
        """Bind the listener and kick off self-registration, if any."""
        await super().start()
        if self._registry is not None:
            threading.Thread(
                target=self._register_loop,
                name="repro-dist-register",
                daemon=True,
            ).start()

    async def stop(self) -> None:
        """Close the listener, end connections, drop the shard pool."""
        await super().stop()
        self._pool.shutdown(wait=False, cancel_futures=True)

    def _after_run(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def _register_loop(self, attempts: int = 60, pause: float = 0.5) -> None:
        """Announce this worker to the coordinator, best-effort."""
        host, port = self._registry
        body = json.dumps(
            {"url": self.url, "generation": self.generation}
        ).encode("utf-8")
        for _ in range(attempts):
            conn = HTTPConnection(host, port, timeout=5.0)
            try:
                conn.request(
                    "POST",
                    "/workers/register",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                if conn.getresponse().status < 400:
                    return
            except (OSError, HTTPException):
                pass  # coordinator not up yet, or it cut the reply; retry
            finally:
                conn.close()
            time.sleep(pause)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def respond(self, request: http.Request, writer) -> http.Response:
        """Answer health, metrics, a context upload, or a shard run."""
        parts = [part for part in request.path.split("/") if part]
        if parts == ["health"] and request.method == "GET":
            return http.Response(200, http.json_body(self._health()))
        if parts == ["metrics"] and request.method == "GET":
            return http.Response(
                200,
                METRICS.render().encode("utf-8"),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        if len(parts) == 2 and parts[0] == "contexts" and request.method == "PUT":
            return self._put_context(parts[1], request.body)
        if parts == ["shards"] and request.method == "POST":
            return await self._run_shard(request.body)
        raise http.HttpError(
            404,
            f"no route for {request.method} {request.path}; this is a "
            f"sisd worker daemon: /health, /metrics, /contexts/{{digest}}, "
            f"/shards",
        )

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #
    def _health(self) -> dict:
        with self._contexts_lock:
            digests = list(self._contexts)
        return {
            "schema": dwire.DIST_SCHEMA,
            "status": "ok",
            "role": "worker",
            "version": __version__,
            "generation": self.generation,
            "parallelism": self.parallelism,
            "uptime_seconds": self.uptime_seconds,
            "contexts": digests,
            "shards": dict(self._stats),
            "observability": {
                "metrics": "/metrics",
                "spans_retained": len(TRACER.finished()),
            },
        }

    def _put_context(self, digest: str, body: bytes) -> http.Response:
        if dwire.digest_of(body) != digest:
            raise http.HttpError(
                400, f"context body does not hash to {digest}"
            )
        context = dwire.load(body)
        with self._contexts_lock:
            self._contexts[digest] = context
            self._contexts.move_to_end(digest)
            while len(self._contexts) > self.max_contexts:
                self._contexts.popitem(last=False)
        return http.Response(
            200, http.json_body({"schema": dwire.DIST_SCHEMA, "stored": digest})
        )

    async def _run_shard(self, body: bytes) -> http.Response:
        envelope = dwire.load(body)
        if not isinstance(envelope, dict) or envelope.get("schema") != dwire.DIST_SCHEMA:
            raise http.HttpError(400, "malformed shard envelope")
        digest = envelope.get("context")
        fn = envelope.get("fn")
        items = envelope.get("items")
        if not callable(fn) or not isinstance(items, list):
            raise http.HttpError(400, "shard envelope needs a callable and items")
        context = _MISS
        if digest is None:
            context = None
        else:
            with self._contexts_lock:
                if digest in self._contexts:
                    self._contexts.move_to_end(digest)
                    context = self._contexts[digest]
        if context is _MISS:
            # Content-addressed miss: ask the coordinator for the bytes
            # (it pushes once, then every later shard rides the cache).
            self._stats["context_misses"] += 1
            WORKER_CONTEXT_MISSES.inc()
            reply = {"schema": dwire.DIST_SCHEMA, "status": "unknown-context"}
            return http.Response(
                200, dwire.dump(reply), content_type=dwire.PICKLE_CONTENT_TYPE
            )
        trace_ctx = TraceContext.from_wire(envelope.get("trace"))
        loop = asyncio.get_running_loop()
        reply = await loop.run_in_executor(
            self._pool, self._execute, context, fn, items, trace_ctx
        )
        return http.Response(
            200, dwire.dump(reply), content_type=dwire.PICKLE_CONTENT_TYPE
        )

    def _execute(self, context, fn, items: list, trace_ctx=None) -> dict:
        """Run one shard in order; errors travel back as the exception."""
        started = clock.perf_counter()
        try:
            results = [fn(context, item) for item in items]
        except BaseException as exc:  # noqa: BLE001 - shipped to the caller
            self._stats["errors"] += 1
            WORKER_ERRORS.inc()
            return {"schema": dwire.DIST_SCHEMA, "status": "error", "error": exc}
        ended = clock.perf_counter()
        WORKER_SHARD_SECONDS.observe(ended - started)
        WORKER_SHARDS.inc()
        WORKER_ITEMS.inc(len(items))
        TRACER.record(
            "worker.shard", started, ended, trace_ctx, tags={"items": len(items)}
        )
        self._stats["shards"] += 1
        self._stats["items"] += len(items)
        return {"schema": dwire.DIST_SCHEMA, "status": "ok", "results": results}
