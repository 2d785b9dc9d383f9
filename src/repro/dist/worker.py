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
from http.client import HTTPConnection
from urllib.parse import urlsplit

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
from repro.server.app import ServerHandle
from repro.version import __version__

__all__ = ["WorkerDaemon"]

#: Pickled shard bodies may carry a level's per-candidate sums; allow
#: far more than the JSON tier's 16 MiB.
MAX_SHARD_BODY = 256 * 2**20

#: Context-cache miss sentinel (``None`` is a legitimate context).
_MISS = object()


class WorkerDaemon:
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
        Optional coordinator/router base URL. The daemon announces
        ``{"url": ...}`` to ``POST {register_with}/workers/register``
        after binding, retrying in the background until it succeeds.
    """

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
        self.host = host
        self.port = port
        self.parallelism = parallelism
        self.max_contexts = max_contexts
        self.register_with = register_with
        #: Per-boot marker, so a coordinator can tell a restarted worker
        #: (fresh, empty context cache) from a live one.
        self.generation = secrets.token_hex(8)
        self._contexts: OrderedDict[str, object] = OrderedDict()
        self._contexts_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=parallelism, thread_name_prefix="repro-dist-shard"
        )
        self._server: asyncio.AbstractServer | None = None
        self._started_at: float | None = None
        self._stats = {"shards": 0, "items": 0, "context_misses": 0, "errors": 0}

    # ------------------------------------------------------------------ #
    # Lifecycle (mirrors MiningServer so ServerHandle works unchanged)
    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        """Bind the listener and kick off self-registration, if any."""
        if self._server is not None:
            raise EngineError("worker is already running")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = clock.monotonic()
        if self.register_with is not None:
            threading.Thread(
                target=self._register_loop,
                name="repro-dist-register",
                daemon=True,
            ).start()

    async def serve_forever(self) -> None:
        """Serve until cancelled; requires a prior :meth:`start`."""
        if self._server is None:
            raise EngineError("call start() before serve_forever()")
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listener and tear down the shard thread pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=False, cancel_futures=True)

    def run(self, *, announce=None) -> None:
        """Blocking entry point (``sisd worker``): serve until Ctrl-C."""
        try:
            asyncio.run(self._run_forever(announce))
        except KeyboardInterrupt:
            pass
        finally:
            self._pool.shutdown(wait=False, cancel_futures=True)

    async def _run_forever(self, announce) -> None:
        await self.start()
        if announce is not None:
            announce(self)
        await self.serve_forever()

    def run_in_thread(self, *, ready_timeout: float = 30.0) -> ServerHandle:
        """Start on a daemon thread; returns a :class:`ServerHandle`."""
        started = threading.Event()
        handle = ServerHandle(self)

        def target() -> None:
            try:
                asyncio.run(self._serve_until_stopped(started, handle))
            except BaseException as exc:  # pragma: no cover - surfaced below
                handle.error = exc
            finally:
                started.set()

        thread = threading.Thread(
            target=target, name="repro-dist-worker", daemon=True
        )
        handle._thread = thread
        thread.start()
        started.wait(ready_timeout)
        if handle.error is not None:
            raise EngineError(f"worker failed to start: {handle.error}")
        if self._server is None:
            raise EngineError("worker failed to start within ready_timeout")
        return handle

    async def _serve_until_stopped(self, started, handle: ServerHandle) -> None:
        await self.start()
        handle._loop = asyncio.get_running_loop()
        handle._stop = asyncio.Event()
        started.set()
        await handle._stop.wait()
        await self.stop()

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def _register_loop(self, attempts: int = 60, pause: float = 0.5) -> None:
        """Announce this worker to the coordinator, best-effort."""
        split = urlsplit(self.register_with)
        body = json.dumps(
            {"url": self.url, "generation": self.generation}
        ).encode("utf-8")
        for _ in range(attempts):
            conn = HTTPConnection(
                split.hostname or "127.0.0.1", split.port or 80, timeout=5.0
            )
            try:
                conn.request(
                    "POST",
                    "/workers/register",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                if conn.getresponse().status < 400:
                    return
            except OSError:
                pass  # coordinator not up yet; retry
            finally:
                conn.close()
            time.sleep(pause)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # loop shutdown; transport closed by the finally below

    async def _serve_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await http.read_request(
                        reader, max_body=MAX_SHARD_BODY
                    )
                except http.HttpError as exc:
                    writer.write(self._error(exc.status, str(exc), keep=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                keep = request.keep_alive
                try:
                    response = await self._dispatch(request)
                except http.HttpError as exc:
                    response = self._error(exc.status, str(exc), keep=keep)
                except Exception as exc:  # noqa: BLE001 - last-resort guard
                    response = self._error(500, str(exc), keep=keep)
                writer.write(response)
                await writer.drain()
                if not keep:
                    break
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass  # coordinator went away mid-request
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _error(self, status: int, message: str, *, keep: bool) -> bytes:
        body = http.json_body(
            {"schema": dwire.DIST_SCHEMA, "error": {"message": message}}
        )
        return http.render_response(status, body, keep_alive=keep)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def _dispatch(self, request: http.Request) -> bytes:
        parts = [part for part in request.path.split("/") if part]
        if parts == ["health"] and request.method == "GET":
            return http.render_response(200, http.json_body(self._health()))
        if parts == ["metrics"] and request.method == "GET":
            return http.render_response(
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
            "uptime_seconds": (
                0.0
                if self._started_at is None
                else clock.monotonic() - self._started_at
            ),
            "contexts": digests,
            "shards": dict(self._stats),
            "observability": {
                "metrics": "/metrics",
                "spans_retained": len(TRACER.finished()),
            },
        }

    def _put_context(self, digest: str, body: bytes) -> bytes:
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
        return http.render_response(
            200, http.json_body({"schema": dwire.DIST_SCHEMA, "stored": digest})
        )

    async def _run_shard(self, body: bytes) -> bytes:
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
            return http.render_response(
                200, dwire.dump(reply), content_type=dwire.PICKLE_CONTENT_TYPE
            )
        trace_ctx = TraceContext.from_wire(envelope.get("trace"))
        loop = asyncio.get_running_loop()
        reply = await loop.run_in_executor(
            self._pool, self._execute, context, fn, items, trace_ctx
        )
        return http.render_response(
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
