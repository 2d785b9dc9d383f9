"""``MiningRouter``: fingerprint-routed federation of MiningServer replicas.

The service tier scales out by running several
:class:`~repro.server.MiningServer` replicas and putting this router in
front. Placement is *content-based*: the router computes the submitted
spec's fingerprint (the same digest the engine caches by) and walks a
:class:`~repro.dist.ring.HashRing` keyed on it, so an identical spec
always lands on the replica already holding its belief prefixes and
result cache — federation without giving up the cache hit.

Replica job ids are tagged on the way out (``job-0001`` on replica
``r1`` becomes ``job-0001@r1``) and untagged on the way back in, which
makes the router stateless: any follow-up request carries its own
routing. Replicas are health-checked over ``GET /health``; the PR 6
boot-generation marker tells a restart (fresh sequence space, recovered
jobs) from a blip, and membership changes rebalance the ring. The
router also hosts the worker registry of the compute tier
(``POST /workers/register`` / ``GET /workers``), so one address
bootstraps both tiers.

``repro.client.RemoteWorkspace`` speaks to a router unchanged: submit,
status, result (ETag/gzip relayed verbatim), cancel, and the per-job
SSE stream all work, with ``data:`` frames rewritten in flight so event
job ids match the tagged id the client submitted under.
"""

from __future__ import annotations

import asyncio
import json
import secrets
import threading

from repro.dist import wire as dwire
from repro.dist.ring import HashRing
from repro.errors import EngineError
from repro.obs.instruments import (
    METRICS,
    ROUTER_FORWARDED,
    ROUTER_REBALANCES,
    ROUTER_SUBMITTED,
)
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.obs.trace import TRACER
from repro.server import http
from repro.server.wire import WIRE_SCHEMA, submission_spec
from repro.version import __version__

__all__ = ["MiningRouter"]

#: Stream-reader limit of upstream connections: SSE ``data:`` lines
#: carry whole result documents, which can run to megabytes.
_UPSTREAM_LIMIT = 2**26

#: Request headers forwarded to replicas verbatim.
_FORWARD_REQUEST_HEADERS = (
    "authorization",
    "content-type",
    "accept-encoding",
    "if-none-match",
    "last-event-id",
)

#: Response headers relayed back to the client verbatim.
_FORWARD_RESPONSE_HEADERS = ("etag", "vary", "content-encoding", "retry-after")


class _Replica:
    """Health state of one MiningServer replica."""

    def __init__(self, name: str, url: str) -> None:
        self.host, self.port = http.split_url(url)
        self.name = name
        self.url = (url if "//" in url else "http://" + url).rstrip("/")
        self.healthy = False
        self.generation: str | None = None
        self.restarts = 0
        self.last_error: str | None = None


class MiningRouter(http.Daemon):
    """Route jobs across MiningServer replicas by spec fingerprint.

    Parameters
    ----------
    replicas:
        Base URLs of the MiningServer replicas, in a stable order: the
        i-th URL becomes ring node ``r{i}``, and that name — not the
        URL — is what job ids are tagged with, so a replica can move
        hosts without invalidating outstanding ids.
    host / port:
        Bind address of the router itself (``port=0``: ephemeral).
    check_interval / probe_timeout:
        Health-check cadence and per-probe timeout, seconds.
    vnodes:
        Virtual nodes per replica on the ring.
    """

    role = "router"

    def __init__(
        self,
        replicas,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        check_interval: float = 2.0,
        probe_timeout: float = 5.0,
        vnodes: int = 64,
    ) -> None:
        urls = list(replicas)
        if not urls:
            raise EngineError("MiningRouter needs at least one replica URL")
        super().__init__(host, port)
        self.check_interval = check_interval
        self.probe_timeout = probe_timeout
        self.generation = secrets.token_hex(8)
        self._replicas = [
            _Replica(f"r{index}", url) for index, url in enumerate(urls)
        ]
        self._by_name = {replica.name: replica for replica in self._replicas}
        self._ring = HashRing(vnodes=vnodes)
        self._workers: list[str] = []
        self._workers_lock = threading.Lock()
        self._checker: asyncio.Task | None = None
        self._stats = {"submitted": 0, "forwarded": 0, "rebalances": 0}

    async def start(self) -> None:
        """Probe every replica, then bind and begin accepting traffic."""
        # Probe every replica once *before* accepting traffic, so the
        # first submission sees the real membership, not an empty ring.
        await asyncio.gather(
            *(self._probe(replica) for replica in self._replicas)
        )
        await super().start()
        self._checker = asyncio.ensure_future(self._check_loop())

    async def stop(self) -> None:
        """Stop health checks, close the listener, end connections."""
        if self._checker is not None:
            self._checker.cancel()
            try:
                await self._checker
            except asyncio.CancelledError:
                pass
            self._checker = None
        await super().stop()

    # ------------------------------------------------------------------ #
    # Health checking and membership
    # ------------------------------------------------------------------ #
    async def _check_loop(self) -> None:
        while True:
            await asyncio.sleep(self.check_interval)
            await asyncio.gather(
                *(self._probe(replica) for replica in self._replicas)
            )

    async def _probe(self, replica: _Replica) -> None:
        """One health check; updates the ring on a liveness flip."""
        try:
            status, _, body = await asyncio.wait_for(
                self._exchange(replica, "GET", "/health", {}, b""),
                self.probe_timeout,
            )
            document = json.loads(body)
            healthy = status == 200 and document.get("status") == "ok"
            generation = document.get("generation")
        except (OSError, ValueError, asyncio.TimeoutError) as exc:
            healthy, generation = False, replica.generation
            replica.last_error = str(exc)
        if healthy:
            replica.last_error = None
            if (
                replica.generation is not None
                and generation is not None
                and str(generation) != replica.generation
            ):
                # PR 6 boot marker moved: same replica, fresh process.
                # Placement is by name so the ring is unchanged, but
                # the restart is worth counting — its SSE sequence
                # space reset and a durable store just recovered jobs.
                replica.restarts += 1
            if generation is not None:
                replica.generation = str(generation)
        self._set_health(replica, healthy)

    def _set_health(self, replica: _Replica, healthy: bool) -> None:
        if healthy == replica.healthy:
            return
        replica.healthy = healthy
        if healthy:
            self._ring.add(replica.name)
        else:
            self._ring.remove(replica.name)
        self._stats["rebalances"] += 1
        ROUTER_REBALANCES.inc()

    # ------------------------------------------------------------------ #
    # Upstream plumbing
    # ------------------------------------------------------------------ #
    async def _exchange(
        self,
        replica: _Replica,
        method: str,
        path: str,
        headers: dict,
        body: bytes,
    ) -> tuple[int, dict, bytes]:
        """One proxied round trip to a replica (connection: close)."""
        reader, writer = await asyncio.open_connection(
            replica.host, replica.port, limit=_UPSTREAM_LIMIT
        )
        try:
            lines = [
                f"{method} {path} HTTP/1.1",
                f"Host: {replica.host}:{replica.port}",
                f"Content-Length: {len(body)}",
                "Connection: close",
            ]
            lines.extend(
                f"{name}: {value}"
                for name, value in headers.items()
                if name.lower() in _FORWARD_REQUEST_HEADERS
            )
            writer.write(
                "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body
            )
            await writer.drain()
            status, response_headers = await self._read_response_head(reader)
            length = response_headers.get("content-length")
            if length is not None:
                try:
                    payload = await reader.readexactly(int(length))
                except asyncio.IncompleteReadError as exc:
                    # A peer that closes mid-body failed like a refused one.
                    raise OSError(
                        f"truncated reply from {replica.url}: {exc}"
                    ) from exc
            else:
                payload = await reader.read()
            return status, response_headers, payload
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    @staticmethod
    async def _read_response_head(reader) -> tuple[int, dict]:
        line = await reader.readline()
        parts = line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise OSError(f"malformed upstream status line {line!r}")
        status = int(parts[1])
        headers: dict = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    async def _forward(
        self,
        replica: _Replica,
        request: http.Request,
        path: str,
    ) -> tuple[int, dict, bytes]:
        """Forward one request; a transport failure sidelines the replica."""
        try:
            result = await asyncio.wait_for(
                self._exchange(
                    replica, request.method, path, request.headers, request.body
                ),
                self.probe_timeout + 35.0,  # covers one ?wait= long-poll leg
            )
        except (OSError, asyncio.TimeoutError) as exc:
            replica.last_error = str(exc)
            self._set_health(replica, False)
            raise http.HttpError(
                503,
                f"replica {replica.name} ({replica.url}) is unreachable: {exc}",
                headers=(("Retry-After", "1"),),
            ) from exc
        self._stats["forwarded"] += 1
        ROUTER_FORWARDED.inc()
        return result

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def respond(
        self, request: http.Request, writer
    ) -> http.Response | None:
        """Answer locally, forward to the owning replica, or relay SSE."""
        if request.method == "GET" and request.path == "/events":
            await self._handle_events(request, writer)
            return None
        parts = [part for part in request.path.split("/") if part]
        if parts == ["health"] and request.method == "GET":
            return http.Response(200, http.json_body(self._health()))
        if parts == ["metrics"] and request.method == "GET":
            return http.Response(
                200,
                METRICS.render().encode("utf-8"),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        if parts == ["workers"]:
            return self._handle_workers(request)
        if parts == ["workers", "register"] and request.method == "POST":
            return self._register_worker(request)
        if parts == ["jobs"] and request.method == "POST":
            return await self._submit(request)
        if parts == ["jobs"] and request.method == "GET":
            return await self._list_jobs(request)
        if len(parts) >= 2 and parts[0] == "jobs":
            return await self._forward_job(request, parts)
        raise http.HttpError(
            404,
            f"no route for {request.method} {request.path}; this is a sisd "
            f"router: /health, /metrics, /workers, /jobs, "
            f"/jobs/{{id}}[@replica], /jobs/{{id}}/result, "
            f"/jobs/{{id}}/cancel, /events?job_id=",
        )

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #
    def _health(self) -> dict:
        return {
            "schema": WIRE_SCHEMA,
            "status": "ok" if len(self._ring) else "degraded",
            "role": "router",
            "version": __version__,
            "generation": self.generation,
            "uptime_seconds": self.uptime_seconds,
            "replicas": [
                {
                    "name": replica.name,
                    "url": replica.url,
                    "healthy": replica.healthy,
                    "generation": replica.generation,
                    "restarts": replica.restarts,
                    "error": replica.last_error,
                }
                for replica in self._replicas
            ],
            "ring": {"nodes": len(self._ring), "vnodes": self._ring.vnodes},
            "workers": list(self._workers),
            "router": dict(self._stats),
            "observability": {
                "metrics": "/metrics",
                "spans_retained": len(TRACER.finished()),
            },
        }

    def _handle_workers(self, request: http.Request) -> http.Response:
        if request.method != "GET":
            raise http.HttpError(405, f"{request.method} not allowed on /workers")
        with self._workers_lock:
            workers = list(self._workers)
        return http.Response(
            200, http.json_body({"schema": WIRE_SCHEMA, "workers": workers})
        )

    def _register_worker(self, request: http.Request) -> http.Response:
        document = request.json()
        url = document.get("url")
        if not isinstance(url, str) or "://" not in url:
            raise http.HttpError(400, "register body needs a worker base url")
        http.split_url(url)  # an EngineError, so a 400: no client could dial it
        with self._workers_lock:
            if url not in self._workers:
                self._workers.append(url)
            count = len(self._workers)
        return http.Response(
            200,
            http.json_body({"schema": WIRE_SCHEMA, "registered": url,
                            "workers": count}),
        )

    async def _submit(self, request: http.Request) -> http.Response:
        # The ring key is the fingerprint of the spec the replica runs.
        fingerprint = submission_spec(request.json()).fingerprint()
        last_error: http.HttpError | None = None
        for name in list(self._ring.preference(fingerprint)):
            replica = self._by_name[name]
            try:
                status, headers, body = await self._forward(
                    replica, request, "/jobs"
                )
            except http.HttpError as exc:
                last_error = exc
                continue  # owner down: the ring's next node takes the spec
            self._stats["submitted"] += 1
            ROUTER_SUBMITTED.inc()
            return self._retag_response(status, headers, body, replica.name)
        if last_error is not None:
            raise last_error
        raise http.HttpError(
            503,
            "no healthy replica to place the job on",
            headers=(("Retry-After", "1"),),
        )

    async def _list_jobs(self, request: http.Request) -> http.Response:
        """Merged listing across every healthy replica, tagged ids."""
        healthy = [replica for replica in self._replicas if replica.healthy]
        listings = await asyncio.gather(
            *(self._forward(replica, request, "/jobs") for replica in healthy),
            return_exceptions=True,
        )
        entries: list = []
        for replica, outcome in zip(healthy, listings):
            if isinstance(outcome, BaseException):
                continue  # sidelined mid-listing; its jobs reappear next poll
            status, _, body = outcome
            if status != 200:
                continue
            try:
                document = json.loads(body)
            except ValueError:
                continue
            for entry in document.get("jobs", ()):
                entry = dict(entry)
                entry["job_id"] = dwire.tag_job_id(
                    str(entry.get("job_id")), replica.name
                )
                entries.append(entry)
        entries.sort(key=lambda entry: entry.get("job_id", ""))
        return http.Response(
            200, http.json_body({"schema": WIRE_SCHEMA, "jobs": entries})
        )

    def _owning_replica(self, tagged: str) -> tuple[_Replica, str]:
        local_id, name = dwire.untag_job_id(tagged)
        if name is None or name not in self._by_name:
            raise http.HttpError(
                404,
                f"job id {tagged!r} carries no known replica tag; routed "
                f"ids look like job-0001@r0",
            )
        replica = self._by_name[name]
        if not replica.healthy:
            raise http.HttpError(
                503,
                f"replica {name} holding {tagged!r} is down; retry shortly",
                headers=(("Retry-After", "1"),),
            )
        return replica, local_id

    async def _forward_job(
        self, request: http.Request, parts: list
    ) -> http.Response:
        replica, local_id = self._owning_replica(parts[1])
        suffix = "/" + "/".join(parts[2:]) if len(parts) > 2 else ""
        query = ""
        if request.query:
            query = "?" + "&".join(
                f"{key}={value}" for key, value in request.query.items()
            )
        status, headers, body = await self._forward(
            replica, request, f"/jobs/{local_id}{suffix}{query}"
        )
        if suffix == "/result" or headers.get("content-encoding"):
            # Result documents relay verbatim: their ETag is a hash of
            # the replica's exact bytes, so rewriting would break client
            # revalidation (and cost a decompress). The id inside stays
            # replica-local; clients key on the tagged id they hold.
            extra = tuple(
                (name.title(), value)
                for name, value in headers.items()
                if name in _FORWARD_RESPONSE_HEADERS
            )
            return http.Response(status, body, headers=extra)
        return self._retag_response(status, headers, body, replica.name)

    def _retag_response(
        self, status: int, headers: dict, body: bytes, name: str
    ) -> http.Response:
        """Tag the ``job_id`` of a small JSON response with its replica."""
        try:
            document = json.loads(body) if body else {}
        except ValueError:
            document = None
        if isinstance(document, dict) and "job_id" in document:
            document["job_id"] = dwire.tag_job_id(
                str(document["job_id"]), name
            )
            body = http.json_body(document)
        extra = tuple(
            (header.title(), value)
            for header, value in headers.items()
            if header in _FORWARD_RESPONSE_HEADERS
        )
        return http.Response(status, body, headers=extra)

    # ------------------------------------------------------------------ #
    # SSE relay
    # ------------------------------------------------------------------ #
    async def _handle_events(self, request: http.Request, writer) -> None:
        tagged = request.query.get("job_id")
        if tagged is None:
            raise http.HttpError(
                501,
                "the router streams per-job events only: subscribe with "
                "/events?job_id=<id>@<replica> (a firehose across "
                "replicas would interleave unrelated sequence spaces)",
            )
        replica, local_id = self._owning_replica(tagged)
        query = f"?job_id={local_id}"
        if "since" in request.query:
            query += f"&since={request.query['since']}"
        upstream_reader = upstream_writer = None
        try:
            upstream_reader, upstream_writer = await asyncio.open_connection(
                replica.host, replica.port, limit=_UPSTREAM_LIMIT
            )
            lines = [
                f"GET /events{query} HTTP/1.1",
                f"Host: {replica.host}:{replica.port}",
                "Accept: text/event-stream",
                "Connection: close",
            ]
            lines.extend(
                f"{name}: {value}"
                for name, value in request.headers.items()
                if name.lower() in _FORWARD_REQUEST_HEADERS
            )
            upstream_writer.write(
                "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
            )
            await upstream_writer.drain()
            status, _ = await self._read_response_head(upstream_reader)
            if status != 200:
                raise http.HttpError(
                    503,
                    f"replica {replica.name} refused the event stream "
                    f"(HTTP {status})",
                    headers=(("Retry-After", "1"),),
                )
            writer.write(
                (
                    "HTTP/1.1 200 OK\r\n"
                    "Content-Type: text/event-stream\r\n"
                    "Cache-Control: no-store\r\n"
                    "Connection: close\r\n"
                    "\r\n"
                ).encode("latin-1")
            )
            await writer.drain()
            # Relay frame lines as-is, rewriting only the data lines'
            # job id so the stream matches the tagged id the client
            # subscribed under. JSON round-trip is value-exact (floats
            # re-serialize shortest-repr), so payloads stay canonical.
            while True:
                line = await upstream_reader.readline()
                if not line:
                    break
                if line.startswith(b"data:"):
                    line = self._retag_data_line(line, local_id, replica.name)
                writer.write(line)
                if line in (b"\r\n", b"\n"):
                    await writer.drain()  # frame boundary: flush
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass  # either side went away; client resumes via Last-Event-ID
        finally:
            if upstream_writer is not None:
                upstream_writer.close()
                try:
                    await upstream_writer.wait_closed()
                except (ConnectionError, OSError):  # pragma: no cover
                    pass

    @staticmethod
    def _retag_data_line(line: bytes, local_id: str, name: str) -> bytes:
        try:
            document = json.loads(line[len(b"data:"):].strip())
        except ValueError:
            return line
        if isinstance(document, dict) and document.get("job_id") == local_id:
            document["job_id"] = dwire.tag_job_id(local_id, name)
            return b"data: " + json.dumps(
                document, allow_nan=False
            ).encode("utf-8") + b"\r\n"
        return line
