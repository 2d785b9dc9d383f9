"""Minimal HTTP/1.1 over asyncio streams, and the one daemon built on it.

Every sisd daemon is a :class:`Daemon`:
:class:`~repro.server.app.MiningServer` (``sisd serve``) and
:class:`~repro.dist.worker.WorkerDaemon` (``sisd worker``). The base
class owns what they share: the lifecycle (``start``/``stop``/``run``/
``run_in_thread`` and :class:`ServerHandle`), the keep-alive request
loop with its :data:`IDLE_TIMEOUT`, the mapping from exceptions to
status codes and the one error envelope (:func:`error_response`). A
subclass keeps only its routes (:meth:`Daemon.respond`) and its own
start/stop work.

The daemons speak just enough HTTP for their JSON, pickle and SSE
surfaces: request line, headers, ``Content-Length`` bodies, keep-alive,
and chunk-free streaming responses that end by closing the connection.
No external web framework — the network layer is stdlib-only — and no
chunked transfer, multipart, or TLS: put a real proxy in front for
those.
"""

from __future__ import annotations

import asyncio
import gzip
import hashlib
import json
import threading
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.errors import EngineError, ReproError
from repro.obs import clock
from repro.server import wire

#: Upper bounds keeping one bad client from ballooning server memory.
MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 65536
MAX_BODY_BYTES = 16 * 2**20

#: Seconds a connection may sit idle between requests (or mid-request)
#: before its daemon closes it: the bound that keeps silent or half-open
#: clients from pinning sockets and tasks forever. An established SSE
#: stream is not bounded by it.
IDLE_TIMEOUT = 120.0

#: Bodies below this stay identity-encoded: gzip's header plus the CPU
#: round-trip outweigh any wire saving on tiny JSON documents.
GZIP_MIN_BYTES = 512

_PHRASES = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}


class HttpError(ReproError):
    """A request the server rejects with an HTTP status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict = field(default_factory=dict)
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        """The body parsed as a JSON object; raises :class:`HttpError`."""
        if not self.body:
            raise HttpError(400, "request body must be a JSON object")
        try:
            data = json.loads(self.body)
        except ValueError as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(data, dict):
            raise HttpError(400, "request body must be a JSON object")
        return data

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


async def read_request(reader, *, max_body: int = MAX_BODY_BYTES) -> Request | None:
    """Parse one request off the stream; ``None`` on a clean EOF.

    ``max_body`` overrides the default body cap: the JSON surface keeps
    the conservative :data:`MAX_BODY_BYTES`, while the dist worker tier
    (pickled shard payloads carrying numpy stacks) raises it.
    """
    try:
        line = await reader.readline()
    except (ConnectionError, OSError):
        return None
    except ValueError:
        # asyncio's own stream limit (64 KiB) tripped before ours: the
        # line is oversized either way, so answer 400, don't crash the
        # connection task with an unhandled ValueError.
        raise HttpError(400, "request line too long") from None
    if not line:
        return None
    if len(line) > MAX_REQUEST_LINE:
        raise HttpError(400, "request line too long")
    try:
        method, target, version = line.decode("latin-1").split()
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version!r}")
    headers: dict = {}
    total = 0
    while True:
        try:
            line = await reader.readline()
        except ValueError:
            raise HttpError(400, "headers too large") from None
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise HttpError(400, "headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 decodes all
            raise HttpError(400, "undecodable header") from None
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            raise HttpError(400, f"bad Content-Length {length!r}") from None
        if n < 0 or n > max_body:
            raise HttpError(413, f"body of {n} bytes exceeds {max_body}")
        body = await reader.readexactly(n) if n else b""
    elif headers.get("transfer-encoding"):
        raise HttpError(501, "chunked request bodies are not supported")
    split = urlsplit(target)
    return Request(
        method=method.upper(),
        path=unquote(split.path) or "/",
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


@dataclass(frozen=True)
class Response:
    """One complete (non-streaming) response a daemon's route returns."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: tuple = ()

    def render(self, *, keep_alive: bool) -> bytes:
        """Serialize, stamping the ``Connection`` header the loop acts on."""
        phrase = _PHRASES.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {phrase}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in self.headers)
        head = "\r\n".join(lines).encode("latin-1")
        return head + b"\r\n\r\n" + self.body


def split_url(url: str, *, default_port: int = 80) -> tuple[str, int]:
    """The ``(host, port)`` a client dials for a daemon URL.

    The ``http://`` scheme is optional (``host:port`` is how users type
    it); any other scheme, a missing host or a bad port raises
    :class:`EngineError` naming the URL. The daemons speak plain HTTP
    only, so an ``https://`` URL is refused rather than spoken to in
    the clear.
    """
    split = urlsplit(url if "//" in url else "http://" + url)
    try:
        port = split.port
    except ValueError as exc:  # non-numeric or out of range
        raise EngineError(f"bad port in {url!r}: {exc}") from None
    if split.scheme not in ("", "http"):
        raise EngineError(f"{url!r} is not a plain http:// URL")
    if not split.hostname:
        raise EngineError(f"no host in {url!r}")
    return split.hostname, port or default_port


def json_body(document: dict) -> bytes:
    """Encode a JSON response body (exact float round-trips)."""
    return json.dumps(document, allow_nan=False).encode("utf-8")


def error_response(error: BaseException) -> Response:
    """The response a failed request gets, in the one error envelope.

    The body is ``{"schema": 1, "error": {"type", "message"}}`` on every
    tier (``WIRE_SCHEMA`` and the compute tier's ``DIST_SCHEMA`` are both
    1). An :class:`HttpError` brings its own status, any other
    :class:`~repro.errors.ReproError` is the client's fault (400), and
    anything else is the daemon's (500).
    """
    if isinstance(error, HttpError):
        status = error.status
    elif isinstance(error, ReproError):
        status = 400
    else:
        status = 500
    document = {"schema": wire.WIRE_SCHEMA, "error": wire.error_to_wire(error)}
    return Response(status, json_body(document))


# --------------------------------------------------------------------- #
# Content negotiation: ETag revalidation and gzip coding
# --------------------------------------------------------------------- #
def etag_for(body: bytes) -> str:
    """A strong validator of one exact (identity-encoded) body.

    Content-hashed, so it is stable across server restarts — which is
    what lets a client revalidate a result document against a *restarted*
    server and still get its 304.
    """
    return '"' + hashlib.sha256(body).hexdigest()[:32] + '"'


def etag_matches(header_value: str | None, etag: str) -> bool:
    """Does an ``If-None-Match`` header match this validator?

    Handles the comma-separated list form, ``W/`` weak prefixes (weak
    comparison is fine for a GET whose body is byte-stable), and ``*``.
    """
    if not header_value:
        return False
    for candidate in header_value.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == "*" or candidate == etag:
            return True
    return False


def wants_gzip(headers: dict) -> bool:
    """Did the client's ``Accept-Encoding`` offer gzip (q>0)?"""
    accept = headers.get("accept-encoding", "")
    for token in accept.split(","):
        coding, _, params = token.strip().partition(";")
        if coding.strip().lower() not in ("gzip", "*"):
            continue
        params = params.strip()
        if params.startswith("q="):
            try:
                return float(params[2:]) > 0.0
            except ValueError:
                return False
        return True
    return False


def gzip_body(body: bytes) -> bytes:
    """gzip-code a response body, deterministically (mtime pinned to 0).

    Determinism matters: the same result document must compress to the
    same bytes on every request and every server generation, or caching
    layers in front would see spurious changes.
    """
    return gzip.compress(body, compresslevel=6, mtime=0)


def sse_preamble(*, retry_ms: int = 2000) -> bytes:
    """Response head + retry hint opening a Server-Sent-Events stream.

    The stream carries no ``Content-Length`` and ends when the server
    closes the connection, so the preamble pins ``Connection: close``.
    """
    head = (
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/event-stream\r\n"
        "Cache-Control: no-store\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + f"retry: {retry_ms}\r\n\r\n".encode("latin-1")


def sse_event(seq: int, event_type: str, data: dict) -> bytes:
    """Serialize one SSE frame (``id`` carries the sequence number)."""
    payload = json.dumps(data, allow_nan=False)
    return (
        f"id: {seq}\r\nevent: {event_type}\r\ndata: {payload}\r\n\r\n"
    ).encode("utf-8")


def sse_comment(text: str = "keep-alive") -> bytes:
    """A comment frame (heartbeat; ignored by SSE parsers)."""
    return f": {text}\r\n\r\n".encode("utf-8")


# --------------------------------------------------------------------- #
# The daemon
# --------------------------------------------------------------------- #
class ServerHandle:
    """Control of a daemon running on a background thread (tests, demos)."""

    def __init__(self, daemon: "Daemon") -> None:
        self._daemon = daemon
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self.error: BaseException | None = None

    @property
    def url(self) -> str:
        """Base URL of the bound daemon."""
        return self._daemon.url

    def stop(self, timeout: float = 30.0) -> None:
        """Signal the daemon's loop to shut down and join its thread."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class Daemon:
    """An asyncio HTTP daemon: lifecycle, keep-alive loop, error envelope.

    A subclass names itself with :attr:`role`, raises :attr:`max_body`
    if its request bodies are large, answers requests in
    :meth:`respond`, and adds its own start/stop work by overriding
    :meth:`start`/:meth:`stop` around ``super()``. Whatever
    :meth:`respond` raises becomes an :func:`error_response`; after a
    5xx, or when the client asked for ``Connection: close``, the
    connection closes, and the response's ``Connection`` header says so.
    """

    #: Names the daemon in its thread and its lifecycle errors.
    role = "daemon"
    #: Largest request body accepted (413 beyond it).
    max_body = MAX_BODY_BYTES

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._started_at: float | None = None
        self._handlers: set[asyncio.Task] = set()

    @property
    def url(self) -> str:
        """Base URL of the bound daemon."""
        return f"http://{self.host}:{self.port}"

    @property
    def uptime_seconds(self) -> float:
        """Seconds since :meth:`start` bound the listener (0 before)."""
        if self._started_at is None:
            return 0.0
        return clock.monotonic() - self._started_at

    async def respond(
        self, request: Request, reader, writer
    ) -> Response | None:
        """Answer one request; the subclass's routes.

        Raise to answer with an error. Return ``None`` after writing a
        stream to ``writer`` that ends by closing the connection (SSE);
        ``reader`` is the connection's read side, whose EOF tells such a
        stream that its client has gone.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listener (resolving ``port=0``) and accept connections."""
        if self._server is not None:
            raise EngineError(f"{self.role} is already running")
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = clock.monotonic()

    async def stop(self) -> None:
        """Close the listener and end every open connection.

        The connection handlers are cancelled *before* awaiting
        ``wait_closed()``: since Python 3.12.1 that waits for every open
        connection, so one idle keep-alive client would otherwise hold
        the shutdown for the whole :data:`IDLE_TIMEOUT`. A cancelled
        handler drops what its client has not read.
        """
        server, self._server = self._server, None
        if server is None:
            return
        server.close()
        handlers = list(self._handlers)
        for task in handlers:
            task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)
        await server.wait_closed()

    def run(self, *, announce=None) -> None:
        """Blocking entry point (the CLI's): serve until Ctrl-C.

        ``announce(daemon)`` runs once the listener is bound. The first
        Ctrl-C stops the daemon even while idle keep-alive clients are
        connected; :meth:`_after_run` then cleans up without the loop.
        """
        try:
            asyncio.run(self._serve_until_cancelled(announce))
        except KeyboardInterrupt:
            pass
        finally:
            self._after_run()

    async def _serve_until_cancelled(self, announce) -> None:
        await self.start()
        if announce is not None:
            announce(self)
        try:
            # Park until Ctrl-C cancels this task. Not serve_forever():
            # cancelled, it awaits wait_closed() with the handlers still
            # live (see stop()).
            await asyncio.get_running_loop().create_future()
        finally:
            # The connections only: a subclass's stop() may wait on work
            # (the server drains its jobs), which Ctrl-C must not.
            await Daemon.stop(self)

    def _after_run(self) -> None:
        """Synchronous cleanup once :meth:`run`'s loop is gone (a hook)."""

    def run_in_thread(self, *, ready_timeout: float = 30.0) -> ServerHandle:
        """Start on a daemon thread; returns a :class:`ServerHandle`.

        The convenience behind the test-suite, example, and benchmark
        daemons: bind (resolving ``port=0``), then return once requests
        can be served.
        """
        started = threading.Event()
        handle = ServerHandle(self)

        async def serve_until_stopped() -> None:
            await self.start()
            handle._loop = asyncio.get_running_loop()
            handle._stop = asyncio.Event()
            started.set()
            await handle._stop.wait()
            await self.stop()

        def target() -> None:
            try:
                asyncio.run(serve_until_stopped())
            except BaseException as exc:  # pragma: no cover - surfaced below
                handle.error = exc
            finally:
                started.set()

        thread = threading.Thread(
            target=target, name=f"repro-{self.role}", daemon=True
        )
        handle._thread = thread
        thread.start()
        started.wait(ready_timeout)
        if handle.error is not None:
            raise EngineError(f"{self.role} failed to start: {handle.error}")
        if self._server is None:
            raise EngineError(f"{self.role} failed to start within ready_timeout")
        return handle

    # ------------------------------------------------------------------ #
    # The keep-alive loop
    # ------------------------------------------------------------------ #
    async def _serve_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(reader, max_body=self.max_body),
                        IDLE_TIMEOUT,
                    )
                except asyncio.TimeoutError:
                    break
                except HttpError as exc:
                    # An unparseable request leaves the stream unframed.
                    writer.write(error_response(exc).render(keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                try:
                    response = await self.respond(request, reader, writer)
                except Exception as exc:  # noqa: BLE001 - mapped to a status
                    response = error_response(exc)
                if response is None:
                    break  # a stream, which ends by closing the connection
                keep = request.keep_alive and response.status < 500
                writer.write(response.render(keep_alive=keep))
                await writer.drain()
                if not keep:
                    break
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass  # the client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            # stop() cancels parked handlers. Ending normally instead of
            # re-raising keeps 3.11's streams callback from logging each
            # open connection as an unhandled cancelled task (gh-110894).
            # Abort, not close: close() first flushes, and a client that
            # stopped reading would hold the shutdown forever.
            writer.transport.abort()
        finally:
            self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
