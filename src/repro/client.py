"""``RemoteWorkspace``: the Workspace API over the wire.

Local code drives the engine through :class:`repro.api.Workspace`; this
module gives the same verbs — ``mine`` / ``stream`` / ``submit`` /
``status`` / ``result`` / ``cancel`` — against a
:class:`repro.server.MiningServer` on the network, so moving a workload
from in-process to a shared mining server is a one-line change::

    from repro.client import RemoteWorkspace

    with RemoteWorkspace("http://mining-host:8765") as ws:
        for iteration in ws.stream(spec):      # live, over SSE
            print(iteration.location)
        result = ws.mine(spec)                 # submit + block

Everything rides the canonical JSON schemas of
:mod:`repro.server.wire`, whose float encoding round-trips exactly —
the engine's determinism contract therefore extends across the network:
``RemoteWorkspace.mine(spec)`` returns patterns and SI scores
bit-identical to ``Workspace().mine(spec)``. Streaming parses the
server's Server-Sent-Events feed; a dropped connection reconnects with
``Last-Event-ID``, and the sequence numbers make redelivery and gaps
detectable. Stdlib only (``http.client``), no extra dependencies.
"""

from __future__ import annotations

import gzip
import json
import socket
import time
from collections import OrderedDict
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FuturesTimeoutError
from http.client import HTTPConnection, HTTPException
from typing import Iterator

from repro.engine.jobs import JobResult
from repro.engine.service import JobStatus
from repro.errors import (
    DataError,
    DeadlineExpired,
    EngineError,
    LanguageError,
    ModelError,
    ReproError,
    SearchError,
)
from repro.events import MiningObserver, guarded
from repro.search.results import MiningIteration
from repro.server import wire
from repro.server.http import split_url
from repro.spec import MiningSpec

__all__ = [
    "RemoteWorkspace",
    "RemoteError",
    "RemoteJobFailed",
    "ServerRestarted",
]

#: Per-job ``(etag, document)`` revalidation entries kept client-side.
_RESULT_CACHE_SIZE = 32


class RemoteError(EngineError):
    """The server answered with an error document."""

    def __init__(self, message: str, *, status: int = 0, remote_type: str = "") -> None:
        super().__init__(message)
        self.status = status
        self.remote_type = remote_type


class RemoteJobFailed(RemoteError):
    """A remote job raised; carries the server-side exception's name."""


class ServerRestarted(RemoteError):
    """The event stream's generation changed: the server restarted.

    Every SSE frame carries the server's stream generation (a per-boot
    marker). When it changes mid-feed, the server the client is now
    talking to has a *fresh* sequence space and replay history, so a
    ``Last-Event-ID`` resume would silently misalign. :meth:`~
    RemoteWorkspace.events` raises this instead; :meth:`~
    RemoteWorkspace.stream` catches it and re-anchors against the new
    generation (a durable server recovers the job from its store).
    """

    def __init__(
        self,
        message: str,
        *,
        old_generation: str | None = None,
        new_generation: str | None = None,
    ) -> None:
        super().__init__(message)
        self.old_generation = old_generation
        self.new_generation = new_generation


#: Remote exception names mapped back onto local types, so error
#: handling code works unchanged against a RemoteWorkspace.
_ERROR_TYPES: dict[str, type] = {
    "DeadlineExpired": DeadlineExpired,
    "EngineError": EngineError,
    "SearchError": SearchError,
    "DataError": DataError,
    "LanguageError": LanguageError,
    "ModelError": ModelError,
    "ReproError": ReproError,
}

#: One long-poll leg of ``result()``; the client loops for longer waits.
_WAIT_CHUNK = 25.0


def _raise_remote(error: dict, *, status: int = 0, job: bool = False) -> None:
    """Re-raise a wire error document as the closest local exception."""
    remote_type = str(error.get("type", "Error"))
    message = str(error.get("message", "remote error"))
    if remote_type == "CancelledError":
        raise CancelledError(message)
    exc_type = _ERROR_TYPES.get(remote_type)
    if exc_type is not None and not job:
        raise exc_type(message)
    if exc_type is DeadlineExpired:
        raise DeadlineExpired(message)
    raise RemoteJobFailed(
        f"{remote_type}: {message}", status=status, remote_type=remote_type
    )


class _SSEStream:
    """One open ``/events`` connection, parsed frame by frame."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        since: int | None,
        timeout: float,
        job_id: str | None = None,
    ):
        self._conn = HTTPConnection(host, port, timeout=timeout)
        self._response = None
        headers = {"Accept": "text/event-stream"}
        if since is not None:
            headers["Last-Event-ID"] = str(since)
        path = "/events" if job_id is None else f"/events?job_id={job_id}"
        try:
            self._conn.request("GET", path, headers=headers)
            self._response = self._conn.getresponse()
        except BaseException:
            self.close()
            raise
        if self._response.status != 200:
            body = self._response.read()
            self.close()
            raise RemoteError(
                f"event stream refused: HTTP {self._response.status} "
                f"{body[:200]!r}",
                status=self._response.status,
            )

    def frames(self) -> Iterator["tuple[int, dict] | None"]:
        """Yield ``(seq, event_document)`` pairs until the stream ends.

        Comment frames (the server's idle heartbeats) surface as bare
        ``None`` entries so callers can run liveness checks on a quiet
        stream instead of blocking until the next real event.
        """
        seq = 0
        data_lines: list[str] = []
        for raw in self._response:
            line = raw.decode("utf-8").rstrip("\r\n")
            if line == "":
                if data_lines:
                    document = json.loads("\n".join(data_lines))
                    data_lines = []
                    yield seq, document
                continue
            if line.startswith(":"):
                yield None  # heartbeat / comment
                continue
            field, _, value = line.partition(":")
            value = value.lstrip(" ")
            if field == "id":
                try:
                    seq = int(value)
                except ValueError:
                    pass
            elif field == "data":
                data_lines.append(value)
            # "event:" duplicates the document's "type"; ignored here.

    def close(self) -> None:
        # The stream is a ``Connection: close`` response, which owns the
        # socket once getresponse() returns: closing the connection
        # alone would leave the socket to the garbage collector, and
        # the server would keep streaming to it until then.
        try:
            if self._response is not None:
                self._response.close()
            self._conn.close()
        except Exception:  # pragma: no cover - close is best-effort
            pass


class RemoteWorkspace:
    """The Workspace verbs, spoken over HTTP to a mining server.

    Parameters
    ----------
    url:
        Server base URL, e.g. ``"http://127.0.0.1:8765"`` (a bare
        ``host:port`` is accepted).
    timeout:
        Socket timeout per request, seconds. Long waits (``result`` with
        no deadline, ``stream``) are composed out of bounded legs, so
        they are not limited by it.

    Specs may be :class:`~repro.spec.MiningSpec` instances or their JSON
    dict form — the same flexibility :class:`repro.api.Workspace`
    offers, validated locally before anything is sent.

    Responses negotiate the wire: result documents are fetched with
    ``Accept-Encoding: gzip`` (decompressed transparently) and
    revalidated with ``If-None-Match``, so re-reading a finished job's
    megabyte result costs a 304 and zero body bytes.
    """

    def __init__(
        self,
        url: str = "http://127.0.0.1:8765",
        *,
        timeout: float = 60.0,
    ):
        self.host, self.port = split_url(url, default_port=8765)
        self.timeout = timeout
        #: job_id -> (etag, result document); bounded LRU.
        self._result_cache: OrderedDict[str, tuple[str, dict]] = OrderedDict()
        #: Wire-level savings counters (observable in tests and tooling).
        self.wire_stats = {"revalidated": 0, "gzip_responses": 0}

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    def _exchange(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        extra_headers: dict | None = None,
    ) -> tuple[int, dict, dict]:
        """One round trip: returns (status, document, response headers).

        Transparently decompresses gzip response bodies. A 304 returns
        an empty document — only requests that sent ``If-None-Match``
        (which means the caller holds the cached body) can see one.
        """
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = None
            headers = {
                "Accept": "application/json",
                "Accept-Encoding": "gzip",
            }
            if extra_headers:
                headers.update(extra_headers)
            if body is not None:
                payload = json.dumps(body, allow_nan=False).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            status = response.status
            response_headers = {
                name.lower(): value for name, value in response.getheaders()
            }
        except (ConnectionError, socket.timeout, OSError, HTTPException) as exc:
            raise RemoteError(
                f"cannot reach mining server at {self.host}:{self.port}: {exc}"
            ) from exc
        finally:
            conn.close()
        if response_headers.get("content-encoding", "").lower() == "gzip":
            try:
                raw = gzip.decompress(raw)
            except OSError as exc:
                raise RemoteError(
                    f"bad gzip response body (HTTP {status}): {exc}",
                    status=status,
                ) from exc
            self.wire_stats["gzip_responses"] += 1
        try:
            document = json.loads(raw) if raw else {}
        except ValueError as exc:
            raise RemoteError(
                f"non-JSON response (HTTP {status}): {raw[:200]!r}", status=status
            ) from exc
        if status >= 400:
            error = document.get("error", {})
            raise RemoteError(
                f"{error.get('type', 'HttpError')}: "
                f"{error.get('message', f'HTTP {status}')}",
                status=status,
                remote_type=str(error.get("type", "")),
            )
        return status, document, response_headers

    def _request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict]:
        status, document, _ = self._exchange(method, path, body)
        return status, document

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    @staticmethod
    def _submission_body(spec) -> dict:
        """Validate locally, then wrap in the canonical submit envelope."""
        if isinstance(spec, dict):
            spec = MiningSpec.from_dict(spec)
        if not isinstance(spec, MiningSpec):
            raise EngineError(
                f"expected MiningSpec or spec dict, got {type(spec).__name__}"
            )
        return {"spec": spec.to_dict()}

    def submit(self, spec: MiningSpec | dict) -> str:
        """Queue a spec on the server; returns the remote job id."""
        _, document = self._request("POST", "/jobs", self._submission_body(spec))
        return document["job_id"]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def status(self, job_id: str) -> JobStatus:
        """Lifecycle state of a submitted spec."""
        _, document = self._request("GET", f"/jobs/{job_id}")
        return JobStatus(document["status"])

    def jobs(self) -> dict[str, JobStatus]:
        """Snapshot of every server-side job's status, by id."""
        _, document = self._request("GET", "/jobs")
        return {
            entry["job_id"]: JobStatus(entry["status"])
            for entry in document["jobs"]
        }

    def health(self) -> dict:
        """The server's health/statistics document."""
        _, document = self._request("GET", "/health")
        return document

    def result(self, job_id: str, timeout: float | None = None) -> JobResult:
        """Block until the job finishes; returns its decoded result.

        Mirrors :meth:`repro.engine.service.MiningService.result`:
        re-raises the failure for failed jobs
        (:class:`RemoteJobFailed`), ``CancelledError`` after a cancel,
        :class:`~repro.errors.DeadlineExpired` after expiry, and
        ``concurrent.futures.TimeoutError`` when ``timeout`` elapses
        first.
        """
        give_up_at = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = _WAIT_CHUNK
            if give_up_at is not None:
                wait = min(wait, max(give_up_at - time.monotonic(), 0.0))
            cached = self._result_cache.get(job_id)
            status, document, response_headers = self._exchange(
                "GET",
                f"/jobs/{job_id}/result?wait={wait:g}",
                extra_headers=(
                    {"If-None-Match": cached[0]} if cached is not None else None
                ),
            )
            if status == 304 and cached is not None:
                # Revalidated: the server's result is byte-identical to
                # the cached document (the ETag is content-hashed, so
                # this holds across server restarts too).
                self.wire_stats["revalidated"] += 1
                document = cached[1]
            else:
                etag = response_headers.get("etag")
                if etag and document.get("status") == "done":
                    self._result_cache[job_id] = (etag, document)
                    self._result_cache.move_to_end(job_id)
                    while len(self._result_cache) > _RESULT_CACHE_SIZE:
                        self._result_cache.popitem(last=False)
            job_status = document.get("status")
            if job_status == "done":
                return wire.job_result_from_wire(document["result"])
            if job_status in ("failed", "cancelled", "expired"):
                _raise_remote(
                    document.get("error", {}), status=status, job=True
                )
            if give_up_at is not None and time.monotonic() >= give_up_at:
                raise FuturesTimeoutError(
                    f"job {job_id} still {job_status} after {timeout:g}s"
                )

    def cancel(self, job_id: str) -> bool:
        """Cancel a not-yet-started job; True on success."""
        _, document = self._request("POST", f"/jobs/{job_id}/cancel")
        return bool(document["cancelled"])

    # ------------------------------------------------------------------ #
    # Workspace-shaped execution
    # ------------------------------------------------------------------ #
    def mine(self, spec: MiningSpec | dict) -> JobResult:
        """Submit and block: the remote twin of ``Workspace.mine``."""
        return self.result(self.submit(spec))

    def events(
        self,
        *,
        since: int | None = None,
        reconnect: bool = True,
        heartbeats: bool = False,
        job_id: str | None = None,
        generation: str | None = None,
    ) -> Iterator[wire.RemoteEvent]:
        """The server's live event feed as decoded :class:`RemoteEvent`s.

        Resumes with ``Last-Event-ID`` after a dropped connection while
        ``reconnect`` is true (already-seen sequence numbers are
        filtered out); ends when the server shuts the stream down and
        reconnection is off, or the server is gone — a reconnect the
        server refuses ends the feed rather than raising. With
        ``heartbeats`` on, the server's idle comment frames surface as
        ``type="heartbeat"`` events (empty payload), so consumers can
        run periodic liveness checks on a quiet stream. ``job_id``
        filters *server-side*: only that job's events cross the wire
        (sequence numbers then legitimately skip — they are global).

        Every frame carries the server's stream generation. The feed
        pins itself to the first generation it sees (or to
        ``generation``, e.g. from a submit response) and raises
        :class:`ServerRestarted` the moment a frame disagrees —
        sequence numbers from a restarted server live in a fresh space,
        so resuming across the boundary would misalign silently. The
        check runs *before* the already-seen filter: after a restart,
        even old-looking sequence numbers are new events.
        """
        last_seen = since if since is not None else None
        first_connection = True
        while True:
            try:
                stream = _SSEStream(
                    self.host,
                    self.port,
                    since=last_seen,
                    timeout=self.timeout,
                    job_id=job_id,
                )
            except (ConnectionError, socket.timeout, OSError, HTTPException) as exc:
                if first_connection:
                    raise RemoteError(
                        f"cannot reach mining server at "
                        f"{self.host}:{self.port}: {exc}"
                    ) from exc
                return  # the server went away after a drop: end the feed
            first_connection = False
            dropped = False
            try:
                for entry in stream.frames():
                    if entry is None:  # heartbeat comment
                        if heartbeats:
                            yield wire.RemoteEvent(
                                type="heartbeat",
                                job_id=None,
                                data=None,
                                seq=last_seen or 0,
                            )
                        continue
                    seq, document = entry
                    gen = document.get("gen")
                    if gen is not None:
                        if generation is None:
                            generation = str(gen)
                        elif str(gen) != generation:
                            raise ServerRestarted(
                                f"event stream generation changed from "
                                f"{generation!r} to {gen!r}: the server "
                                f"restarted and its sequence numbers "
                                f"reset; re-anchor the subscription",
                                old_generation=generation,
                                new_generation=str(gen),
                            )
                    if last_seen is not None and seq <= last_seen:
                        continue  # redelivery after resume
                    last_seen = seq
                    yield wire.event_from_wire(document, seq=seq)
            except (ConnectionError, socket.timeout, OSError, HTTPException):
                dropped = True
            finally:
                stream.close()
            if not (reconnect and dropped):
                return
            # ``last_seen`` resumes the stream where it broke.

    def stream(
        self,
        spec: MiningSpec | dict,
        *,
        observer: MiningObserver | None = None,
    ) -> Iterator[MiningIteration]:
        """Submit and yield each iteration live: the remote ``stream``.

        Anchors the feed at the server's current sequence number before
        submitting (events in the submit window are replayed from the
        retained history — no window to miss events), subscribes with a
        server-side filter for this job only, yields its iteration
        events as they arrive, and finishes on its terminal event.
        Because results are canonical on the wire, the yielded
        iterations are bit-identical
        to a local ``Workspace.stream`` of the same spec. If the
        slow-consumer policy dropped an iteration mid-stream, the gap is
        healed from the terminal result document, so the caller always
        sees every iteration exactly once, in order. An optional
        ``observer`` additionally receives every decoded event of this
        job (scheduling decisions included, and one ``on_candidate``
        call per candidate summary of a ``candidates`` event); it runs
        :func:`~repro.events.guarded`, so its exceptions never end the
        stream.

        Survives a server restart mid-stream: when the feed raises
        :class:`ServerRestarted`, the job's state is re-read from the
        (restarted, durable) server — a recovered terminal job heals
        the remaining iterations from its stored result; a re-enqueued
        job is re-subscribed in the fresh sequence space, with the
        per-iteration index dedupe skipping what was already yielded.
        """
        observer = guarded(observer) or MiningObserver()
        body = self._submission_body(spec)
        _, document = self._request("POST", "/jobs", body)
        job_id = document["job_id"]
        # The submit response carries the stream position sampled just
        # before the job was accepted, so subscribing with it replays
        # every event of this job from the server's retained history —
        # no missed-event window, no extra anchoring round trip. (An
        # older server without the field: fall back to one health read;
        # its anchor is later than the submit, but the terminal-result
        # healing still completes the stream.)
        since = document.get("since")
        if since is None:
            since = int(self.health()["events"]["published"])
        anchor = int(since)
        generation = document.get("gen")
        generation = None if generation is None else str(generation)
        yielded = 0
        while True:
            feed = self.events(
                since=anchor,
                reconnect=True,
                heartbeats=True,
                job_id=job_id,
                generation=generation,
            )
            restarted: ServerRestarted | None = None
            try:
                for event in feed:
                    # The slow-consumer policy may still drop events of
                    # *this* job, and a dropped terminal event would hang
                    # this loop forever — so on idle heartbeats (at most one
                    # heartbeat interval after the drop) ask the server for
                    # the job's state and heal from the result document.
                    if event.type == "heartbeat":
                        terminal = self._terminal_result(job_id)
                        if terminal is not None:
                            for iteration in terminal.iterations[yielded:]:
                                observer.on_iteration(iteration)
                                yield iteration
                            observer.on_job(terminal)
                            return
                        continue
                    if event.job_id != job_id:
                        continue  # defensive: an unfiltered/older server
                    _deliver(observer, event)
                    if event.type == "iteration":
                        if event.data.index == yielded + 1:
                            yielded += 1
                            yield event.data
                    elif event.type == "job":
                        # The job event itself already reached the observer
                        # via _deliver (on_job); healed iterations that never
                        # arrived as events still get their on_iteration.
                        for iteration in event.data.iterations[yielded:]:
                            observer.on_iteration(iteration)
                            yield iteration
                        return
                    elif event.type == "job_failed":
                        _raise_remote(event.data["error"], job=True)
                    elif event.type == "schedule":
                        if event.data.kind == "cancelled":
                            raise CancelledError(
                                f"job {job_id} was cancelled ({event.data.detail})"
                            )
                        if event.data.kind == "expired":
                            raise DeadlineExpired(
                                f"job {job_id} expired ({event.data.detail})"
                            )
                raise RemoteError(
                    f"event stream ended before job {job_id} finished"
                )
            except ServerRestarted as exc:
                restarted = exc
            finally:
                feed.close()
            # Re-anchor against the restarted server. A durable server
            # recovered the job from its store: terminal → heal the
            # tail from the stored result (bit-identical); re-enqueued →
            # subscribe afresh from the new history's origin (seq 0) and
            # let the index dedupe skip the iterations already yielded
            # (the belief cache replays them server-side for free).
            generation = restarted.new_generation
            terminal = self._terminal_result(job_id)
            if terminal is not None:
                for iteration in terminal.iterations[yielded:]:
                    observer.on_iteration(iteration)
                    yield iteration
                observer.on_job(terminal)
                return
            anchor = 0

    def _terminal_result(self, job_id: str) -> JobResult | None:
        """The job's result if it already ended; ``None`` while it runs.

        Raises exactly what :meth:`result` would for the non-``done``
        terminal states (failed / cancelled / expired), so the healing
        paths of :meth:`stream` surface the same exceptions as the
        event-driven path.
        """
        status = self.status(job_id)
        if status in (JobStatus.PENDING, JobStatus.RUNNING):
            return None
        return self.result(job_id, timeout=30.0)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Connections are per-call; nothing persistent to release."""

    def __enter__(self) -> "RemoteWorkspace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _deliver(observer: MiningObserver, event: wire.RemoteEvent) -> None:
    """Forward one decoded event onto a local (guarded) observer."""
    if event.type == "iteration":
        observer.on_iteration(event.data)
    elif event.type == "candidates":
        # One call per summary, in generation order. The wire form is the
        # render-ready summary dict (see
        # repro.server.wire.candidate_to_wire), not a ScoredSubgroup.
        for summary in event.data:
            observer.on_candidate(summary)
    elif event.type == "job":
        observer.on_job(event.data)
    elif event.type == "schedule":
        observer.on_schedule(event.data)
    elif event.type == "job_failed":
        observer.on_job_failed(
            event.data["job"],
            RemoteJobFailed(
                f"{event.data['error'].get('type')}: "
                f"{event.data['error'].get('message')}"
            ),
        )
