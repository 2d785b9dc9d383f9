"""``MiningServer``: the mining engine behind an asyncio HTTP front door.

The paper's loop is a dialogue — mine, show, assimilate, repeat — and a
dialogue needs a wire. This module serves a
:class:`~repro.engine.service.MiningService` over HTTP (stdlib asyncio
only):

====================  =================================================
``POST /jobs``        submit a ``{"spec": ...}`` or ``{"job": ...}``
                      document (priority/deadline honored)
``GET /jobs``         list every submission and its status
``GET /jobs/{id}``    one submission's status snapshot
``GET /jobs/{id}/result``  the result (``?wait=S`` long-polls)
``POST /jobs/{id}/cancel`` deterministic cancel-while-queued
``GET /events``       Server-Sent-Events stream of every mining event
``GET /health``       liveness + scheduler/cache/stream statistics
====================  =================================================

Every submission is wired with a per-job
:class:`~repro.events.MiningObserver` whose callbacks — fired from
engine worker threads — are bridged onto per-subscriber asyncio queues
by the :class:`~repro.server.hub.EventHub`, so patterns, SI scores, and
scheduler decisions stream live with sequence numbers; a dropped client
resumes via SSE ``Last-Event-ID``. The JSON forms come from
:mod:`repro.server.wire`, shared with
:class:`repro.client.RemoteWorkspace` so remote results decode
bit-identical to local ones.
"""

from __future__ import annotations

import asyncio
import secrets
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError

from repro.engine.service import JobStatus, MiningService
from repro.errors import EngineError
from repro.events import MiningObserver
from repro.obs import clock
from repro.obs.instruments import HTTP_REQUESTS, METRICS
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.obs.trace import TRACER
from repro.server import http, wire
from repro.server.http import ServerHandle
from repro.server.hub import EventHub
from repro.version import __version__

__all__ = ["MiningServer", "ServerHandle"]

#: Hard ceiling on one ``?wait=`` long-poll (clients loop to wait longer).
MAX_RESULT_WAIT = 30.0

#: Most SSE frames joined into one socket write. Most frames are a few
#: hundred bytes; a full ``candidates`` frame is up to about 220 KB (a
#: crime or mammals beam level at paper settings).
_BURST_FRAMES = 64

#: Most candidate summaries one ``candidates`` event carries. Above a
#: synthetic step's roughly 150, so such a step publishes its candidates
#: once, after its beam: a publish while the beam runs wakes the event
#: loop, which then competes with the mining thread for the GIL.
_CANDIDATE_BATCH = 1024


async def _until_eof(reader) -> None:
    """Read and discard a connection's input until its EOF (or reset)."""
    try:
        while await reader.read(65536):
            pass
    except (ConnectionError, OSError):
        pass


def _wait_quietly(
    service: MiningService,
    job_id: str,
    timeout: float,
    stop: threading.Event,
):
    """Block until the job settles (or the wait elapses); never raises.

    Runs on an executor thread. Exceptions must be contained *here*: a
    ``concurrent.futures.CancelledError`` from a job cancelled mid-wait
    would otherwise be rewrapped by asyncio into a BaseException-derived
    ``asyncio.CancelledError`` at the ``await``, sail past every
    ``except Exception`` guard, and kill the HTTP connection with no
    response. The caller re-reads the job status and renders the
    terminal state instead.

    The wait is split into short legs so a server shutdown (``stop``)
    releases parked threads within ~a second even while their job is
    still running — an uninterruptible 30 s ``service.result`` would
    otherwise keep the process alive after Ctrl-C until the pool's
    atexit join drained it.
    """
    give_up_at = clock.monotonic() + timeout
    while not stop.is_set():
        leg = min(1.0, give_up_at - clock.monotonic())
        if leg <= 0:
            return None
        try:
            return service.result(job_id, leg)
        except FuturesTimeoutError:
            continue  # leg elapsed; job still pending/running
        except BaseException:  # noqa: BLE001 - see docstring
            return None
    return None


def _job_error(service: MiningService, job_id: str) -> BaseException | None:
    """The stored exception of a failed/expired job (executor thread)."""
    try:
        service.result(job_id, 10.0)
    except BaseException as exc:  # noqa: BLE001 - captured, not raised
        return exc
    return None


class _JobStreamObserver(MiningObserver):
    """Per-job observer publishing tagged wire events onto the hub.

    The service assigns the job id *during* submit while events may
    already be firing from worker threads, so events are buffered until
    :meth:`bind` supplies the id, then flushed in order. Candidate
    summaries collect in a batch that is published as one ``candidates``
    event when it fills (:data:`_CANDIDATE_BATCH`) or just before the
    job's next other event, so the job's events keep their order. The
    summaries are made from each beam level's batch columns; with
    ``candidates`` off a batch is ignored on arrival. All callbacks are
    thread-safe and non-blocking (hub publishing never waits on
    subscribers), as the engine's observer contract requires.
    """

    def __init__(self, hub: EventHub, *, candidates: bool = True) -> None:
        self._hub = hub
        self._candidates = candidates
        self._lock = threading.Lock()
        self._pending: list | None = []
        self._job_id: str | None = None
        #: Candidate summaries not yet published, in generation order.
        self._batch: list = []

    def bind(self, job_id: str) -> None:
        """Set the job id and flush everything buffered before it.

        The flush publishes *under the observer lock*: a worker-thread
        event arriving concurrently must queue behind it, or it would
        overtake older buffered events and break this job's sequence
        order. Publishing is non-blocking (the hub never waits on
        subscribers), so holding the lock across it is cheap.
        """
        with self._lock:
            pending, self._pending = self._pending, None
            self._job_id = job_id
            for build in pending or ():
                self._hub.publish(build(job_id))

    def _publish(self, build) -> None:
        """Publish one event, or buffer it until :meth:`bind` (lock held)."""
        if self._pending is not None:
            self._pending.append(build)
            return
        self._hub.publish(build(self._job_id))

    def _publish_batch(self) -> None:
        """Publish the collected candidate summaries (lock held)."""
        batch, self._batch = self._batch, []
        self._publish(lambda job_id: wire.candidates_event(job_id, batch))

    def _emit(self, build) -> None:
        with self._lock:
            if self._batch:
                self._publish_batch()
            self._publish(build)

    def on_candidates(self, batch) -> None:
        if not self._candidates:
            return
        summaries = wire.candidates_to_wire(batch)
        with self._lock:
            start = 0
            while start < len(summaries):
                stop = start + _CANDIDATE_BATCH - len(self._batch)
                self._batch.extend(summaries[start:stop])
                start = stop
                if len(self._batch) == _CANDIDATE_BATCH:
                    self._publish_batch()

    def on_iteration(self, iteration) -> None:
        self._emit(lambda job_id: wire.iteration_event(job_id, iteration))

    def on_job(self, result) -> None:
        self._emit(lambda job_id: wire.job_event(job_id, result))

    def on_job_failed(self, job, error) -> None:
        self._emit(lambda job_id: wire.job_failed_event(job_id, job, error))

    def on_schedule(self, event) -> None:
        # Scheduler events are self-tagged with their job id already.
        self._emit(lambda job_id: wire.schedule_event(event))


class MiningServer(http.Daemon):
    """Serve a :class:`~repro.engine.service.MiningService` over HTTP.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks a free ephemeral port (read the
        chosen one from :attr:`port` after :meth:`start`).
    service:
        An existing service to expose. When omitted one is created from
        ``backend``/``max_workers`` and shut down with the server. Only
        jobs submitted *through this server* stream events — a shared
        service's direct submissions have no per-job observer.
    backend / max_workers:
        Configuration of the lazily created service. The default
        ``"thread"`` backend streams candidate/iteration events live
        from worker threads; ``"process"`` replays them at completion
        (the engine cannot ship callbacks across processes).
        ``max_workers`` jobs run at once; on the thread backend they
        take turns at mining, one step at a time (see
        :class:`~repro.engine.service.MiningService`).
    observer:
        Optional service-wide observer (e.g. a
        :class:`~repro.report.live.LiveReporter` for server-side logs);
        attached to the service and detached on :meth:`stop`.
    candidate_events:
        Also stream a summary of every scored subgroup, most of what a
        stream carries: at paper settings a beam level scores tens of
        candidates on synthetic and about 18,000 on mammals and 38,000
        on crime. Summaries travel as ``candidates`` events of up to
        1,024 each, published when a batch fills or just before the
        job's next other event, so a synthetic step costs one event
        after its beam. Pattern/scheduler events are unaffected. Pass
        ``False`` (CLI ``--no-candidates``) when no client renders
        them: each level's batch is then dropped unread, so no summary
        or description text is made.
    history / queue_maxsize:
        Replay-buffer and per-subscriber queue bounds of the
        :class:`~repro.server.hub.EventHub`. ``history`` counts
        candidates (a ``candidates`` event weighs its number of
        summaries, any other event 1); ``queue_maxsize`` counts
        events.
    heartbeat_seconds:
        Idle interval after which SSE connections get a comment frame
        (keeps proxies from reaping quiet streams).
    store:
        Durable job store for the owned service: a directory path or a
        :class:`repro.store.JobStore`. Terminal jobs survive restarts
        bit-identically and queued jobs are re-enqueued in order; the
        server's stream :attr:`generation` is persisted there too, so
        clients can tell a restart from a reconnect. Incompatible with
        an external ``service`` (pass the store to that service
        instead).
    record_ttl_seconds / max_terminal_records:
        Terminal-record expiry of the owned durable service (see
        :class:`~repro.engine.service.MiningService`).

    The lifecycle, the keep-alive loop (idle connections close after
    :data:`repro.server.http.IDLE_TIMEOUT`) and the error envelope come
    from :class:`repro.server.http.Daemon`.
    """

    role = "server"

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 8765,
        service: MiningService | None = None,
        backend: str = "thread",
        max_workers: int = 2,
        observer: MiningObserver | None = None,
        candidate_events: bool = True,
        history: int = 4096,
        queue_maxsize: int = 512,
        heartbeat_seconds: float = 15.0,
        store=None,
        record_ttl_seconds: float | None = None,
        max_terminal_records: int | None = None,
    ) -> None:
        super().__init__(host, port)
        self._owns_service = service is None
        if service is None:
            service = MiningService(
                max_workers=max_workers,
                backend=backend,
                observer=observer,
                store=store,
                record_ttl_seconds=record_ttl_seconds,
                max_terminal_records=max_terminal_records,
            )
            self._observer = None  # owned service: observer lives inside it
        else:
            if store is not None:
                raise EngineError(
                    "store= requires a server-owned service; construct your "
                    "MiningService with the store and pass that instead"
                )
            service.add_observer(observer)
            self._observer = observer
        self.service = service
        # The stream generation: every SSE frame and submit response is
        # stamped with it, and /health exposes it. A stored server draws
        # a fresh monotone integer per boot (so clients *know* frame
        # seqs restarted); a storeless one uses a random nonce.
        if self.service.store is not None:
            self.generation = str(self.service.store.next_generation())
        else:
            self.generation = secrets.token_hex(8)
        self.hub = EventHub(history=history, queue_maxsize=queue_maxsize)
        self.candidate_events = candidate_events
        self.heartbeat_seconds = heartbeat_seconds
        self._submitted = 0
        # Long-polling ``?wait=`` legs park a thread each for up to 30 s;
        # give them their own pool so they can never starve the loop's
        # default executor (which submits and fetches run there too).
        self._wait_executor = ThreadPoolExecutor(
            max_workers=64, thread_name_prefix="repro-result-wait"
        )
        # Set on shutdown: releases long-poll legs parked in the wait
        # executor within ~a second (see _wait_quietly).
        self._stopping = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle extras
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the event hub to this loop, then the listening socket."""
        if self._stopping.is_set():
            # stop() tears down one-shot state (hub, wait executor);
            # refuse a half-broken relaunch instead of limping.
            raise EngineError(
                "this server was stopped; construct a new MiningServer"
            )
        self.hub.bind(asyncio.get_running_loop())
        await super().start()

    async def stop(self) -> None:
        """End SSE streams, close the socket, and wind the service down."""
        self.hub.close()
        await super().stop()
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self._wind_down(wait=True)
        )

    def _after_run(self) -> None:
        # Ctrl-C: the loop is gone, and queued or running jobs are not
        # waited for.
        self._wind_down(wait=False)

    def _wind_down(self, *, wait: bool) -> None:
        """Release parked long-polls, close the hub, let the service go.

        Setting ``_stopping`` releases long-poll threads parked in the
        wait executor (they re-check it every ~1 s leg), and shutting
        that executor keeps its non-daemon threads from holding the
        process open. ``wait`` drains the owned service's jobs.
        """
        self._stopping.set()
        self.hub.close()
        if self._owns_service:
            self.service.shutdown(wait=wait)
        else:
            self.service.remove_observer(self._observer)
        self._wait_executor.shutdown(wait=False)

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #
    async def respond(
        self, request: http.Request, reader, writer
    ) -> http.Response | None:
        """Answer: metrics, the event stream, or a JSON document."""
        if request.method == "GET" and request.path == "/metrics":
            # Prometheus text, not JSON: answered here rather than
            # through _dispatch's document pipeline.
            HTTP_REQUESTS.labels("/metrics").inc()
            return http.Response(
                200,
                METRICS.render().encode("utf-8"),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        if request.method == "GET" and request.path == "/events":
            HTTP_REQUESTS.labels("/events").inc()
            await self._handle_events(request, reader, writer)
            return None
        status, document = await self._dispatch(request)
        if "result" in document or "jobs" in document:
            # Result/listing documents can run to megabytes of pattern
            # arrays; encode off the loop so one big response cannot
            # stall every other connection's events and heartbeats.
            body = await asyncio.get_running_loop().run_in_executor(
                None, http.json_body, document
            )
        else:
            body = http.json_body(document)
        extra: tuple = ()
        if status == 200 and request.method == "GET" and "result" in document:
            # GET /jobs/{id}/result: the one heavyweight, byte-stable
            # response — worth a validator and a wire coding. The ETag
            # hashes the *identity* body, so it survives restarts and is
            # independent of whether this response ends up gzipped.
            etag = http.etag_for(body)
            extra += (("ETag", etag), ("Vary", "Accept-Encoding"))
            if http.etag_matches(request.headers.get("if-none-match"), etag):
                status, body = 304, b""
            elif (
                http.wants_gzip(request.headers)
                and len(body) >= http.GZIP_MIN_BYTES
            ):
                body = await asyncio.get_running_loop().run_in_executor(
                    None, http.gzip_body, body
                )
                extra += (("Content-Encoding", "gzip"),)
        return http.Response(status, body, headers=extra)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _route_label(parts: list[str]) -> str:
        """The bounded route label of a request path (ids collapsed)."""
        if not parts:
            return "/"
        if parts[0] == "jobs":
            if len(parts) == 1:
                return "/jobs"
            if len(parts) == 3 and parts[2] in ("result", "cancel"):
                return f"/jobs/{{id}}/{parts[2]}"
            return "/jobs/{id}"
        if parts[0] == "health":
            return "/" + "/".join(parts)
        return "other"

    async def _dispatch(self, request: http.Request) -> tuple[int, dict]:
        parts = [part for part in request.path.split("/") if part]
        HTTP_REQUESTS.labels(self._route_label(parts)).inc()
        if parts == ["health"] and request.method == "GET":
            return 200, self._health()
        if parts == ["jobs"]:
            if request.method == "POST":
                return await self._submit(request)
            if request.method == "GET":
                return 200, self._list_jobs()
            raise http.HttpError(405, f"{request.method} not allowed on /jobs")
        if len(parts) >= 2 and parts[0] == "jobs":
            job_id = parts[1]
            if len(parts) == 2:
                if request.method == "GET":
                    return 200, self._job_state(job_id)
                if request.method == "DELETE":
                    return self._cancel(job_id)
                raise http.HttpError(
                    405, f"{request.method} not allowed on /jobs/{{id}}"
                )
            if parts[2] == "result" and len(parts) == 3 and request.method == "GET":
                return await self._result(job_id, request)
            if parts[2] == "cancel" and len(parts) == 3 and request.method == "POST":
                return self._cancel(job_id)
        raise http.HttpError(
            404,
            f"no route for {request.method} {request.path}; the API surface "
            f"is /health, /metrics, /jobs, /jobs/{{id}}, /jobs/{{id}}/result, "
            f"/jobs/{{id}}/cancel, /events",
        )

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #
    def _health(self) -> dict:
        statuses = self.service.jobs().values()
        counts: dict[str, int] = {}
        for status in statuses:
            counts[status.value] = counts.get(status.value, 0) + 1
        cache = self.service.cache_stats
        store_section = None
        if self.service.store is not None:
            store_section = {"records": len(self.service.store)}
            belief_cache = self.service.belief_cache
            spill = None if belief_cache is None else belief_cache.spill
            if spill is not None:
                s = spill.stats
                lookups = s.hits + s.misses
                store_section["belief_spill"] = {
                    "hits": s.hits,
                    "misses": s.misses,
                    "stores": s.stores,
                    "errors": s.errors,
                    "hit_rate": (s.hits / lookups) if lookups else None,
                }
        return {
            "schema": wire.WIRE_SCHEMA,
            "status": "ok",
            "version": __version__,
            "generation": self.generation,
            "durable": self.service.store is not None,
            "uptime_seconds": self.uptime_seconds,
            "service": {
                "backend": self.service.backend,
                "max_workers": self.service.max_workers,
                "aging_seconds": self.service.aging_seconds,
            },
            "jobs": {"submitted": self._submitted, "by_status": counts},
            "result_cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
            },
            "store": store_section,
            "events": self.hub.stats(),
            "observability": {
                "metrics": "/metrics",
                "spans_retained": len(TRACER.finished()),
            },
        }

    async def _submit(self, request: http.Request) -> tuple[int, dict]:
        job = wire.submission_spec(request.json())
        observer = _JobStreamObserver(self.hub, candidates=self.candidate_events)
        loop = asyncio.get_running_loop()
        # Sampled before submission: every event of this job has a
        # higher sequence number, so a client subscribing with
        # ``since=<this>`` replays the job's stream from its first
        # event — no extra round trip to anchor, no missed-event window.
        since = self.hub.latest_seq
        # submit() can mine inline (serial backend) — keep it off the loop.
        job_id = await loop.run_in_executor(
            None, lambda: self.service.submit(job, observer=observer)
        )
        observer.bind(job_id)
        self._submitted += 1
        return 201, {
            "schema": wire.WIRE_SCHEMA,
            "job_id": job_id,
            "status": self.service.status(job_id).value,
            "name": job.label,
            "fingerprint": job.fingerprint(),
            "since": since,
            "gen": self.generation,
        }

    def _require_job(self, job_id: str):
        try:
            return self.service.job(job_id)
        except EngineError as exc:
            raise http.HttpError(404, str(exc)) from exc

    def _job_state(self, job_id: str) -> dict:
        job = self._require_job(job_id)
        return wire.job_state_to_wire(job_id, self.service.status(job_id), job)

    def _list_jobs(self) -> dict:
        entries = [
            wire.job_state_to_wire(job_id, status, self.service.job(job_id))
            for job_id, status in sorted(self.service.jobs().items())
        ]
        return {"schema": wire.WIRE_SCHEMA, "jobs": entries}

    async def _result(self, job_id: str, request: http.Request) -> tuple[int, dict]:
        self._require_job(job_id)
        try:
            wait = min(float(request.query.get("wait", 0.0)), MAX_RESULT_WAIT)
        except ValueError:
            raise http.HttpError(
                400, f"bad wait value {request.query.get('wait')!r}"
            ) from None
        loop = asyncio.get_running_loop()
        status = self.service.status(job_id)
        result = None
        if status in (JobStatus.PENDING, JobStatus.RUNNING) and wait > 0:
            # Timeout, cancellation, and failure all surface as a fresh
            # status read below; a success is kept (no second fetch).
            result = await loop.run_in_executor(
                self._wait_executor,
                _wait_quietly,
                self.service,
                job_id,
                wait,
                self._stopping,
            )
            status = self.service.status(job_id)
        document: dict = {
            "schema": wire.WIRE_SCHEMA,
            "job_id": job_id,
            "status": status.value,
        }
        if status in (JobStatus.PENDING, JobStatus.RUNNING):
            return 202, document
        if status == JobStatus.DONE:
            if result is None:
                result = await loop.run_in_executor(
                    None, _wait_quietly, self.service, job_id, 10.0, self._stopping
                )
            if result is None:  # pragma: no cover - done jobs resolve
                raise http.HttpError(
                    500, f"job {job_id} is done but its result was unavailable"
                )
            # The numpy→list conversion scales with the mined indices;
            # keep it off the loop (the body encode is offloaded too).
            document["result"] = await loop.run_in_executor(
                None, wire.job_result_to_wire, result
            )
            return 200, document
        if status == JobStatus.CANCELLED:
            document["error"] = {
                "type": "CancelledError",
                "message": f"job {job_id} was cancelled before it ran",
            }
            return 200, document
        # FAILED or EXPIRED: report the stored exception.
        error = await loop.run_in_executor(None, _job_error, self.service, job_id)
        if error is not None:
            document["error"] = wire.error_to_wire(error)
        return 200, document

    def _cancel(self, job_id: str) -> tuple[int, dict]:
        self._require_job(job_id)
        cancelled = self.service.cancel(job_id)
        return 200, {
            "schema": wire.WIRE_SCHEMA,
            "job_id": job_id,
            "cancelled": cancelled,
            "status": self.service.status(job_id).value,
        }

    # ------------------------------------------------------------------ #
    # SSE
    # ------------------------------------------------------------------ #
    async def _handle_events(
        self, request: http.Request, reader, writer
    ) -> None:
        since: int | None = None
        raw = request.headers.get("last-event-id") or request.query.get("since")
        if raw is not None:
            try:
                since = int(raw)
            except ValueError:
                raise http.HttpError(400, f"bad Last-Event-ID {raw!r}") from None
        # Optional server-side filter: ?job_id= streams one job's events
        # only. The filter lives inside the hub subscription, so foreign
        # events neither cross the wire nor occupy (or evict from) this
        # subscriber's bounded queue — and a quiet *filtered* stream
        # still heartbeats even while the server is busy with other
        # jobs, which is what keeps the client's dropped-terminal
        # healing path alive. Filtered-out sequence numbers simply never
        # appear on this connection.
        subscription = self.hub.subscribe(
            since=since, job_id=request.query.get("job_id")
        )
        writer.write(http.sse_preamble())
        # The client sends nothing after its request, so EOF on the read
        # side is the client closing: the stream ends then, instead of
        # holding its subscription until a heartbeat write fails.
        hangup = asyncio.ensure_future(_until_eof(reader))
        get_task: asyncio.Task | None = None
        try:
            await writer.drain()
            while True:
                if get_task is None:
                    get_task = asyncio.ensure_future(subscription.get())
                done, _ = await asyncio.wait(
                    {get_task, hangup},
                    timeout=self.heartbeat_seconds,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if hangup in done:
                    break
                if not done:
                    # Idle: heartbeat, and notice a dead client by the
                    # write failing. The un-awaited get_task survives the
                    # wait() timeout, so no event is lost.
                    writer.write(http.sse_comment())
                    await writer.drain()
                    continue
                closed = self._write_burst(
                    writer, get_task.result(), subscription
                )
                get_task = None
                await writer.drain()
                if closed:
                    break
        except (ConnectionError, OSError):
            pass  # client disconnected; Last-Event-ID lets it resume
        finally:
            hangup.cancel()
            if get_task is not None:
                get_task.cancel()
            subscription.close()

    def _write_burst(self, writer, entry, subscription) -> bool:
        """Write ``entry`` and the entries queued behind it in one write.

        Takes at most :data:`_BURST_FRAMES` frames; appends the shutdown
        comment and returns True once the hub has closed. The frames
        live only in this call, so a stream idling between bursts holds
        none of them.
        """
        frames = []
        while entry is not None:
            seq, event = entry
            # Every frame carries the server's stream generation, so a
            # client resuming with Last-Event-ID against a *restarted*
            # server (fresh seq space) can detect the mismatch and
            # re-anchor instead of silently misaligning.
            frames.append(
                http.sse_event(
                    seq,
                    event.get("type", "message"),
                    {**event, "gen": self.generation},
                )
            )
            if len(frames) == _BURST_FRAMES:
                break
            try:
                entry = subscription.get_nowait()
            except asyncio.QueueEmpty:
                break
        if entry is None:  # hub closed: server shutting down
            frames.append(http.sse_comment("server shutdown"))
        writer.write(b"".join(frames))
        return entry is None
