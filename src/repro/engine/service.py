"""Mining-as-a-service: a scheduled worker pool with result caching.

:class:`MiningService` turns the batch runner into a long-lived server
object: clients submit :class:`~repro.spec.MiningSpec` jobs and
poll (or block on) results while a bounded pool of workers drains the
queue. Unlike a plain ``concurrent.futures`` pool, the service owns its
queue and schedules it deterministically:

- **Priority, deadline, arrival.** Queued jobs dispatch by descending
  :attr:`~repro.spec.ExecutorSpec.priority`, then earliest deadline,
  then submission order — never by pool-internal FIFO luck.
- **Deadlines are terminal.** A job whose
  :attr:`~repro.spec.ExecutorSpec.deadline` elapses before a worker
  picks it up moves to the ``EXPIRED`` state and its ``result()``
  raises :class:`~repro.errors.DeadlineExpired` — the service never
  starts work whose answer can no longer be useful.
- **Cancel-while-queued is deterministic.** :meth:`MiningService.cancel`
  of a job that has not been dispatched always succeeds.
- **Identical work runs once.** Completed specs are deduplicated
  through an LRU result cache keyed by the job fingerprint, and a
  submission whose fingerprint is already queued or running *coalesces*
  onto the in-flight job instead of mining twice.
- **One way a job ends.** Every run and every result-cache lookup ends
  in one settle step: the job and its coalesced duplicates resolve
  together, a result enters the result cache and each record the
  durable store, and every observer hears exactly one terminal event
  (``on_job`` after the iterations it did not hear live, or
  ``on_job_failed``) once the scheduler lock drops.
- **Starvation is bounded.** An aging guard boosts the effective
  priority of long-queued jobs (one level per ``aging_seconds``
  waited), so a low-priority job eventually dispatches even under
  sustained high-priority load; each boost is an ``"aged"`` event.
- **Decisions are observable.** Every scheduling decision is emitted as
  a :class:`~repro.events.SchedulerEvent` through the service's
  observers (``on_schedule``), and each submission may attach its own
  per-job observer that hears that job's events only (the substrate of
  the :mod:`repro.server` streaming endpoints). Events and store writes
  leave the service in the order they were decided.
- **One mining turn.** On the thread backend the dispatched jobs share
  one GIL, so they take turns at mining, one step at a time, through
  the service's :class:`~repro.engine.jobs.MiningTurn`.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import threading
from collections import deque
from concurrent.futures import CancelledError, Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from enum import Enum
from functools import partial
from typing import Iterator, Sequence

from repro.engine.cache import BeliefCache, LRUCache, resolve_belief_cache

# BACKENDS moved to the executor module with the pool-resolution dedup;
# re-imported here so `from repro.engine.service import BACKENDS` (its
# pre-move home) keeps working.
from repro.engine.executor import BACKENDS, resolve_pool

__all__ = ["BACKENDS", "JobStatus", "MiningService"]
from repro.engine.jobs import JobResult, MiningTurn, run_job_with_workers
from repro.errors import DeadlineExpired, EngineError
from repro.events import MiningObserver, SchedulerEvent, broadcast, guarded
from repro.obs import clock
from repro.obs.instruments import (
    BELIEF_SPILL_HIT_RATIO,
    BELIEF_SPILL_HITS,
    BELIEF_SPILL_MISSES,
    JOBS_FINISHED,
    JOBS_SUBMITTED,
    METRICS,
    QUEUE_AGED,
    QUEUE_DEPTH,
    QUEUE_WAIT,
    RESULT_CACHE_HIT_RATIO,
    RESULT_CACHE_HITS,
    RESULT_CACHE_MISSES,
    STORE_RECORDS,
    STORE_RECORDS_SKIPPED,
)
from repro.obs.trace import TRACER
from repro.spec import MiningSpec


def _deliver(observer, job, result, error, *, replay: bool) -> None:
    """One job's terminal event to one (guarded) observer.

    A failure is ``on_job_failed``; a success is ``on_job``, preceded by
    the mined iterations when ``replay`` is set.
    """
    if error is not None:
        observer.on_job_failed(job, error)
        return
    if replay:
        for iteration in result.iterations:
            observer.on_iteration(iteration)
    observer.on_job(result)


def _run_when_open(gate: threading.Event, *args, **kwargs) -> JobResult:
    """Run a thread-backend job once ``gate`` opens.

    The gate opens by a post action queued right after the job's
    ``dispatched`` event, so every event the job publishes while it mines
    follows its ``queued`` and ``dispatched`` events on each observer.
    """
    gate.wait()
    return run_job_with_workers(*args, **kwargs)


class JobStatus(str, Enum):
    """Lifecycle of a submitted job.

    ``PENDING`` jobs wait in the scheduler's queue, ``RUNNING`` jobs
    occupy a worker slot, and the remaining four states are terminal:
    ``DONE`` (result available), ``FAILED`` (``result()`` re-raises the
    worker error), ``CANCELLED`` (cancelled before dispatch), and
    ``EXPIRED`` (the deadline elapsed before a worker was free;
    ``result()`` raises :class:`~repro.errors.DeadlineExpired`).
    """

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    EXPIRED = "expired"


#: Record states that still change (everything else is terminal).
_LIVE_STATES = ("queued", "running")

_STATE_TO_STATUS = {
    "queued": JobStatus.PENDING,
    "running": JobStatus.RUNNING,
    "done": JobStatus.DONE,
    "failed": JobStatus.FAILED,
    "cancelled": JobStatus.CANCELLED,
    "expired": JobStatus.EXPIRED,
}


def _id_number(job_id: str) -> int:
    """The number of a ``job-NNNN`` id (0 for any other id)."""
    try:
        return int(job_id.rsplit("-", 1)[-1])
    except ValueError:
        return 0


def _finish(record: "_Record", state: str) -> None:
    """Move a record to a terminal state (stamp + finished counter)."""
    record.state = state
    record.finished_wall = clock.wall_time()
    JOBS_FINISHED.labels(state).inc()


class _Record:
    """Scheduler bookkeeping of one submission.

    ``priority`` starts as the job's own and may be *boosted* when a
    higher-priority duplicate coalesces onto a still-queued record (the
    queue serves the most urgent interested client); ``boost`` is the
    starvation guard's additive aging credit on top of that. ``proxy_of``
    links a coalesced duplicate to the record doing the actual work;
    ``proxies`` is the reverse edge. ``heap_key`` detects stale heap
    entries after a boost (lazy deletion). ``observer`` is the
    submission's own (already :func:`~repro.events.guarded`) per-job
    observer, or ``None``; ``live`` records whether that observer was
    wired into the mining run itself (so completion must not replay
    iterations to it).
    """

    __slots__ = (
        "job_id",
        "job",
        "fp",
        "seq",
        "priority",
        "boost",
        "enqueued_at",
        "deadline_at",
        "urgency_at",
        "future",
        "state",
        "dist_workers",
        "proxies",
        "proxy_of",
        "heap_key",
        "observer",
        "live",
        "submitted_wall",
        "finished_wall",
        "trace",
        "trace_enqueued",
        "persisted",
    )

    def __init__(
        self,
        job_id: str,
        job: MiningSpec,
        fp: str,
        seq: int,
        dist_workers: "Sequence[str] | None" = None,
        observer: "MiningObserver | None" = None,
    ):
        self.job_id = job_id
        self.job = job
        self.fp = fp
        self.seq = seq
        self.priority = job.executor.priority
        self.boost = 0
        self.enqueued_at = clock.monotonic()
        deadline = job.executor.deadline
        self.deadline_at = None if deadline is None else clock.monotonic() + deadline
        # Scheduling urgency: the record's own deadline, tightened by the
        # earliest deadline of any coalesced duplicate. Ordering only —
        # expiry always uses the record's own deadline_at (a duplicate's
        # impatience must not expire a primary that promised no deadline).
        self.urgency_at = self.deadline_at
        self.future: Future = Future()
        self.state = "queued"
        self.dist_workers = dist_workers
        self.proxies: list["_Record"] = []
        self.proxy_of: "_Record" | None = None
        self.heap_key: tuple | None = None
        self.observer = observer
        self.live = False
        #: Wall-clock stamps for the durable store and terminal TTL.
        self.submitted_wall = clock.wall_time()
        self.finished_wall: float | None = None
        #: Trace context of the submission's root span (None untraced)
        #: and the perf-counter stamp the "schedule" span starts from.
        self.trace = None
        self.trace_enqueued = clock.perf_counter()
        #: Durable-store bookkeeping: the last state snapshotted.
        self.persisted: str | None = None

    def sort_key(self) -> tuple:
        """Dispatch order: priority ↓, deadline ↑, arrival ↑.

        ``priority`` here is the *effective* priority: the (possibly
        coalescing-boosted) base plus the aging guard's ``boost``.
        """
        deadline_rank = (
            (1, 0.0) if self.urgency_at is None else (0, self.urgency_at)
        )
        return (-(self.priority + self.boost), deadline_rank, self.seq)


class MiningService:
    """Scheduled concurrent execution of mining jobs with result caching.

    .. note::
        As a *public entry point* prefer
        :meth:`repro.api.Workspace.submit`, which feeds declarative
        :class:`repro.spec.MiningSpec` documents through this service.
        ``MiningService`` remains the service substrate.

    Parameters
    ----------
    max_workers:
        Upper bound on jobs running at once (default 2). Jobs beyond it
        queue and dispatch in deterministic scheduling order (priority,
        then deadline, then arrival — the scheduling terms of the spec's
        :class:`~repro.spec.ExecutorSpec`). On the thread backend the
        running jobs take turns at mining, one step at a time, through
        the service's :class:`~repro.engine.jobs.MiningTurn`: one GIL
        runs one miner fastest, and a short job waits at most one step
        of each job ahead of it. A job whose spec asks for worker
        processes (``executor.workers > 1``) or that runs on
        ``dist_workers`` mines elsewhere and skips the turn.
    backend:
        ``"process"`` (default) isolates each job in a worker process —
        right for CPU-bound mining; ``"thread"`` keeps everything
        in-process (fast startup, handy for tests and small jobs);
        ``"serial"`` executes synchronously at submit time (each submit
        completes before the next arrives, so scheduling order is
        trivially submission order there).
    cache_size:
        Capacity of the fingerprint-keyed result cache.
    start_method:
        ``multiprocessing`` start method of the ``"process"`` pool's
        workers (``fork``/``spawn``/``forkserver``; ``None`` = platform
        default). Ignored by the thread and serial backends. This
        configures the *service's own* job pool; each job's spec
        (``executor.start_method``) independently configures the pool
        the job spawns internally.
    observer:
        Optional :class:`~repro.events.MiningObserver`. With the
        ``"serial"`` backend candidate/iteration events fire live during
        mining; the process/thread pools cannot ship callbacks across
        workers, so for those backends (and for cache hits) the service
        *replays* ``on_iteration`` for each mined iteration when a job's
        result arrives, then fires ``on_job``. A job that raises fires
        ``on_job_failed`` instead, so every submission that runs ends in
        exactly one terminal event; cancelled and expired jobs surface
        through ``on_schedule``, which also carries every other
        scheduling decision (queued/dispatched/cache_hit/coalesced).
        Scheduling events may fire from worker callback threads.
    belief_cache:
        Belief-state prefix cache shared by the jobs this service runs
        in-process (serial and thread backends; a worker *process*
        cannot share it). ``True`` (default) uses the process-wide
        :data:`~repro.engine.cache.BELIEF_CACHE`, so iterative jobs that
        share a prefix of assimilated patterns — e.g. the same spec at
        growing ``n_iterations`` — only mine the new iterations;
        ``None``/``False`` disables; a
        :class:`~repro.engine.cache.BeliefCache` instance scopes reuse
        to whoever shares that instance.
    aging_seconds:
        Starvation guard: a queued primary gains one effective priority
        level per ``aging_seconds`` spent waiting (emitted as an
        ``"aged"`` :class:`~repro.events.SchedulerEvent`), so sustained
        high-priority load cannot park a low-priority job forever.
        Aging affects dispatch *order* only — never what runs, never
        deadlines. ``None`` disables the guard; the default is 60
        seconds.
    store:
        Optional durable tier: a :class:`repro.store.JobStore` (or a
        path, opened as one). Every record transition is written
        through, and a service constructed over a populated store
        *recovers*: terminal records resolve instantly (done results
        re-enter the result cache bit-identically — zero recompute),
        queued/running records re-enqueue in their original submission
        order. With ``belief_cache=True`` the belief cache additionally
        spills to ``<store>/beliefs/``, so warm belief prefixes survive
        restarts and reach process-backend workers via a picklable
        handle.
    record_ttl_seconds / max_terminal_records:
        Terminal-record retention. A terminal record older than the TTL
        (wall-clock seconds since it finished), or beyond the count cap
        (oldest-finished evicted first), is dropped from the record
        table — and from the store — with an ``"evicted"`` scheduler
        event. ``None`` (default) keeps everything, the pre-store
        behaviour. Live (queued/running) records are never evicted.

    The service is a context manager; leaving the block shuts the pool
    down and waits for running jobs.
    """

    def __init__(
        self,
        *,
        max_workers: int = 2,
        backend: str = "process",
        cache_size: int = 64,
        observer: MiningObserver | None = None,
        start_method: str | None = None,
        belief_cache: BeliefCache | bool | None = True,
        aging_seconds: float | None = 60.0,
        store=None,
        record_ttl_seconds: float | None = None,
        max_terminal_records: int | None = None,
    ) -> None:
        if max_workers < 1:
            raise EngineError(f"max_workers must be >= 1, got {max_workers}")
        if aging_seconds is not None and not (aging_seconds > 0):
            raise EngineError(
                f"aging_seconds must be > 0 or None, got {aging_seconds!r}"
            )
        if record_ttl_seconds is not None and not (record_ttl_seconds > 0):
            raise EngineError(
                f"record_ttl_seconds must be > 0 or None, got {record_ttl_seconds!r}"
            )
        if max_terminal_records is not None and max_terminal_records < 1:
            raise EngineError(
                f"max_terminal_records must be >= 1 or None, "
                f"got {max_terminal_records!r}"
            )
        self.aging_seconds = aging_seconds
        self.backend = backend
        self.max_workers = max_workers
        self.start_method = start_method
        self.record_ttl_seconds = record_ttl_seconds
        self.max_terminal_records = max_terminal_records
        self._store = None
        if store is not None:
            # Lazy import: repro.store imports repro.persist, which pulls
            # in repro.engine.jobs — importing it at module top would
            # cycle through this package's __init__.
            from repro.store import JobStore

            self._store = store if isinstance(store, JobStore) else JobStore(store)
        self._pool = resolve_pool(backend, max_workers, start_method=start_method)
        self._observers: list[MiningObserver] = (
            [observer] if observer is not None else []
        )
        self._recompose_observers()
        self._cache = LRUCache(cache_size)
        if self._store is not None and belief_cache is True:
            # A durable service defaults to a store-scoped belief cache
            # spilling next to its records (not the process-wide one):
            # warm prefixes then survive restarts with the rest of the
            # store, and cross the process-pool boundary as a handle.
            from repro.store import BeliefStore

            self._belief_cache = BeliefCache(
                spill=BeliefStore(self._store.belief_dir)
            )
        else:
            self._belief_cache = resolve_belief_cache(belief_cache)
        # Reentrant: _record_of takes it again under a decision.
        self._lock = threading.RLock()
        # Post actions (scheduler events, store writes, done-callback
        # attachments) join this FIFO before the scheduler lock drops
        # and run in order under the emit lock (see _deciding).
        self._post: deque = deque()
        self._emit_lock = threading.RLock()
        # The thread backend's jobs take turns at mining, step by step.
        self._turn = MiningTurn()
        self._records: dict[str, _Record] = {}
        self._queue: list[tuple[tuple, _Record]] = []
        self._inflight: dict[str, _Record] = {}
        self._running = 0
        self._n_queued = 0
        self._ids = itertools.count(1)
        self._seq = itertools.count()
        # Pull-style gauges (queue depth, cache ratios, store records)
        # refresh at scrape time; the collector is removed on shutdown so
        # a later service in the same process takes over the gauges.
        METRICS.register_collector(self._collect_metrics)
        if self._store is not None:
            self._recover_from_store()

    def _collect_metrics(self) -> None:
        """Refresh this service's pull-style gauges (runs per scrape)."""
        QUEUE_DEPTH.set(self._n_queued)
        stats = self._cache.stats
        RESULT_CACHE_HITS.set(stats.hits)
        RESULT_CACHE_MISSES.set(stats.misses)
        RESULT_CACHE_HIT_RATIO.set(stats.hit_rate)
        if self._store is not None:
            STORE_RECORDS.set(len(self._store))
        spill = (
            self._belief_cache.spill if self._belief_cache is not None else None
        )
        if spill is not None and hasattr(spill, "stats"):
            spill_stats = spill.stats
            total = spill_stats.hits + spill_stats.misses
            BELIEF_SPILL_HITS.set(spill_stats.hits)
            BELIEF_SPILL_MISSES.set(spill_stats.misses)
            BELIEF_SPILL_HIT_RATIO.set(
                spill_stats.hits / total if total else 0.0
            )

    # ------------------------------------------------------------------ #
    # Client API
    # ------------------------------------------------------------------ #
    def submit(
        self,
        job: MiningSpec,
        *,
        dist_workers: Sequence[str] | None = None,
        observer: MiningObserver | None = None,
    ) -> str:
        """Queue a job; returns its id. Cached specs resolve instantly.

        The job runs on its spec's executor section: ``executor.workers``
        and ``executor.start_method`` parallelize the search *inside* the
        job, on every backend. ``dist_workers`` (worker-daemon URLs)
        instead fans the job's shards out to remote workers through a
        :class:`~repro.dist.DistExecutor` — the submission's trace then
        spans the remote shards end to end. The determinism contract
        makes all of them irrelevant to the result, so the cache stays
        keyed by the job fingerprint alone. A submission whose
        fingerprint is already queued or running coalesces onto that
        in-flight job (one mining run, every waiter gets the result);
        scheduling terms come from the spec's
        ``executor.priority``/``executor.deadline``.

        ``observer`` is a *per-job* observer: unlike the service-wide
        observers (which hear every job), it receives only this
        submission's events — its scheduling decisions, its iterations,
        and exactly one terminal ``on_job``/``on_job_failed``. The
        serial and thread backends deliver candidate/iteration events
        live from the mining thread (implementations must be
        thread-safe); the process backend and cache hits replay
        ``on_iteration`` at completion, like the service-wide stream.
        Exceptions it raises are swallowed, never failing the job. This
        is the per-job substrate the :mod:`repro.server` SSE endpoint
        tags its streams with.
        """
        if not isinstance(job, MiningSpec):
            raise EngineError(f"expected MiningSpec, got {type(job).__name__}")
        job_id = f"job-{next(self._ids):04d}"
        fp = job.fingerprint()
        serial_record: _Record | None = None
        # Root span of this submission's trace: everything downstream —
        # the schedule wait, the engine's phase spans, dist shards —
        # parents under it. Purely observational; ids never reach the
        # job's inputs or fingerprint.
        root = TRACER.start("submit")
        root.tag("job", job.label)
        JOBS_SUBMITTED.inc()
        with self._deciding() as post:
            record = _Record(
                job_id,
                job,
                fp,
                next(self._seq),
                dist_workers,
                observer=guarded(observer),
            )
            record.trace = root.context
            self._records[job_id] = record
            self._emit_later(post, "queued", record)
            cached = self._cache.get(fp)
            if cached is not None:
                self._emit_later(post, "cache_hit", record)
                self._settle_locked(record, post, result=cached)
            elif self._pool is None:
                if (
                    record.deadline_at is not None
                    and clock.monotonic() >= record.deadline_at
                ):
                    self._expire_locked(record, post)
                else:
                    record.state = "running"
                    self._emit_later(post, "dispatched", record)
                    serial_record = record
            else:
                primary = self._inflight.get(fp)
                if primary is not None and primary.state in _LIVE_STATES:
                    record.proxy_of = primary
                    primary.proxies.append(record)
                    self._emit_later(
                        post, "coalesced", record, detail=f"onto {primary.job_id}"
                    )
                    # Serve the most urgent interested client: a queued
                    # primary inherits a duplicate's higher priority and
                    # earlier deadline *for ordering* (re-pushed; lazy
                    # deletion skips the stale heap entry). Expiry keeps
                    # using each record's own deadline.
                    if primary.state == "queued":
                        boosted = False
                        if record.priority > primary.priority:
                            primary.priority = record.priority
                            boosted = True
                        if record.deadline_at is not None and (
                            primary.urgency_at is None
                            or record.deadline_at < primary.urgency_at
                        ):
                            primary.urgency_at = record.deadline_at
                            boosted = True
                        if boosted:
                            self._push_locked(primary)
                else:
                    self._enqueue_locked(record)
                    self._dispatch_locked(post)
            self._persist_later(post, record)
            self._prune_terminal_locked(post)
        if serial_record is not None:
            self._run_serial(serial_record)
        root.tag("job_id", job_id)
        TRACER.finish(root)
        return job_id

    def _run_serial(self, record: _Record) -> None:
        """Execute one job inline (the ``"serial"`` backend's dispatch)."""
        record.live = record.observer is not None
        result = error = None
        try:
            # Serial backend: candidate/iteration events fire live, on
            # the service-wide observers and the submission's own (both
            # guarded, so an observer's bug cannot fail the run).
            result = run_job_with_workers(
                record.job,
                belief_cache=self._belief_cache,
                observer=broadcast(self._live_observer, record.observer),
                trace=record.trace,
                dist_workers=record.dist_workers,
            )
        except Exception as exc:  # surface via result(), like a pool would
            error = exc
        with self._deciding() as post:
            self._settle_locked(record, post, result=result, error=error)

    def status(self, job_id: str) -> JobStatus:
        """Current lifecycle state of one job.

        Querying a queued job whose deadline has passed moves it to
        ``EXPIRED`` on the spot (expiry is otherwise observed when a
        worker slot frees up and the scheduler considers the job).
        """
        with self._deciding() as post:
            record = self._record_of(job_id)
            self._expire_if_due_locked(record, post)
            if record.state == "queued" and record.proxy_of is not None:
                # A coalesced duplicate is as far along as its primary.
                status = (
                    JobStatus.RUNNING
                    if record.proxy_of.state == "running"
                    else JobStatus.PENDING
                )
            else:
                status = _STATE_TO_STATUS[record.state]
        return status

    def result(self, job_id: str, timeout: float | None = None) -> JobResult:
        """Block until the job finishes and return its result.

        Re-raises the job's exception on failure,
        :class:`concurrent.futures.CancelledError` after a cancel, and
        :class:`~repro.errors.DeadlineExpired` after a deadline expiry.
        A waiter blocked on a queued deadlined job wakes at the deadline
        to raise — it is never held until a worker slot frees just to
        learn its job expired.
        """
        give_up_at = None if timeout is None else clock.monotonic() + timeout
        while True:
            self.status(job_id)  # lazily expires an overdue queued job
            with self._lock:
                record = self._record_of(job_id)
                future = record.future
                expire_at = None
                if record.state == "queued":
                    watched = (
                        record.proxy_of if record.proxy_of is not None else record
                    )
                    if watched.state == "queued":
                        # Pending expiry of whichever record gates us:
                        # our own while primary-less, the primary's
                        # otherwise (a proxy on started work never
                        # expires; _expire_if_due_locked mirrors this).
                        expire_at = record.deadline_at
            now = clock.monotonic()
            waits = []
            if give_up_at is not None:
                waits.append(give_up_at - now)
            if expire_at is not None:
                waits.append(expire_at - now + 0.001)
            try:
                return future.result(timeout=min(waits) if waits else None)
            except FuturesTimeoutError:
                if give_up_at is not None and clock.monotonic() >= give_up_at:
                    raise
                # Deadline wake-up: loop — status() above expires the
                # record, after which the future resolves immediately.

    def cancel(self, job_id: str) -> bool:
        """Cancel a job that has not started yet; True on success.

        Deterministic: a queued (or coalesced) job always cancels; a
        running or terminal job never does. Cancelling a primary with
        coalesced waiters promotes the oldest waiter into the queue —
        the other clients' work is not discarded with it.
        """
        with self._deciding() as post:
            record = self._record_of(job_id)
            if record.state != "queued":
                return False
            record.future.cancel()
            _finish(record, "cancelled")
            if record.proxy_of is not None:
                if record in record.proxy_of.proxies:
                    record.proxy_of.proxies.remove(record)
            else:
                self._n_queued -= 1
                self._promote_locked(record, post)
                self._dispatch_locked(post)
            self._emit_later(post, "cancelled", record)
            self._persist_later(post, record)
        return True

    def job(self, job_id: str) -> MiningSpec:
        """The spec submitted under ``job_id``."""
        with self._lock:
            return self._record_of(job_id).job

    def jobs(self) -> dict[str, JobStatus]:
        """Snapshot of every submitted job's status, by id."""
        with self._lock:
            ids = list(self._records)
        return {job_id: self.status(job_id) for job_id in ids}

    def wait_all(self, timeout: float | None = None) -> dict[str, JobStatus]:
        """Wait for all non-cancelled jobs, then return their statuses.

        ``timeout`` bounds the *total* wait; if it expires while jobs
        are still running, :class:`TimeoutError` is raised. Job
        failures, cancellations and expiries do not raise here — the
        returned statuses tell that story.
        """
        deadline = None if timeout is None else clock.monotonic() + timeout
        with self._lock:
            futures = [record.future for record in self._records.values()]
        for future in futures:
            remaining = (
                None if deadline is None else max(0.0, deadline - clock.monotonic())
            )
            try:
                future.result(timeout=remaining)
            except CancelledError:
                pass
            except FuturesTimeoutError:  # pre-3.11 this is not TimeoutError
                raise
            except Exception:
                pass
        return self.jobs()

    def _recompose_observers(self) -> None:
        self._live_observer = guarded(broadcast(*self._observers))

    def add_observer(self, observer: MiningObserver | None) -> None:
        """Compose another observer onto the service's event stream.

        Delivery reads the observer set at event time, so the new
        observer also hears pooled jobs already in flight when their
        results arrive; ``None`` is a no-op. Lets a
        :class:`repro.api.Workspace` attach its observer to an
        externally constructed service; detach with
        :meth:`remove_observer`.
        """
        if observer is None:
            return
        self._observers.append(observer)
        self._recompose_observers()

    def remove_observer(self, observer: MiningObserver | None) -> None:
        """Detach a previously attached observer (unknown ones: no-op).

        A :class:`repro.api.Workspace` sharing this service calls this
        on close, so successive workspaces do not accumulate each
        other's observers.
        """
        if observer in self._observers:
            self._observers.remove(observer)
            self._recompose_observers()

    @property
    def cache_stats(self):
        """Hit/miss counters of the result cache."""
        return self._cache.stats

    @property
    def belief_cache(self) -> BeliefCache | None:
        """The belief-state prefix cache in-process jobs share (or None)."""
        return self._belief_cache

    @property
    def store(self):
        """The durable :class:`repro.store.JobStore`, or None."""
        return self._store

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and wind the scheduler down.

        ``wait=True`` (default) drains gracefully: queued jobs are still
        dispatched and everything runs to completion before the pool
        stops — the behaviour of a plain pool shutdown. ``wait=False``
        cancels everything still queued and stops without waiting for
        running jobs. Either way the store writes already decided land,
        and then a durable store is closed; a crash that skips this loses
        no write that had returned, as each one replaces its record's
        file whole.
        """
        METRICS.remove_collector(self._collect_metrics)
        if self._pool is None:
            self._close_store()
            return
        if wait:
            while True:
                with self._lock:
                    live = [
                        record.future
                        for record in self._records.values()
                        if record.state in _LIVE_STATES
                    ]
                if not live:
                    break
                for future in live:
                    try:
                        future.result()
                    except (CancelledError, Exception):
                        pass
        else:
            with self._deciding() as post:
                for record in list(self._records.values()):
                    if record.state != "queued":
                        continue
                    record.future.cancel()
                    _finish(record, "cancelled")
                    if record.proxy_of is None:
                        self._n_queued -= 1
                        if self._inflight.get(record.fp) is record:
                            del self._inflight[record.fp]
                    self._emit_later(
                        post, "cancelled", record, detail="service shutdown"
                    )
                    self._persist_later(post, record)
                self._queue.clear()
        self._pool.shutdown(wait=wait)
        self._close_store()

    def __enter__(self) -> "MiningService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # Scheduler internals (methods suffixed _locked need self._lock held)
    # ------------------------------------------------------------------ #
    def _record_of(self, job_id: str) -> _Record:
        with self._lock:
            try:
                return self._records[job_id]
            except KeyError:
                raise EngineError(f"unknown job id {job_id!r}") from None

    def _push_locked(self, record: _Record) -> None:
        record.heap_key = record.sort_key()
        heapq.heappush(self._queue, (record.heap_key, record))

    def _enqueue_locked(self, record: _Record) -> None:
        """Queue a record as its fingerprint's primary."""
        self._inflight[record.fp] = record
        self._push_locked(record)
        self._n_queued += 1

    def _age_queue_locked(self, post: list) -> None:
        """Starvation guard: boost the priority of long-queued primaries.

        A queued primary earns one effective-priority level per
        :attr:`aging_seconds` spent waiting (boosted records are
        re-pushed; lazy deletion skips their stale heap entries), so a
        steady stream of high-priority arrivals cannot postpone a
        low-priority job forever. Runs at every dispatch opportunity —
        each submission and each completed task re-examines the queue.
        """
        if self.aging_seconds is None or not self._queue:
            return
        now = clock.monotonic()
        # Walk the heap, not self._records: the record table keeps every
        # submission ever made (it backs status()), while the heap holds
        # only queued primaries plus a few stale boosted entries — the
        # scan must stay O(queue), not O(history), on a long-lived server.
        seen: set[int] = set()
        for _, record in list(self._queue):
            if record.state != "queued" or record.proxy_of is not None:
                continue
            if id(record) in seen:
                continue  # stale duplicate entry of an already-aged record
            seen.add(id(record))
            waited = now - record.enqueued_at
            boost = int(waited / self.aging_seconds)
            if boost > record.boost:
                record.boost = boost
                QUEUE_AGED.inc()
                self._push_locked(record)
                self._emit_later(
                    post, "aged", record,
                    detail=f"+{boost} priority after {waited:.3f}s queued",
                )

    def _pop_ready_locked(self, post: list) -> _Record | None:
        """Start the next queued primary in scheduling order, or ``None``.

        Skips stale heap entries and expires overdue records on the way;
        the record returned is ``running``.
        """
        while self._queue:
            key, record = heapq.heappop(self._queue)
            if record.state != "queued" or record.heap_key != key:
                continue  # cancelled/boosted: stale heap entry
            if (
                record.deadline_at is not None
                and clock.monotonic() >= record.deadline_at
            ):
                self._n_queued -= 1
                self._expire_locked(record, post)
                continue
            # The shared run starts *now*: duplicates whose "must start
            # by" deadline already passed expire instead of riding along
            # (checked while the primary still counts as queued).
            for proxy in list(record.proxies):
                self._expire_if_due_locked(proxy, post)
            record.state = "running"
            self._n_queued -= 1
            dispatched_at = clock.perf_counter()
            QUEUE_WAIT.observe(
                max(0.0, dispatched_at - record.trace_enqueued)
            )
            TRACER.record(
                "schedule", record.trace_enqueued, dispatched_at, record.trace
            )
            return record
        return None

    def _run_queue_inline(self) -> None:
        """Run the queued records one at a time (the ``"serial"`` backend).

        Only store recovery leaves records queued on this backend, since
        ``submit`` runs its job at once; the constructor calls this after
        it releases the lock. The records run in scheduling order, which
        is stored order among equal priorities.
        """
        while True:
            with self._deciding() as post:
                record = self._pop_ready_locked(post)
                if record is not None:
                    self._emit_later(post, "dispatched", record)
                    self._persist_later(post, record)
            if record is None:
                return
            self._run_serial(record)

    def _dispatch_locked(self, post: list) -> None:
        """Fill free worker slots in deterministic scheduling order."""
        if self._pool is None:
            return
        self._age_queue_locked(post)
        while self._running < self.max_workers:
            record = self._pop_ready_locked(post)
            if record is None:
                break
            self._running += 1
            task, gate = run_job_with_workers, None
            try:
                if self.backend == "thread":
                    # In-process workers can call back into this process,
                    # so the per-job observers of every waiter known at
                    # dispatch hear candidates/iterations live from the
                    # worker thread; completion then skips their replay
                    # (waiter.live). They share the belief cache too,
                    # and take turns at mining (one GIL mines fastest
                    # alone). Each starts once its dispatch has left.
                    live_waiters = [
                        waiter
                        for waiter in [record] + record.proxies
                        if waiter.state in _LIVE_STATES
                        and waiter.observer is not None
                    ]
                    for waiter in live_waiters:
                        waiter.live = True
                    job_kwargs = {
                        "belief_cache": self._belief_cache,
                        "observer": broadcast(
                            *(waiter.observer for waiter in live_waiters)
                        ),
                        "turn": self._turn,
                    }
                    gate = threading.Event()
                    task = partial(_run_when_open, gate)
                else:
                    # Worker *processes* share neither (no pickling across
                    # the boundary), but a spill-backed belief cache can
                    # reach them: ship its picklable handle, which each
                    # worker resolves into a process-local cache over
                    # the shared on-disk spill.
                    job_kwargs = {
                        "belief_handle": (
                            self._belief_cache.handle()
                            if self._belief_cache is not None
                            else None
                        )
                    }
                pool_future = self._pool.submit(
                    task,
                    record.job,
                    trace=record.trace,
                    dist_workers=record.dist_workers,
                    **job_kwargs,
                )
            except Exception as exc:
                # e.g. submit raced a shutdown: the pool refused the
                # task. Free the slot and fail the record (and its
                # waiters) instead of stranding an unresolvable future
                # and leaking a worker slot.
                self._running -= 1
                self._settle_locked(record, post, error=exc)
                continue
            self._emit_later(post, "dispatched", record)
            if gate is not None:
                post.append(gate.set)
            self._persist_later(post, record)
            # Attached after the lock drops: a task already done runs its
            # callback at once, and that settle must follow this dispatch.
            post.append(
                partial(
                    pool_future.add_done_callback,
                    partial(self._on_task_done, record),
                )
            )

    def _on_task_done(self, record: _Record, pool_future: Future) -> None:
        """Completion callback of a dispatched pool task."""
        with self._deciding() as post:
            self._running -= 1
            cancelled = pool_future.cancelled()
            error = None if cancelled else pool_future.exception()
            result = None
            if not cancelled and error is None:
                result = pool_future.result()
            self._settle_locked(record, post, result=result, error=error)
            self._prune_terminal_locked(post)
            self._dispatch_locked(post)

    def _settle_locked(
        self,
        record: _Record,
        post: list,
        *,
        result: JobResult | None = None,
        error: BaseException | None = None,
    ) -> None:
        """End a run or a result-cache lookup: the one way a job finishes.

        ``result`` means done, ``error`` failed, and neither cancelled (a
        pool future cancelled under the service). The record and its
        still-queued coalesced waiters resolve together: a result enters
        the result cache, every waiter is persisted, and each done or
        failed waiter's terminal event is queued on ``post`` for the
        service-wide observers and its own. A success replays its
        iterations before ``on_job`` to every observer that was not wired
        into the run. Only two kinds were: a waiter's own observer live
        at dispatch (serial and thread backends), and the service-wide
        observers of a serial run.
        """
        if self._inflight.get(record.fp) is record:
            del self._inflight[record.fp]
        serial_run = self._pool is None and record.state == "running"
        waiters = [record] + [p for p in record.proxies if p.state == "queued"]
        record.proxies = []
        if result is not None:
            self._cache.put(record.fp, result)
        for waiter in waiters:
            if result is not None:
                _finish(waiter, "done")
                waiter.future.set_result(result)
            elif error is not None:
                _finish(waiter, "failed")
                waiter.future.set_exception(error)
            else:  # pragma: no cover - a pool future cancelled under us
                _finish(waiter, "cancelled")
                waiter.future.cancel()
            self._persist_later(post, waiter)
            for observer, live in (
                (self._live_observer, serial_run),
                (waiter.observer, waiter.live),
            ):
                if observer is not None and waiter.state != "cancelled":
                    post.append(
                        partial(
                            _deliver, observer, waiter.job, result, error,
                            replay=not live,
                        )
                    )

    def _expire_if_due_locked(self, record: _Record, post: list) -> None:
        if record.state != "queued":
            return
        if record.proxy_of is not None and record.proxy_of.state != "queued":
            # The shared mining run has started (or finished); the
            # duplicate's "must start by" budget is satisfied by it.
            return
        if record.deadline_at is None or clock.monotonic() < record.deadline_at:
            return
        if record.proxy_of is None:
            self._n_queued -= 1
        self._expire_locked(record, post)

    def _expire_locked(self, record: _Record, post: list) -> None:
        """Move an overdue queued record to the terminal EXPIRED state.

        Works for primaries (detaching and promoting their waiters) and
        for coalesced duplicates (detaching from their primary, which
        keeps running for its other clients).
        """
        overdue = clock.monotonic() - (record.deadline_at or clock.monotonic())
        _finish(record, "expired")
        record.future.set_exception(
            DeadlineExpired(
                f"job {record.job_id} ({record.job.label}) missed its "
                f"{record.job.executor.deadline:g}s deadline by "
                f"{max(overdue, 0.0):.3f}s before a worker was free"
            )
        )
        if record.proxy_of is not None:
            if record in record.proxy_of.proxies:
                record.proxy_of.proxies.remove(record)
            record.proxy_of = None
        else:
            self._promote_locked(record, post)
        self._emit_later(post, "expired", record, detail=f"{max(overdue, 0.0):.3f}s overdue")
        self._persist_later(post, record)

    def _promote_locked(self, record: _Record, post: list) -> None:
        """Re-queue the oldest live waiter of a dead primary.

        A coalesced duplicate was promised its primary's result; when
        the primary is cancelled or expires before running, the promise
        moves to the oldest surviving duplicate (which brings its own
        priority/deadline terms) instead of dying with it.
        """
        if self._inflight.get(record.fp) is record:
            del self._inflight[record.fp]
        survivors = [p for p in record.proxies if p.state == "queued"]
        record.proxies = []
        if not survivors:
            return
        new_primary = survivors[0]
        new_primary.proxy_of = None
        new_primary.proxies = survivors[1:]
        for proxy in new_primary.proxies:
            proxy.proxy_of = new_primary
        self._enqueue_locked(new_primary)
        self._emit_later(post, "promoted", new_primary, detail=f"after {record.job_id}")

    # ------------------------------------------------------------------ #
    # Durable store internals
    # ------------------------------------------------------------------ #
    def _persist_later(self, post: list, record: _Record) -> None:
        """Snapshot a record for the store, to write once the lock drops.

        The snapshot, the record's state and outcome, is taken here
        under the lock; a snapshot of the state already taken is
        skipped. The write is a post action (none storeless), so a
        record's writes land in the order its transitions happened. It
        runs off-lock because encoding a done record's result document
        walks every mined pattern, too much work to hold the scheduler
        for.
        """
        if self._store is None or record.persisted == record.state:
            return
        record.persisted = state = record.state
        outcome = None
        if state == "done":
            outcome = record.future.result(timeout=0)
        elif state in ("failed", "expired"):
            outcome = record.future.exception(timeout=0)
        post.append(partial(self._persist_now, record, state, outcome))

    def _close_store(self) -> None:
        """Let the store writes already decided land, then close."""
        if self._store is None:
            return
        self._run_post()
        self._store.close()

    def _persist_now(self, record: _Record, state: str, outcome) -> None:
        try:
            self._store.put(self._record_doc(record, state, outcome))
        except Exception:
            # Persistence must never break scheduling (a concurrent
            # shutdown may have closed the store; the disk may be full).
            # Each write replaces its record's file whole, so the next
            # open reads every record as its last finished write left it.
            pass

    def _record_doc(self, record: _Record, state: str, outcome) -> dict:
        """A record snapshot's durable document, in the wire vocabulary.

        Jobs serialize via :func:`repro.persist.job_to_dict`, results via
        :func:`repro.persist.job_result_to_dict` (the exact-round-trip
        codec the HTTP layer uses — which is what makes a restored
        result bit-identical to the one computed before the restart),
        and errors in the ``{"type", "message"}`` shape of
        :func:`repro.server.wire.error_to_wire`.
        """
        from repro import persist  # lazy: persist imports engine.jobs

        doc = {
            "schema": 1,
            "job_id": record.job_id,
            "fingerprint": record.fp,
            "state": state,
            "seq": record.seq,
            "submitted_at": record.submitted_wall,
            "updated_at": clock.wall_time(),
            "job": persist.job_to_dict(record.job),
            "result": None,
            "error": None,
        }
        if state == "done":
            doc["result"] = persist.job_result_to_dict(outcome)
        elif outcome is not None:
            doc["error"] = {"type": type(outcome).__name__, "message": str(outcome)}
        return doc

    def _prune_terminal_locked(self, post: list) -> None:
        """TTL/LRU retention of terminal records (live ones never evict)."""
        ttl = self.record_ttl_seconds
        cap = self.max_terminal_records
        if ttl is None and cap is None:
            return
        now = clock.wall_time()
        terminal = [
            record
            for record in self._records.values()
            if record.state not in _LIVE_STATES
            and record.finished_wall is not None
        ]
        evict_ids: set[str] = set()
        if ttl is not None:
            evict_ids.update(
                record.job_id
                for record in terminal
                if now - record.finished_wall >= ttl
            )
        if cap is not None:
            survivors = sorted(
                (r for r in terminal if r.job_id not in evict_ids),
                key=lambda r: (r.finished_wall, r.seq),
            )
            if len(survivors) > cap:
                evict_ids.update(
                    record.job_id for record in survivors[: len(survivors) - cap]
                )
        for record in terminal:
            if record.job_id not in evict_ids:
                continue
            self._emit_later(post, "evicted", record)
            del self._records[record.job_id]
            if self._store is not None:
                post.append(partial(self._store_delete, record.job_id))

    def _store_delete(self, job_id: str) -> None:
        try:
            self._store.delete(job_id)
        except Exception:  # pragma: no cover - store closed mid-evict
            pass

    def _recover_from_store(self) -> None:
        """Rebuild the record table from the durable store at startup.

        Terminal records resolve immediately — done results re-enter the
        result cache exactly as stored (zero recompute; the persist
        codec round-trips floats bit-for-bit). Queued and running
        records never finished, so they re-enqueue as queued in their
        original submission order (the store sorts by stored ``seq``,
        and fresh seqs are assigned in that order), re-coalescing
        duplicates along the way; each re-enqueue is a ``"recovered"``
        scheduler event. The serial backend has no pool to dispatch them
        to, so it runs them inline before the constructor returns, as
        ``submit`` runs a serial job. Recovered failures re-raise with
        the stored type name and message (as :class:`DeadlineExpired`
        when that is what they were, generic :class:`EngineError`
        otherwise — the original class cannot be reconstructed from a
        name alone).

        A record file that is not JSON, or whose spec or result no
        longer decodes, is skipped, counted in
        ``sisd_store_records_skipped_total`` and set aside under
        ``records/unreadable/``, where it stays. Its id, like every
        stored one, is never issued again.
        """
        from repro import persist  # lazy: persist imports engine.jobs

        docs = self._store.records()
        # Every record file's id, decodable or not, set aside or not, so
        # no id is reissued (which would overwrite its file).
        job_ids = self._store.job_ids()
        max_id = max(map(_id_number, job_ids), default=0)
        loaded = {str(doc.get("job_id")) for doc in docs}
        for job_id in job_ids:
            if job_id in self._store and job_id not in loaded:
                self._set_aside(job_id)  # a record file that is not JSON
        with self._deciding() as post:
            for doc in docs:
                job_id = str(doc.get("job_id"))
                try:
                    job = persist.job_from_dict(doc["job"])
                except Exception:
                    self._set_aside(job_id)  # foreign/corrupt record: don't die
                    continue
                record = _Record(
                    job_id,
                    job,
                    str(doc.get("fingerprint") or job.fingerprint()),
                    next(self._seq),
                )
                record.submitted_wall = float(
                    doc.get("submitted_at") or record.submitted_wall
                )
                state = doc.get("state")
                finished = float(doc.get("updated_at") or clock.wall_time())
                if state == "done" and doc.get("result") is not None:
                    try:
                        result = persist.job_result_from_dict(doc["result"])
                    except Exception:
                        self._set_aside(job_id)
                        continue
                    record.state = "done"
                    record.finished_wall = finished
                    record.future.set_result(result)
                    self._cache.put(record.fp, result)
                elif state in ("failed", "expired"):
                    error = doc.get("error") or {}
                    message = error.get(
                        "message", "job failed before a service restart"
                    )
                    if state == "expired" or error.get("type") == "DeadlineExpired":
                        exc: Exception = DeadlineExpired(message)
                    else:
                        exc = EngineError(
                            f"{error.get('type', 'Error')}: {message}"
                        )
                    record.state = state
                    record.finished_wall = finished
                    record.future.set_exception(exc)
                elif state == "cancelled":
                    record.state = "cancelled"
                    record.finished_wall = finished
                    record.future.cancel()
                else:
                    # queued or running: the work never finished — it
                    # re-enters the queue (running jobs restart cheaply:
                    # their completed iterations replay from the spilled
                    # belief cache).
                    record.state = "queued"
                    primary = self._inflight.get(record.fp)
                    if primary is not None and primary.state in _LIVE_STATES:
                        record.proxy_of = primary
                        primary.proxies.append(record)
                    else:
                        self._enqueue_locked(record)
                    self._emit_later(post, "recovered", record)
                    self._persist_later(post, record)
                self._records[job_id] = record
            self._ids = itertools.count(max_id + 1)
            self._dispatch_locked(post)
        if self._pool is None:
            self._run_queue_inline()

    def _set_aside(self, job_id: str) -> None:
        """Skip a stored record that no longer decodes, loudly."""
        STORE_RECORDS_SKIPPED.inc()
        self._store.set_aside(job_id)

    # ------------------------------------------------------------------ #
    # Event plumbing
    # ------------------------------------------------------------------ #
    def _emit_later(self, post: list, kind: str, record: _Record, detail: str = "") -> None:
        """Queue one scheduling event for emission after the lock drops.

        ``pending`` is sampled now (while the decision is fresh); the
        emission itself runs via :meth:`_run_post` so observers never
        execute under the scheduler lock. Delivery reaches the
        service-wide observers and the affected record's per-job
        observer, if any.
        """
        if self._live_observer is None and record.observer is None:
            return
        event = SchedulerEvent(
            kind=kind,
            job_id=record.job_id,
            job=record.job,
            pending=self._n_queued,
            detail=detail,
        )

        def deliver(record_observer=record.observer) -> None:
            if self._live_observer is not None:
                self._live_observer.on_schedule(event)
            if record_observer is not None:
                record_observer.on_schedule(event)

        post.append(deliver)

    @contextlib.contextmanager
    def _deciding(self) -> Iterator[list]:
        """Hold the scheduler lock for one decision, then run its post actions.

        The block appends to the yielded list what must happen once the
        lock drops: scheduler events, store writes, done callbacks. The
        list joins the service-wide FIFO while the lock is still held, so
        the actions leave the service in the order they were decided,
        and :meth:`_run_post` then drains the FIFO.
        """
        post: list = []
        with self._lock:
            yield post
            self._post.extend(post)
        if post:
            self._run_post()

    def _run_post(self) -> None:
        """Run the FIFO's post actions in order, one draining thread at a time.

        Never called under the scheduler lock, so observers and store
        writes run outside it. A thread that finds another one draining
        waits for it, so its own actions have run when this returns. The
        emit lock is re-entrant: an action that decides again (an
        observer that submits, a done callback run at attachment) drains
        the rest of the FIFO itself.
        """
        with self._emit_lock:
            while self._post:
                self._post.popleft()()
