"""Streaming events: watch the mining loop while it runs.

The paper frames mining as a dialogue; this module is the wire the
dialogue travels over. A :class:`MiningObserver` receives

- ``on_candidate`` — every admissible subgroup the beam search scores,
  in generation order (fired by
  :class:`~repro.search.beam.LocationBeamSearch`);
- ``on_iteration`` — each completed mining iteration, the moment it is
  assimilated (fired by :class:`~repro.search.miner.SubgroupDiscovery`
  and by the job runner's single-shot strategies);
- ``on_job`` — a whole job's result (fired by
  :class:`~repro.api.Workspace` and :class:`~repro.engine.service.MiningService`);
- ``on_schedule`` — every scheduling decision the service's job queue
  takes (queued, dispatched, cache hit, coalesced, cancelled, expired),
  as :class:`SchedulerEvent` records.

Observers are the *synchronous substrate* for the ROADMAP's async/
streaming front-end: an asyncio layer only needs to bridge these
callbacks onto a queue. Inline and session execution fire events live;
the service's process/thread pools cannot ship callbacks across workers,
so they *replay* ``on_iteration`` events when a job's result arrives
(documented on :class:`~repro.engine.service.MiningService`).

Observers must not mutate what they are handed — results are shared with
the mining loop — and should be cheap: ``on_candidate`` fires for every
scored subgroup. At the paper's search settings (beam 40, depth 4) the
first step scores 10 / 37 / 64 / 39 candidates on its four beam levels
on synthetic, 536 / 17,566 / 17,963 / 17,806 on mammals and
976 / 37,990 / 37,614 / 38,016 on crime. Attaching *any* observer costs
more than its callbacks: without one, the beam builds a
:class:`~repro.search.results.ScoredSubgroup` only for each level's
best ``top_k`` and its next beam; with one, it builds one for every
scored candidate, even if every hook is a no-op. A two-step crime
location job took 0.34–0.39 s wall with no observer and 4.2–4.8 s with
a bare :class:`MiningObserver` (two runs each, one process, 2-vCPU x86
machine). Attach an observer only when something consumes its events.
An observer that raises never fails a job or ends a stream: the service
and :meth:`repro.client.RemoteWorkspace.stream` wrap the observers they
are given with :func:`guarded`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type hints only
    from repro.engine.jobs import JobResult
    from repro.search.results import MiningIteration, ScoredSubgroup
    from repro.spec import MiningSpec


#: Scheduling decisions a :class:`SchedulerEvent` may carry. ``queued``
#: fires for every accepted submission; exactly one of ``dispatched`` /
#: ``cache_hit`` / ``coalesced`` / ``cancelled`` / ``expired`` follows
#: (``promoted`` re-queues a coalesced duplicate whose primary was
#: cancelled, so it may precede a later ``dispatched``; ``aged`` marks a
#: starvation-guard priority boost of a long-queued job and may fire any
#: number of times before its ``dispatched``). A service opened over a
#: durable store emits ``recovered`` for each unfinished record it
#: re-enqueues, and record retention emits ``evicted`` when it drops a
#: terminal record.
SCHEDULER_EVENT_KINDS = (
    "queued",
    "dispatched",
    "cache_hit",
    "coalesced",
    "promoted",
    "aged",
    "cancelled",
    "expired",
    "recovered",
    "evicted",
)


@dataclass(frozen=True)
class SchedulerEvent:
    """One scheduling decision of the service's job queue.

    Attributes
    ----------
    kind:
        One of :data:`SCHEDULER_EVENT_KINDS`.
    job_id:
        The service-assigned id of the affected submission.
    job:
        The submitted :class:`~repro.spec.MiningSpec`.
    pending:
        Queue depth (jobs waiting, dispatched jobs excluded) right
        after the decision was taken.
    detail:
        Free-text context (e.g. which job id a duplicate coalesced
        onto, or how long past its deadline an expired job was).
    """

    kind: str
    job_id: str
    job: "MiningSpec"
    pending: int = 0
    detail: str = ""

    def __str__(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.job_id} {self.kind}{suffix}"


class MiningObserver:
    """Base observer: every hook is a no-op; override what you need."""

    def on_candidate(self, candidate: "ScoredSubgroup") -> None:
        """One scored beam candidate (fires for *every* admissible one)."""

    def on_iteration(self, iteration: "MiningIteration") -> None:
        """One completed (and assimilated) mining iteration."""

    def on_job(self, result: "JobResult") -> None:
        """One whole job finished."""

    def on_job_failed(self, job, error: BaseException) -> None:
        """One job raised instead of mining (fired by the service).

        Every submitted job ends in exactly one of ``on_job`` or
        ``on_job_failed`` (cancellation and deadline expiry excepted —
        those surface as ``on_schedule`` events), so an event-driven
        consumer never waits forever on a failed run.
        """

    def on_schedule(self, event: SchedulerEvent) -> None:
        """One scheduling decision of the service's job queue.

        May fire from a service worker thread (a slot freeing up
        dispatches the next queued job from the completion callback), so
        implementations must be thread-safe.
        """


class CallbackObserver(MiningObserver):
    """Adapter from plain callables to the observer protocol.

    >>> obs = CallbackObserver(on_iteration=lambda it: print(it.location))
    """

    def __init__(
        self,
        *,
        on_candidate: Callable | None = None,
        on_iteration: Callable | None = None,
        on_job: Callable | None = None,
        on_job_failed: Callable | None = None,
        on_schedule: Callable | None = None,
    ) -> None:
        self._on_candidate = on_candidate
        self._on_iteration = on_iteration
        self._on_job = on_job
        self._on_job_failed = on_job_failed
        self._on_schedule = on_schedule

    def on_candidate(self, candidate: "ScoredSubgroup") -> None:
        """Forward to the ``on_candidate`` callable, if given."""
        if self._on_candidate is not None:
            self._on_candidate(candidate)

    def on_iteration(self, iteration: "MiningIteration") -> None:
        """Forward to the ``on_iteration`` callable, if given."""
        if self._on_iteration is not None:
            self._on_iteration(iteration)

    def on_job(self, result: "JobResult") -> None:
        """Forward to the ``on_job`` callable, if given."""
        if self._on_job is not None:
            self._on_job(result)

    def on_job_failed(self, job, error: BaseException) -> None:
        """Forward to the ``on_job_failed`` callable, if given."""
        if self._on_job_failed is not None:
            self._on_job_failed(job, error)

    def on_schedule(self, event: SchedulerEvent) -> None:
        """Forward to the ``on_schedule`` callable, if given."""
        if self._on_schedule is not None:
            self._on_schedule(event)


class EventLog(MiningObserver):
    """An observer that records everything it sees (handy in tests)."""

    def __init__(self) -> None:
        self.candidates: list = []
        self.iterations: list = []
        self.jobs: list = []
        self.failures: list = []
        self.schedule: list = []

    def on_candidate(self, candidate: "ScoredSubgroup") -> None:
        """Append the candidate to :attr:`candidates`."""
        self.candidates.append(candidate)

    def on_iteration(self, iteration: "MiningIteration") -> None:
        """Append the iteration to :attr:`iterations`."""
        self.iterations.append(iteration)

    def on_job(self, result: "JobResult") -> None:
        """Append the result to :attr:`jobs`."""
        self.jobs.append(result)

    def on_job_failed(self, job, error: BaseException) -> None:
        """Append ``(job, error)`` to :attr:`failures`."""
        self.failures.append((job, error))

    def on_schedule(self, event: SchedulerEvent) -> None:
        """Append the scheduling event to :attr:`schedule`."""
        self.schedule.append(event)

    def clear(self) -> None:
        """Forget all recorded events."""
        self.candidates.clear()
        self.iterations.clear()
        self.jobs.clear()
        self.failures.clear()
        self.schedule.clear()


class _Broadcast(MiningObserver):
    """Fan one event stream out to several observers, in order."""

    def __init__(self, observers: tuple[MiningObserver, ...]) -> None:
        self._observers = observers

    def on_candidate(self, candidate: "ScoredSubgroup") -> None:
        for observer in self._observers:
            observer.on_candidate(candidate)

    def on_iteration(self, iteration: "MiningIteration") -> None:
        for observer in self._observers:
            observer.on_iteration(iteration)

    def on_job(self, result: "JobResult") -> None:
        for observer in self._observers:
            observer.on_job(result)

    def on_job_failed(self, job, error: BaseException) -> None:
        for observer in self._observers:
            observer.on_job_failed(job, error)

    def on_schedule(self, event: SchedulerEvent) -> None:
        for observer in self._observers:
            observer.on_schedule(event)


class _Guarded(MiningObserver):
    """Forward every hook to an inner observer, discarding its exceptions."""

    def __init__(self, inner: MiningObserver) -> None:
        self._inner = inner

    def _call(self, hook: str, *args) -> None:
        try:
            getattr(self._inner, hook)(*args)
        except Exception:
            pass

    def on_candidate(self, candidate: "ScoredSubgroup") -> None:
        self._call("on_candidate", candidate)

    def on_iteration(self, iteration: "MiningIteration") -> None:
        self._call("on_iteration", iteration)

    def on_job(self, result: "JobResult") -> None:
        self._call("on_job", result)

    def on_job_failed(self, job, error: BaseException) -> None:
        self._call("on_job_failed", job, error)

    def on_schedule(self, event: SchedulerEvent) -> None:
        self._call("on_schedule", event)


def guarded(observer: MiningObserver | None) -> MiningObserver | None:
    """Wrap an observer so that none of its exceptions escape a hook.

    One policy for every consumer of an observer: an observer's bug never
    fails a job or breaks a stream, and one raising event does not starve
    the later ones. ``None`` stays ``None``.
    """
    return None if observer is None else _Guarded(observer)


def broadcast(*observers: MiningObserver | None) -> MiningObserver | None:
    """Compose observers; ``None`` entries are dropped.

    Returns ``None`` when nothing remains (so callers can keep their
    fast ``observer is None`` paths), the sole observer when exactly one
    remains, and a broadcasting wrapper otherwise.
    """
    remaining = tuple(obs for obs in observers if obs is not None)
    if not remaining:
        return None
    if len(remaining) == 1:
        return remaining[0]
    return _Broadcast(remaining)
