"""The thread-to-asyncio event bridge behind the server's SSE stream.

Mining events fire on worker threads (the engine's observer contract);
SSE subscribers live on the asyncio event loop. :class:`EventHub` is the
bridge the ROADMAP promised: :meth:`EventHub.publish` may be called from
any thread — it stamps the event with a monotonically increasing
sequence number, appends it to a bounded replay history and to an
outbox, and wakes the loop only when that outbox turns non-empty. One
loop callback per burst then offers the whole outbox, in sequence
order, to every subscriber's bounded ``asyncio.Queue``, so publishers
firing in quick succession pay for one ``loop.call_soon_threadsafe``
per burst, not one per event. Candidates arrive already batched: the
server publishes a step's summaries as ``candidates`` events of up to
1,024 each, one for a synthetic step and about 112 for a crime step.

Three properties make the stream production-shaped:

- **Bounded everything.** History and per-subscriber queues have hard
  caps, so a slow consumer cannot grow server memory. The history
  bound weighs each event by what it carries: a ``candidates`` event
  counts as its number of candidates, any other event as 1, so the
  replay buffer holds about ``history`` candidates however they are
  batched. Subscriber queues count entries, so a full queue may hold
  up to ``queue_maxsize`` batches.
- **Slow consumers lose oldest first.** When a subscriber's queue is
  full, the oldest queued event is dropped (and counted) rather than
  blocking the miner or killing the stream; sequence numbers make the
  gap visible to the client.
- **Reconnect-and-resume.** A subscriber joining with ``since=N``
  first replays every retained event with a higher sequence number,
  then continues live — the mechanics behind SSE ``Last-Event-ID``.
  Live delivery starts after the sequence number that was latest when
  the subscriber joined, so an event still in the outbox at that
  moment arrives once: from the replay if ``since`` asked for it, and
  never also live.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from collections import deque
from typing import Any

from repro.obs.instruments import (
    EVENTS_DROPPED,
    EVENTS_PUBLISHED,
    EVENTS_RETAINED,
    EVENTS_SUBSCRIBERS,
    METRICS,
    SSE_RESUME_GAPS,
)

__all__ = ["EventHub", "Subscription"]

#: Sentinel a closing hub enqueues so blocked subscribers wake up.
_CLOSED = object()


def _weight(event: dict) -> int:
    """History cost of one event: a batch counts its candidates."""
    if event.get("type") == "candidates":
        return len(event["candidates"])
    return 1


class Subscription:
    """One subscriber's view of the stream: backlog replay, then live.

    Obtain via :meth:`EventHub.subscribe` (on the event loop). Iterate
    with :meth:`get`, which yields ``(seq, event)`` pairs in sequence
    order and ``None`` once the hub shuts down. Call :meth:`close` (or
    use ``async with``) to detach.
    """

    def __init__(
        self,
        hub: "EventHub",
        sub_id: int,
        backlog: list,
        maxsize: int,
        job_id: str | None = None,
        after: int = 0,
    ):
        self._hub = hub
        self._id = sub_id
        self._backlog = deque(backlog)
        #: Live delivery skips every entry at or below this sequence
        #: number, the hub's latest when this subscription joined: those
        #: came from the backlog, or were not asked for.
        self.after = after
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=maxsize)
        #: When set, only events of this job enter the queue at all —
        #: foreign floods can neither fill it nor evict this job's
        #: events (the filter runs before enqueueing, not on read).
        self.job_id = job_id
        #: Events dropped for this subscriber because its queue was full.
        self.dropped = 0
        self._closed = False

    async def get(self) -> "tuple[int, dict] | None":
        """Next ``(seq, event)`` pair, or ``None`` when the hub closed."""
        if self._backlog:
            return self._backlog.popleft()
        entry = await self.queue.get()
        if entry is _CLOSED:
            return None
        return entry

    def get_nowait(self) -> "tuple[int, dict] | None":
        """Non-blocking :meth:`get`; raises ``asyncio.QueueEmpty`` if dry."""
        if self._backlog:
            return self._backlog.popleft()
        entry = self.queue.get_nowait()
        if entry is _CLOSED:
            return None
        return entry

    def close(self) -> None:
        """Detach from the hub (idempotent)."""
        if not self._closed:
            self._closed = True
            self._hub._unsubscribe(self._id)

    async def __aenter__(self) -> "Subscription":
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()


class EventHub:
    """Sequence-numbered fan-out from worker threads to asyncio queues."""

    def __init__(self, *, history: int = 4096, queue_maxsize: int = 512) -> None:
        if history < 1:
            raise ValueError(f"history must be >= 1, got {history}")
        if queue_maxsize < 1:
            raise ValueError(f"queue_maxsize must be >= 1, got {queue_maxsize}")
        #: Retained ``(seq, event)`` entries, oldest first; their summed
        #: :func:`_weight` stays within ``history`` except that the
        #: newest entry is always kept.
        self._history: deque = deque()
        self._history_bound = history
        self._history_weight = 0
        #: Entries published since the loop last flushed, in sequence
        #: order; a flush callback is pending while it is non-empty.
        self._outbox: list = []
        self._queue_maxsize = queue_maxsize
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._latest = 0
        self._subscribers: dict[int, Subscription] = {}
        self._sub_ids = itertools.count(1)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._dropped_total = 0
        self._closed = False
        METRICS.register_collector(self._collect_metrics)

    # ------------------------------------------------------------------ #
    # Loop binding and lifecycle
    # ------------------------------------------------------------------ #
    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Attach the event loop that owns the subscriber queues."""
        with self._lock:
            self._loop = loop

    def close(self) -> None:
        """Stop delivery and wake every blocked subscriber with ``None``."""
        METRICS.remove_collector(self._collect_metrics)
        with self._lock:
            if self._closed:
                return
            self._closed = True
            loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._flush_closed)
            except RuntimeError:
                pass  # the loop already exited; nobody is left to wake

    def _flush_closed(self) -> None:
        # What was published before close() goes out ahead of the
        # sentinel, whichever of the two callbacks the loop got first.
        self._flush()
        with self._lock:
            subscribers = list(self._subscribers.values())
        for sub in subscribers:
            self._offer(sub, _CLOSED)

    # ------------------------------------------------------------------ #
    # Publishing (any thread)
    # ------------------------------------------------------------------ #
    def publish(self, event: dict) -> int:
        """Stamp, retain, and queue one event; returns its sequence.

        Thread-safe and non-blocking: callable straight from an engine
        observer callback on a mining worker thread. Events published
        before :meth:`bind`, or while nobody subscribes, are retained
        for replay but not fanned out.
        """
        with self._lock:
            if self._closed:
                return self._latest
            seq = next(self._seq)
            self._latest = seq
            entry = (seq, event)
            self._retain(entry)
            if self._loop is None or not self._subscribers:
                return seq
            # The outbox is appended under the lock, so it holds entries
            # in sequence order whichever threads publish. Only the
            # publish that makes it non-empty wakes the loop: the one
            # pending flush takes everything queued until it runs.
            self._outbox.append(entry)
            loop = self._loop if len(self._outbox) == 1 else None
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._flush)
            except RuntimeError:
                pass  # the loop already exited; nobody is left to deliver to
        return seq

    def _retain(self, entry: tuple) -> None:
        """Append to the history, evicting oldest first (lock held).

        Eviction only ever pops from the left, so the retained sequence
        numbers stay contiguous and end at ``_latest``.
        """
        self._history.append(entry)
        self._history_weight += _weight(entry[1])
        while (
            self._history_weight > self._history_bound and len(self._history) > 1
        ):
            self._history_weight -= _weight(self._history.popleft()[1])

    def _flush(self) -> None:
        """Offer the outbox, in order, to every live subscription (loop)."""
        with self._lock:
            entries, self._outbox = self._outbox, []
            subscribers = list(self._subscribers.values())
        for sub in subscribers:
            for entry in entries:
                if entry[0] > sub.after:
                    self._offer(sub, entry)

    def _offer(self, sub: Subscription, entry: Any) -> None:
        """Enqueue to one subscriber, dropping its oldest event if full."""
        if (
            entry is not _CLOSED
            and sub.job_id is not None
            and entry[1].get("job_id") != sub.job_id
        ):
            return  # filtered before it can occupy (or evict from) the queue
        while True:
            try:
                sub.queue.put_nowait(entry)
                return
            except asyncio.QueueFull:
                try:
                    dropped = sub.queue.get_nowait()
                except asyncio.QueueEmpty:  # pragma: no cover - tiny race
                    continue
                if dropped is _CLOSED:
                    # Never drop the shutdown sentinel: re-deliver it in
                    # place of the incoming event.
                    entry = _CLOSED
                    continue
                sub.dropped += 1
                with self._lock:
                    self._dropped_total += 1

    # ------------------------------------------------------------------ #
    # Subscribing (event-loop thread)
    # ------------------------------------------------------------------ #
    def subscribe(
        self, since: int | None = None, *, job_id: str | None = None
    ) -> Subscription:
        """Join the stream; ``since`` replays retained events after it.

        Must be called on the bound event loop (the queue it creates
        belongs to that loop). ``since=None`` starts from *now*;
        ``since=0`` replays the whole retained history. If ``since``
        predates the oldest retained event the replay silently starts at
        the oldest — the sequence numbers tell the client how much it
        missed. ``job_id`` filters at the source: only that job's events
        (backlog and live) ever enter this subscriber's queue, so an
        unrelated job's event flood cannot evict them.
        """
        with self._lock:
            if since is None:
                backlog: list = []
            else:
                # A resume whose anchor predates the retained history has
                # irrecoverably missed events; count the gap so operators
                # can size ``history`` from /metrics instead of guessing.
                oldest = (
                    self._history[0][0] if self._history else self._latest + 1
                )
                if oldest - 1 > since:
                    SSE_RESUME_GAPS.inc()
                # publish retains every entry it stamps, so the history's
                # sequence numbers are contiguous and end at _latest: the
                # entries after ``since`` are its newest _latest - since,
                # read from the right end without scanning the rest.
                count = min(max(self._latest - since, 0), len(self._history))
                newest = list(itertools.islice(reversed(self._history), count))
                backlog = [
                    entry
                    for entry in reversed(newest)
                    if job_id is None or entry[1].get("job_id") == job_id
                ]
            sub = Subscription(
                self,
                next(self._sub_ids),
                backlog,
                self._queue_maxsize,
                job_id=job_id,
                after=self._latest,
            )
            if not self._closed:
                self._subscribers[sub._id] = sub
            closed = self._closed
        if closed:
            sub.queue.put_nowait(_CLOSED)
        return sub

    def _unsubscribe(self, sub_id: int) -> None:
        with self._lock:
            self._subscribers.pop(sub_id, None)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def latest_seq(self) -> int:
        """Sequence number of the most recently published event."""
        with self._lock:
            return self._latest

    def stats(self) -> dict:
        """Counters for the health endpoint."""
        with self._lock:
            return {
                "published": self._latest,
                "retained": len(self._history),
                "subscribers": len(self._subscribers),
                "dropped": self._dropped_total,
            }

    def _collect_metrics(self) -> None:
        """Refresh the stream gauges at scrape time (registry collector)."""
        stats = self.stats()
        EVENTS_PUBLISHED.set(float(stats["published"]))
        EVENTS_RETAINED.set(float(stats["retained"]))
        EVENTS_SUBSCRIBERS.set(float(stats["subscribers"]))
        EVENTS_DROPPED.set(float(stats["dropped"]))
