"""Wall-clock helpers: a stopwatch for measurements and a budget for search.

The paper's miner "supports time constraints (e.g., stop after 1 minute of
mining)"; :class:`TimeBudget` is the mechanism the beam search uses to honor
that. :class:`Stopwatch` backs the Table II runtime experiment.

Both read :func:`repro.obs.clock.perf_counter`, so tests drive them with
``clock.fixed()``. The seam is imported where it is read: ``repro.obs``
sits above this module in the import graph.
"""

from __future__ import annotations

import math


def _now() -> float:
    from repro.obs import clock

    return clock.perf_counter()


class Stopwatch:
    """Accumulating stopwatch with context-manager support.

    >>> sw = Stopwatch()
    >>> with sw:
    ...     _ = sum(range(1000))
    >>> sw.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self._elapsed = 0.0

    def start(self) -> "Stopwatch":
        """Begin timing; returns self so ``Stopwatch().start()`` chains."""
        if self._start is not None:
            raise RuntimeError("Stopwatch already running")
        self._start = _now()
        return self

    def stop(self) -> float:
        """Stop timing and return the total accumulated seconds."""
        if self._start is None:
            raise RuntimeError("Stopwatch is not running")
        self._elapsed += _now() - self._start
        self._start = None
        return self._elapsed

    def reset(self) -> None:
        """Discard all accumulated time and stop the watch."""
        self._start = None
        self._elapsed = 0.0

    @property
    def running(self) -> bool:
        return self._start is not None

    @property
    def elapsed(self) -> float:
        """Total accumulated seconds (includes the running span, if any)."""
        if self._start is None:
            return self._elapsed
        return self._elapsed + (_now() - self._start)

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


class TimeBudget:
    """A deadline that long-running searches poll cooperatively.

    ``TimeBudget(None)`` never expires, so call sites do not need to branch
    on whether a budget was configured.
    """

    def __init__(self, seconds: float | None) -> None:
        if seconds is not None and (not math.isfinite(seconds) or seconds < 0):
            raise ValueError(f"seconds must be None or non-negative, got {seconds}")
        self.seconds = seconds
        self._deadline = None if seconds is None else _now() + seconds

    @property
    def expired(self) -> bool:
        return self._deadline is not None and _now() >= self._deadline

    @property
    def remaining(self) -> float:
        """Seconds left; ``inf`` for an unlimited budget, floored at 0."""
        if self._deadline is None:
            return math.inf
        return max(0.0, self._deadline - _now())
