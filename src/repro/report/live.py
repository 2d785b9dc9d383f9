"""Render mining events as they happen (the CLI's streaming printer).

:class:`LiveReporter` is a :class:`~repro.events.MiningObserver` that
writes each finished iteration — and optionally every scored candidate,
from each beam level's batch —
to a text stream the moment the event fires. Attached to
:meth:`repro.api.Workspace.stream` it turns the terminal into a live
view of the mining dialogue; anything file-like works, so it also
doubles as a plain-text event log.
"""

from __future__ import annotations

import sys
from typing import IO

from repro.events import MiningObserver


class LiveReporter(MiningObserver):
    """Print iterations (and optionally candidates) as they arrive.

    Parameters
    ----------
    stream:
        Where to write; defaults to ``sys.stdout`` (resolved at event
        time, so pytest's capture and late redirections both work).
    candidates:
        Also print a one-line entry per scored beam candidate, the same
        line as ``str(ScoredSubgroup)`` — very chatty (up to about
        38,000 lines per beam level on crime at paper settings); off by
        default. Each level's batch renders its description text only
        when this is on.
    """

    def __init__(self, stream: IO | None = None, *, candidates: bool = False) -> None:
        self._stream = stream
        self.candidates = candidates

    def _out(self) -> IO:
        return self._stream if self._stream is not None else sys.stdout

    def on_candidates(self, batch) -> None:
        """One line per scored candidate, when ``candidates`` is on."""
        if not self.candidates:
            return
        out = self._out()
        for text, size, si in zip(
            batch.descriptions(), batch.sizes.tolist(), batch.si.tolist()
        ):
            print(f"  ? {text}  (n={size}, SI={si:.2f})", file=out)

    def on_iteration(self, iteration) -> None:
        """The CLI's per-iteration block, printed as the step finishes."""
        out = self._out()
        print(f"--- iteration {iteration.index} ---", file=out)
        print(iteration.location, file=out)
        if iteration.spread is not None:
            print(iteration.spread, file=out)

    def on_job(self, result) -> None:
        """One closing line with the job name and wall-clock time."""
        print(
            f"[{result.job.label}] done in {result.elapsed_seconds:.2f}s",
            file=self._out(),
        )

    def on_job_failed(self, job, error) -> None:
        """One closing line naming the job and what went wrong."""
        print(
            f"[{job.label}] FAILED: {type(error).__name__}: {error}",
            file=self._out(),
        )

    def on_schedule(self, event) -> None:
        """One line per scheduling decision of a service queue."""
        print(f"~ {event} [{event.pending} pending]", file=self._out())
