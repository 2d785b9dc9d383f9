"""Span recorder and layer wrappers for the traced run.

The traced run measures each layer of the miner from outside: it
replaces the layers' public entry points with thin wrappers for the
length of the run and puts the originals back afterwards. Nothing under
``src/`` is changed or knows it is being measured, and the timed runs
never install these wrappers.

Two kinds of record are kept, both in memory until the run ends:

- a *span* per call of a coarse entry point (a beam search, a scoring
  shard, an assimilation): name, start, end, parent span and request id;
- a *folded* call for entry points hit once per candidate
  (``RefinementOperator.mask_of`` and each step of
  ``RefinementOperator.refinements``). One span each would mean hundreds
  of thousands of records per step, so their time and count are added to
  the totals and to the enclosing span's child time instead.

A span's self time is its duration minus the time its child spans and
folded calls cover. Every thread keeps its own stack and totals, so the
server's two worker threads can be traced without a lock on the hot path.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref

clock = time.perf_counter


class _ThreadLog:
    """One thread's open-span stack, finished spans and totals."""

    def __init__(self) -> None:
        # Open frames: [name, start, span_id, parent_id, child_seconds].
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.seconds: dict[str, float] = {}
        self.self_seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.request: str | None = None


class Tracer:
    """Spans and counters kept in memory, one log per thread.

    ``request_of`` names the request a span belongs to; by default it is
    whatever the calling thread last passed to :meth:`set_request`.
    """

    def __init__(self, request_of=None) -> None:
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._request_of = request_of

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def set_request(self, request_id: str | None) -> None:
        """Tag this thread's following spans with ``request_id``."""
        self._log().request = request_id

    def _request(self, log: _ThreadLog) -> str | None:
        if self._request_of is not None:
            return self._request_of()
        return log.request

    # ----------------------------- recording ---------------------------- #
    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        log = self._log()
        stack = log.stack
        parent = stack[-1] if stack else None
        frame = [name, clock(), next(self._ids), parent[2] if parent else None, 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - frame[1]
            if parent is not None:
                parent[4] += duration
            self_s = duration - frame[4]
            log.spans.append(
                (name, frame[1], end, frame[2], frame[3], self._request(log), self_s)
            )
            log.seconds[name] = log.seconds.get(name, 0.0) + duration
            log.self_seconds[name] = log.self_seconds.get(name, 0.0) + self_s
            log.counts[name] = log.counts.get(name, 0) + 1

    def fold(self, name: str, seconds: float, log: _ThreadLog | None = None) -> None:
        """Account one frequent call to ``name`` without a span of its own."""
        if log is None:
            log = self._log()
        if log.stack:
            log.stack[-1][4] += seconds
        log.seconds[name] = log.seconds.get(name, 0.0) + seconds
        log.self_seconds[name] = log.self_seconds.get(name, 0.0) + seconds
        log.counts[name] = log.counts.get(name, 0) + 1

    def count(self, name: str, n: int = 1) -> None:
        log = self._log()
        log.counts[name] = log.counts.get(name, 0) + n

    def gauge_max(self, name: str, value: float) -> None:
        log = self._log()
        log.gauges[name] = max(log.gauges.get(name, value), value)

    # ------------------------------- reads ------------------------------ #
    def totals(self) -> dict:
        """Seconds, self seconds, counts and gauges summed over threads."""
        out: dict[str, dict] = {"seconds": {}, "self_seconds": {}, "counts": {}, "gauges": {}}
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            for key in ("seconds", "self_seconds", "counts"):
                merged = out[key]
                for name, value in getattr(log, key).items():
                    merged[name] = merged.get(name, 0) + value
            for name, value in log.gauges.items():
                out["gauges"][name] = max(out["gauges"].get(name, value), value)
        return out

    def spans(self) -> list[dict]:
        """Every finished span, oldest first."""
        with self._lock:
            logs = list(self._logs)
        rows = [span for log in logs for span in log.spans]
        rows.sort(key=lambda row: row[1])
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "span": span_id,
                "parent": parent_id,
                "request": request,
                "self_s": self_s,
            }
            for name, start, end, span_id, parent_id, request, self_s in rows
        ]


# --------------------------------------------------------------------- #
# Layer wrappers
# --------------------------------------------------------------------- #
class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


def install_engine(tracer: Tracer) -> Patches:
    """Wrap the mining layers: datasets, lang, search, model, interest.

    Returns the :class:`Patches` whose ``restore()`` removes the wrappers.
    """
    import numpy as np

    from repro.datasets import registry as datasets_registry
    from repro.lang.refinement import RefinementOperator
    from repro.model.background import BackgroundModel
    from repro.search import beam, miner
    from repro.search.results import ScoredSubgroup
    from repro.search.spread import SpreadObjective

    patches = Patches()

    # datasets: generation behind the engine's dataset cache.
    patches.set(
        datasets_registry,
        "load_dataset",
        _spanned(tracer, "datasets.load", datasets_registry.load_dataset),
    )

    # lang: pool construction, refinement generation, condition masks.
    patches.set(
        RefinementOperator,
        "__init__",
        _spanned(tracer, "lang.operator_build", RefinementOperator.__init__),
    )
    refinements = RefinementOperator.refinements

    def timed_refinements(self, description):
        generator = refinements(self, description)
        log = tracer._log()
        while True:
            start = clock()
            try:
                item = next(generator)
            except StopIteration:
                tracer.fold("lang.refine", clock() - start, log)
                return
            tracer.fold("lang.refine", clock() - start, log)
            log.counts["lang.refinements"] = log.counts.get("lang.refinements", 0) + 1
            yield item

    patches.set(RefinementOperator, "refinements", timed_refinements)
    mask_of = RefinementOperator.mask_of

    def timed_mask_of(self, condition):
        start = clock()
        try:
            return mask_of(self, condition)
        finally:
            tracer.fold("lang.mask", clock() - start)

    patches.set(RefinementOperator, "mask_of", timed_mask_of)

    # search.beam: the search loop, scorer construction, and scoring by
    # kernel path. The path is read from the model's public block
    # covariances: one shared covariance means the uniform fast path.
    patches.set(
        beam.LocationBeamSearch,
        "run",
        _spanned(tracer, "beam.run", beam.LocationBeamSearch.run),
    )
    general: "weakref.WeakKeyDictionary[object, bool]" = weakref.WeakKeyDictionary()
    scorer_init = beam.LocationICScorer.__init__

    def traced_scorer_init(self, model, targets):
        tracer.call("beam.scorer_build", scorer_init, self, model, targets)
        first = model.block_cov(0)
        general[self] = not all(
            np.array_equal(first, model.block_cov(b)) for b in range(1, model.n_blocks)
        )

    patches.set(beam.LocationICScorer, "__init__", traced_scorer_init)
    score_masks = beam.LocationICScorer.score_masks

    def traced_score_masks(self, masks):
        rows = len(masks)
        tracer.count("beam.candidates", rows)
        if general.get(self, False):
            tracer.count("beam.candidates_general", rows)
            return tracer.call("beam.score_general", score_masks, self, masks)
        return tracer.call("beam.score_uniform", score_masks, self, masks)

    patches.set(beam.LocationICScorer, "score_masks", traced_score_masks)
    scored_init = ScoredSubgroup.__init__

    def counted_scored_init(self, *args, **kwargs):
        tracer.count("beam.materialised")
        scored_init(self, *args, **kwargs)

    patches.set(ScoredSubgroup, "__init__", counted_scored_init)

    # model: prior fit and assimilation (block count after each).
    from_targets = BackgroundModel.__dict__["from_targets"].__func__

    def traced_from_targets(cls, *args, **kwargs):
        return tracer.call("model.prior_fit", from_targets, cls, *args, **kwargs)

    patches.set(BackgroundModel, "from_targets", classmethod(traced_from_targets))
    assimilate = BackgroundModel.assimilate

    def traced_assimilate(self, constraint):
        result = tracer.call("model.assimilate", assimilate, self, constraint)
        tracer.gauge_max("model.blocks", self.n_blocks)
        return result

    patches.set(BackgroundModel, "assimilate", traced_assimilate)

    # interest + search.spread, as the miner calls them.
    patches.set(
        miner,
        "score_spread",
        _spanned(tracer, "interest.score_spread", miner.score_spread),
    )
    find_spread_direction = miner.find_spread_direction

    def traced_find_spread(*args, **kwargs):
        outcome = tracer.call("spread.search", find_spread_direction, *args, **kwargs)
        tracer.count("spread.ascent_iterations", outcome.n_iterations)
        return outcome

    patches.set(miner, "find_spread_direction", traced_find_spread)
    for method in ("value", "value_and_grad"):
        original = SpreadObjective.__dict__[method]

        def counted(self, w, _original=original):
            tracer.count("spread.objective_evals")
            return _original(self, w)

        patches.set(SpreadObjective, method, counted)
    return patches


def install_client(tracer: Tracer, on_event) -> Patches:
    """Wrap the client's event decoding; ``on_event()`` runs per event."""
    from repro.server import wire

    patches = Patches()
    event_from_wire = wire.event_from_wire

    def traced_event_from_wire(document, *args, **kwargs):
        start = clock()
        try:
            return event_from_wire(document, *args, **kwargs)
        finally:
            end = clock()
            tracer.fold("client.decode", end - start)
            on_event(end)

    patches.set(wire, "event_from_wire", traced_event_from_wire)
    return patches
