"""Iterative subjectively-interesting subgroup discovery (the facade).

:class:`SubgroupDiscovery` wires the pieces together the way the paper's
experiments use them: fit the background model from a prior (empirical
by default), beam-search the most subjectively interesting location
pattern, optionally find its spread direction, assimilate what was shown
to the user, repeat. Each call to :meth:`step` is one iteration of the
paper's mining loop.

>>> from repro.datasets import make_synthetic
>>> miner = SubgroupDiscovery(make_synthetic(0))
>>> iteration = miner.step(kind="spread")      # doctest: +SKIP
>>> print(iteration.location.description)      # doctest: +SKIP
attr3 = '1'
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.datasets.schema import Dataset
from repro.engine.cache import BeliefCache, CachedStep
from repro.engine.executor import Executor, SerialExecutor
from repro.errors import SearchError
from repro.events import MiningObserver
from repro.interest.dl import DLParams
from repro.interest.si import score_location, score_spread
from repro.lang.description import Description
from repro.lang.refinement import RefinementOperator
from repro.model.background import BackgroundModel
from repro.model.priors import Prior
from repro.obs import clock
from repro.obs.instruments import (
    MINER_STEPS_EXPIRED,
    MINER_STEPS_MINED,
    MINER_STEPS_REPLAYED,
    STEP_PHASE_LOCATION,
    STEP_PHASE_SPREAD,
)
from repro.obs.trace import TRACER, current
from repro.search.beam import LocationBeamSearch, LocationICScorer
from repro.search.config import SearchConfig
from repro.search.results import (
    LocationPatternResult,
    MiningIteration,
    ScoredSubgroup,
    SearchResult,
    SpreadPatternResult,
)
from repro.search.spread import find_spread_direction
from repro.stats import subgroup_mean
from repro.utils.rng import as_rng, generator_from_state, rng_state


class SubgroupDiscovery:
    """Iterative miner over one dataset.

    .. note::
        As a *public entry point* this class is superseded by
        :class:`repro.api.Workspace` driven by a declarative
        :class:`repro.spec.MiningSpec` — the Workspace routes one spec
        to inline, interactive, or service execution and produces
        byte-identical results. ``SubgroupDiscovery`` remains the
        execution substrate underneath and keeps working.

    Parameters
    ----------
    dataset:
        Data with description attributes and real-valued targets.
    targets:
        Optional subset of target attributes to model (names).
    prior:
        Background prior; defaults to the empirical mean/covariance of
        the (selected) targets, the setup of all the paper's experiments.
    config:
        Beam-search settings (paper defaults).
    dl_params:
        Description-length weights (gamma=0.1, eta=1).
    seed:
        Seed for the spread search's random restarts.
    executor:
        Backend for the beam search's scoring blocks and the spread
        search's restart fan-out (serial by default; a
        :class:`~repro.engine.executor.ProcessExecutor` returns
        identical results, in parallel).
    observer:
        Optional :class:`~repro.events.MiningObserver` receiving
        ``on_candidate`` for every beam candidate scored and
        ``on_iteration`` for every completed :meth:`step`.
    belief_cache:
        Optional :class:`~repro.engine.cache.BeliefCache`. When given,
        every :meth:`step` first looks itself up under the chain hash of
        (dataset content, config, assimilated-constraint sequence, RNG
        state): a hit *replays* the cached iteration — assimilating the
        stored constraints and restoring the post-step RNG state, so the
        continuation is bit-identical to a cold run — and a miss mines
        normally and stores the outcome. Sessions sharing a prefix of
        assimilated patterns through one cache pay for the first new
        iteration onward only. Replayed steps fire ``on_iteration`` but
        not ``on_candidate`` (no beam search ran).
    """

    def __init__(
        self,
        dataset: Dataset,
        *,
        targets: list[str] | None = None,
        prior: Prior | None = None,
        config: SearchConfig = SearchConfig(),
        dl_params: DLParams = DLParams(),
        seed=0,
        executor: Executor | None = None,
        observer: MiningObserver | None = None,
        belief_cache: BeliefCache | None = None,
    ) -> None:
        if targets is not None:
            dataset = dataset.with_targets(targets)
        self.dataset = dataset
        self.targets = dataset.targets
        self.config = config
        self.dl_params = dl_params
        # Case weights (if any) ride the dataset; the model owns them from
        # here on and every scorer/objective reads them off the model.
        self.model = (
            BackgroundModel(dataset.n_rows, prior, weights=dataset.weights)
            if prior is not None
            else BackgroundModel.from_targets(self.targets, weights=dataset.weights)
        )
        self.operator = RefinementOperator(
            dataset,
            n_split_points=config.n_split_points,
            strategy=config.split_strategy,
            attributes=config.attributes,
        )
        self.history: list[MiningIteration] = []
        self._rng = as_rng(seed)
        self.executor = executor if executor is not None else SerialExecutor()
        self.observer = observer
        self.belief_cache = belief_cache
        self._base_fp: str | None = None
        #: Memoized belief chain: ``(constraint, fp_after_it)`` pairs.
        self._chain: list[tuple] = []

    # ------------------------------------------------------------------ #
    # Single-shot searches
    # ------------------------------------------------------------------ #
    def search_locations(self) -> SearchResult:
        """Run the beam search against the *current* belief state."""
        scorer = LocationICScorer(self.model, self.targets)
        search = LocationBeamSearch(
            self.operator,
            scorer,
            config=self.config,
            dl_params=self.dl_params,
            executor=self.executor,
            observer=self.observer,
        )
        return search.run()

    def find_location(self) -> LocationPatternResult:
        """The single most subjectively interesting location pattern."""
        return self._best_location(self.search_locations())

    def _best_location(self, result: SearchResult) -> LocationPatternResult:
        """A location search's winner, as an assimilable result."""
        if result.best is None:
            raise SearchError(
                "beam search found no admissible subgroup; relax min_coverage "
                "or max_coverage_fraction"
            )
        return self.as_location_result(result.best)

    def as_location_result(self, entry: ScoredSubgroup) -> LocationPatternResult:
        """Promote a beam-search log entry to an assimilable result."""
        return LocationPatternResult(
            description=entry.description,
            indices=entry.indices,
            mean=entry.observed_mean,
            score=entry.score,
            coverage=entry.size / self.dataset.n_rows,
        )

    def find_spread_for(
        self,
        location: LocationPatternResult,
        *,
        sparsity: int | None = None,
    ) -> SpreadPatternResult:
        """Most interesting spread direction for an assimilated location.

        Per §II-D the spread step runs *after* the location pattern has
        been assimilated ("we only ever provide the user with spread
        patterns for subgroups for which the location pattern has been
        provided first"); call :meth:`assimilate` with the location
        result before this, or use :meth:`step` which does both.
        """
        outcome = find_spread_direction(
            self.model,
            location.indices,
            self.targets,
            sparsity=sparsity,
            seed=self._rng,
            executor=self.executor,
        )
        score = score_spread(
            self.model,
            location.indices,
            outcome.direction,
            outcome.variance,
            location.mean,
            len(location.description),
            params=self.dl_params,
        )
        return SpreadPatternResult(
            description=location.description,
            indices=location.indices,
            direction=outcome.direction,
            variance=outcome.variance,
            center=location.mean,
            score=score,
        )

    # ------------------------------------------------------------------ #
    # Assimilation and iteration
    # ------------------------------------------------------------------ #
    def assimilate(
        self, pattern: LocationPatternResult | SpreadPatternResult
    ) -> "SubgroupDiscovery":
        """Update the belief state with a pattern shown to the user."""
        self.model.assimilate(pattern.constraint())
        return self

    def _belief_fingerprint(self) -> str:
        """Chain hash of the current belief state (see BeliefCache).

        The chain is re-derived from ``model.constraints`` every call —
        not tracked by interception — so external :meth:`assimilate`
        calls, undo (a model swap), and resumed sessions all fingerprint
        correctly; the memo only skips re-hashing an unchanged prefix
        (matched by constraint identity, safe because the memo holds the
        references alive).
        """
        if self._base_fp is None:
            self._base_fp = BeliefCache.base_fingerprint(
                self.dataset, self.config, self.dl_params, self.model.prior
            )
        fp = self._base_fp
        chain: list[tuple] = []
        for i, constraint in enumerate(self.model.constraints):
            if i < len(self._chain) and self._chain[i][0] is constraint:
                fp = self._chain[i][1]
            else:
                fp = BeliefCache.extend(fp, constraint)
            chain.append((constraint, fp))
        self._chain = chain
        return fp

    def _replay_step(self, entry: CachedStep) -> MiningIteration:
        """Re-apply one cached iteration as if it had just been mined."""
        for constraint in entry.constraints:
            self.model.assimilate(constraint)
        try:
            self._rng = generator_from_state(entry.rng_state)
        except ValueError as exc:  # pragma: no cover - corrupt cache entry
            raise SearchError(f"belief cache entry is corrupt: {exc}") from exc
        iteration = entry.iteration
        if iteration.index != len(self.history) + 1:
            # The entry was mined at a different history depth (e.g. the
            # warm session assimilated patterns manually); the belief
            # chain proves the *work* is identical, only the label moves.
            iteration = replace(iteration, index=len(self.history) + 1)
        self.history.append(iteration)
        if self.observer is not None:
            self.observer.on_iteration(iteration)
        return iteration

    def step(
        self, *, kind: str = "location", sparsity: int | None = None
    ) -> MiningIteration:
        """One mining iteration: find, show, assimilate.

        ``kind="location"`` mines and assimilates a location pattern;
        ``kind="spread"`` runs the paper's two-step process — location
        first, then the spread direction of the same subgroup — and
        assimilates both. With a :attr:`belief_cache`, a step whose
        belief state was mined before replays from the cache instead
        (bit-identical results, no beam search). A step whose location
        search ran out of ``time_budget_seconds`` still assimilates and
        returns the best pattern found so far, but is never cached: it
        depends on the clock, not only on the belief state.
        """
        if kind not in ("location", "spread"):
            raise SearchError(f"kind must be 'location' or 'spread', got {kind!r}")
        key = None
        if self.belief_cache is not None:
            key = BeliefCache.step_key(
                self._belief_fingerprint(), kind, sparsity, rng_state(self._rng)
            )
            entry = self.belief_cache.get(key)
            if entry is not None:
                MINER_STEPS_REPLAYED.inc()
                return self._replay_step(entry)
        trace_ctx = current()
        n_before = len(self.model.constraints)
        t_location = clock.perf_counter()
        search = self.search_locations()
        location = self._best_location(search)
        self.assimilate(location)
        t_spread = clock.perf_counter()
        STEP_PHASE_LOCATION.observe(t_spread - t_location)
        TRACER.record("step.location", t_location, t_spread, trace_ctx)
        spread = None
        if kind == "spread":
            spread = self.find_spread_for(location, sparsity=sparsity)
            self.assimilate(spread)
            t_done = clock.perf_counter()
            STEP_PHASE_SPREAD.observe(t_done - t_spread)
            TRACER.record("step.spread", t_spread, t_done, trace_ctx)
        (MINER_STEPS_EXPIRED if search.expired else MINER_STEPS_MINED).inc()
        iteration = MiningIteration(
            index=len(self.history) + 1, location=location, spread=spread
        )
        self.history.append(iteration)
        if key is not None and not search.expired:
            self.belief_cache.put(
                key,
                CachedStep(
                    iteration=iteration,
                    constraints=tuple(self.model.constraints[n_before:]),
                    rng_state=rng_state(self._rng),
                ),
            )
        if self.observer is not None:
            self.observer.on_iteration(iteration)
        return iteration

    def run(
        self, n_iterations: int, *, kind: str = "location", sparsity: int | None = None
    ) -> list[MiningIteration]:
        """Run ``n_iterations`` mining steps; returns the new iterations."""
        if n_iterations < 1:
            raise SearchError(f"n_iterations must be >= 1, got {n_iterations}")
        return [self.step(kind=kind, sparsity=sparsity) for _ in range(n_iterations)]

    # ------------------------------------------------------------------ #
    # Utilities
    # ------------------------------------------------------------------ #
    def score_description(self, description: Description) -> ScoredSubgroup:
        """SI of a given intention under the *current* belief state.

        Used to track how the SI of known patterns changes as others are
        assimilated (the paper's Table I).
        """
        mask = self.operator.extension_mask(description.canonical())
        size = int(mask.sum())
        if size == 0:
            raise SearchError(f"description {description} has an empty extension")
        observed = subgroup_mean(self.targets, mask, self.model.weights)
        score = score_location(
            self.model, mask, observed, len(description.canonical()),
            params=self.dl_params,
        )
        return ScoredSubgroup(
            description=description.canonical(),
            indices=np.flatnonzero(mask),
            observed_mean=observed,
            score=score,
        )
