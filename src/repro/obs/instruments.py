"""Every instrument the engine records, declared once, in one order.

Instrumented modules import their handles from here instead of
declaring metrics ad hoc, which buys three things:

- **Deterministic registration order** (a tentpole requirement): the
  registry's contents depend only on this module's top-to-bottom
  order, never on which subsystem happened to be imported first.
- **One place to read the vocabulary**: the README metrics table, the
  ``sisd top`` dashboard, and the CI smoke assertions all reference
  names defined here.
- **Pre-bound handles**: the hot paths bind label children at import
  time (``BEAM_PHASE.labels("score")``), so recording one event is a
  lock and an add — no name lookup, no label join, no formatting.

Everything registers against :data:`METRICS`, the process-wide default
registry that ``GET /metrics`` renders. Pull-style values (cache hit
counts, queue depth, store records) are bridged in by *collectors* that
the owning objects register on creation and remove on close — see
:meth:`repro.obs.metrics.MetricsRegistry.register_collector`.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

__all__ = ["METRICS"]

#: The process-wide registry: every tier records here, every
#: ``/metrics`` endpoint renders it.
METRICS = MetricsRegistry()

# --------------------------------------------------------------------- #
# Search hot path (repro.search.beam / repro.search.miner)
# --------------------------------------------------------------------- #
#: Per-level beam phase durations; phase ∈ candidate_gen|score|prune|merge.
BEAM_PHASE = METRICS.histogram(
    "sisd_beam_phase_seconds",
    "Beam search time per phase per level",
    labels=("phase",),
)
#: Candidates scored by the beam search (one count per subgroup).
BEAM_CANDIDATES = METRICS.counter(
    "sisd_beam_candidates_total", "Beam candidates scored"
)
#: Refinements the beam search dropped before scoring;
#: reason ∈ duplicate (seen at this or an earlier level) | coverage.
BEAM_CANDIDATES_DROPPED = METRICS.counter(
    "sisd_beam_candidates_dropped_total",
    "Beam refinements dropped before scoring, by reason",
    labels=("reason",),
)
#: Distinct parent extensions the beam search expanded (one count per
#: distinct extension per level): below the parents expanded when
#: parents share an extension, whose candidates then share one IC.
BEAM_PARENT_EXTENSIONS = METRICS.counter(
    "sisd_beam_parent_extensions_total",
    "Distinct parent extensions expanded by the beam search",
)
#: Mining-loop steps; outcome ∈ mined|replayed (belief-cache hit)|expired
#: (the location search's time budget ran out; never cached).
MINER_STEPS = METRICS.counter(
    "sisd_miner_steps_total",
    "SubgroupDiscovery.step calls by outcome",
    labels=("outcome",),
)
#: Wall time of one step's pattern searches; phase ∈ location|spread.
STEP_PHASE = METRICS.histogram(
    "sisd_step_phase_seconds",
    "Mining-step search time per phase",
    labels=("phase",),
)
#: Rows of sums scored per IC kernel path (repro.search.beam): one row
#: per distinct (parent extension, added condition) pair, so at most the
#: candidates; path ∈ uniform|lowrank|exact.
IC_KERNEL_CANDIDATES = METRICS.counter(
    "sisd_ic_kernel_candidates_total",
    "Distinct location candidate extensions scored, by IC kernel path",
    labels=("path",),
)
#: Spread-search gradient ascents (repro.search.spread), counted by the
#: process that runs the search; end ∈ converged (gradient norm under
#: tol) | stalled (no Armijo ascent) | capped (iteration cap).
SPREAD_ASCENTS = METRICS.counter(
    "sisd_spread_ascents_total",
    "Spread-direction gradient ascents, by how they ended",
    labels=("end",),
)
#: Numerical fallbacks on singular input (repro.utils.linalg,
#: repro.model.gaussian); kind ∈ lstsq|eig_clip|pinv.
LINALG_FALLBACKS = METRICS.counter(
    "sisd_linalg_fallbacks_total",
    "Linear-algebra fallbacks taken on singular input, by kind",
    labels=("kind",),
)

# --------------------------------------------------------------------- #
# Service tier (repro.engine.service)
# --------------------------------------------------------------------- #
JOBS_SUBMITTED = METRICS.counter(
    "sisd_jobs_submitted_total", "Jobs accepted by the mining service"
)
JOBS_FINISHED = METRICS.counter(
    "sisd_jobs_finished_total",
    "Jobs reaching a terminal state",
    labels=("state",),
)
QUEUE_DEPTH = METRICS.gauge(
    "sisd_queue_depth", "Jobs currently queued (refreshed at scrape)"
)
QUEUE_AGED = METRICS.counter(
    "sisd_queue_aged_total", "Queue-aging priority promotions"
)
QUEUE_WAIT = METRICS.histogram(
    "sisd_queue_wait_seconds", "Submit-to-dispatch latency"
)

# Result / belief cache hit ratios (collector-refreshed gauges).
RESULT_CACHE_HITS = METRICS.gauge(
    "sisd_result_cache_hits", "Service result-cache hits"
)
RESULT_CACHE_MISSES = METRICS.gauge(
    "sisd_result_cache_misses", "Service result-cache misses"
)
RESULT_CACHE_HIT_RATIO = METRICS.gauge(
    "sisd_result_cache_hit_ratio", "Service result-cache hit ratio"
)
BELIEF_CACHE_HITS = METRICS.gauge(
    "sisd_belief_cache_hits", "Belief-prefix cache hits"
)
BELIEF_CACHE_MISSES = METRICS.gauge(
    "sisd_belief_cache_misses", "Belief-prefix cache misses"
)
BELIEF_CACHE_EVICTIONS = METRICS.gauge(
    "sisd_belief_cache_evictions", "Belief-prefix cache evictions"
)
BELIEF_CACHE_HIT_RATIO = METRICS.gauge(
    "sisd_belief_cache_hit_ratio", "Belief-prefix cache hit ratio"
)

# --------------------------------------------------------------------- #
# Durable store (repro.store)
# --------------------------------------------------------------------- #
STORE_RECORDS = METRICS.gauge(
    "sisd_store_records", "Scheduler records held durably"
)
BELIEF_SPILL_HITS = METRICS.gauge(
    "sisd_belief_spill_hits", "Belief-spill disk hits"
)
BELIEF_SPILL_MISSES = METRICS.gauge(
    "sisd_belief_spill_misses", "Belief-spill disk misses"
)
BELIEF_SPILL_HIT_RATIO = METRICS.gauge(
    "sisd_belief_spill_hit_ratio", "Belief-spill disk hit ratio"
)

# --------------------------------------------------------------------- #
# Server tier (repro.server)
# --------------------------------------------------------------------- #
HTTP_REQUESTS = METRICS.counter(
    "sisd_http_requests_total",
    "HTTP requests dispatched, by route root",
    labels=("route",),
)
EVENTS_PUBLISHED = METRICS.gauge(
    "sisd_events_published", "Events published to the hub"
)
EVENTS_RETAINED = METRICS.gauge(
    "sisd_events_retained", "Events currently in the replay history"
)
EVENTS_SUBSCRIBERS = METRICS.gauge(
    "sisd_events_subscribers", "Live SSE subscribers"
)
EVENTS_DROPPED = METRICS.gauge(
    "sisd_events_dropped", "Events dropped on slow consumers"
)
SSE_RESUME_GAPS = METRICS.counter(
    "sisd_sse_resume_gaps_total",
    "SSE resumes whose Last-Event-ID predated the retained history",
)

# --------------------------------------------------------------------- #
# Distributed tier (repro.dist)
# --------------------------------------------------------------------- #
DIST_SHARD_RTT = METRICS.histogram(
    "sisd_dist_shard_rtt_seconds",
    "Remote shard round-trip time per worker",
    labels=("worker",),
)
DIST_SHARDS = METRICS.counter(
    "sisd_dist_shards_total",
    "Shards executed, by path",
    labels=("path",),
)
DIST_FAILOVERS = METRICS.counter(
    "sisd_dist_failovers_total", "Shards retried on another worker"
)
DIST_CONTEXTS_SHIPPED = METRICS.counter(
    "sisd_dist_contexts_shipped_total", "Session contexts shipped to workers"
)

WORKER_SHARDS = METRICS.counter(
    "sisd_worker_shards_total", "Shards executed by this worker daemon"
)
WORKER_ITEMS = METRICS.counter(
    "sisd_worker_items_total", "Work items scored by this worker daemon"
)
WORKER_ERRORS = METRICS.counter(
    "sisd_worker_errors_total", "Shard executions that raised"
)
WORKER_CONTEXT_MISSES = METRICS.counter(
    "sisd_worker_context_misses_total",
    "Shard requests naming a context this worker did not hold",
)
WORKER_SHARD_SECONDS = METRICS.histogram(
    "sisd_worker_shard_seconds", "Shard execution time on the worker"
)

#: Pre-bound beam phase children (the hot-path handles).
BEAM_PHASE_CANDIDATE_GEN = BEAM_PHASE.labels("candidate_gen")
BEAM_PHASE_SCORE = BEAM_PHASE.labels("score")
BEAM_PHASE_PRUNE = BEAM_PHASE.labels("prune")
BEAM_PHASE_MERGE = BEAM_PHASE.labels("merge")

#: Pre-bound beam drop reasons.
BEAM_DROPPED_DUPLICATE = BEAM_CANDIDATES_DROPPED.labels("duplicate")
BEAM_DROPPED_COVERAGE = BEAM_CANDIDATES_DROPPED.labels("coverage")

#: Pre-bound IC kernel paths.
IC_KERNEL_UNIFORM = IC_KERNEL_CANDIDATES.labels("uniform")
IC_KERNEL_LOWRANK = IC_KERNEL_CANDIDATES.labels("lowrank")
IC_KERNEL_EXACT = IC_KERNEL_CANDIDATES.labels("exact")

#: Pre-bound spread ascent ends, by end.
SPREAD_ASCENT_ENDS = {
    end: SPREAD_ASCENTS.labels(end) for end in ("converged", "stalled", "capped")
}

#: Pre-bound linear-algebra fallback kinds.
LINALG_FALLBACK_LSTSQ = LINALG_FALLBACKS.labels("lstsq")
LINALG_FALLBACK_EIG_CLIP = LINALG_FALLBACKS.labels("eig_clip")
LINALG_FALLBACK_PINV = LINALG_FALLBACKS.labels("pinv")

#: Pre-bound step phases.
STEP_PHASE_LOCATION = STEP_PHASE.labels("location")
STEP_PHASE_SPREAD = STEP_PHASE.labels("spread")

#: Pre-bound miner outcomes.
MINER_STEPS_MINED = MINER_STEPS.labels("mined")
MINER_STEPS_REPLAYED = MINER_STEPS.labels("replayed")
MINER_STEPS_EXPIRED = MINER_STEPS.labels("expired")

#: Pre-bound dist shard paths.
DIST_SHARDS_REMOTE = DIST_SHARDS.labels("remote")
DIST_SHARDS_LOCAL = DIST_SHARDS.labels("local")


def _collect_belief_cache() -> None:
    """Refresh belief-cache gauges from the process-wide cache."""
    from repro.engine.cache import BELIEF_CACHE

    stats = BELIEF_CACHE.stats
    BELIEF_CACHE_HITS.set(stats.hits)
    BELIEF_CACHE_MISSES.set(stats.misses)
    BELIEF_CACHE_EVICTIONS.set(stats.evictions)
    BELIEF_CACHE_HIT_RATIO.set(stats.hit_rate)


METRICS.register_collector(_collect_belief_cache)
