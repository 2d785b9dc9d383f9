"""``repro.obs``: metrics, trace spans, and profiling for the miner.

A stdlib-only observability layer answering the question the ROADMAP's
perf items keep raising — *where does the time go?* — without touching
the determinism contract:

- :mod:`repro.obs.metrics` — counters/gauges/histograms in the
  string-keyed registry idiom, rendered as Prometheus text by the
  ``GET /metrics`` endpoints on the server and the worker.
- :mod:`repro.obs.trace` — spans with explicit context propagation, so
  one trace id follows a job from HTTP submit through the scheduler,
  the executor's shards, and a remote worker daemon.
- :mod:`repro.obs.clock` — the one blessed ``time.*`` seam for
  instrumented modules (statically enforced by lint rule ``DET004``).
- :mod:`repro.obs.instruments` — every instrument the engine records,
  declared once so registration order is deterministic.
- :mod:`repro.obs.profile` — metrics-diff profiling, the engine of
  ``Workspace.mine(..., profile=True)``.

Nothing here feeds a fingerprint: results stay bit-identical with
observability on, across every execution backend.
"""

from repro.obs.instruments import METRICS
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    parse_prometheus,
)
from repro.obs.profile import ProfileReport, profile_block
from repro.obs.trace import (
    Span,
    TraceContext,
    Tracer,
    TRACER,
    activate,
    current,
)

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "parse_prometheus",
    "ProfileReport",
    "profile_block",
    "Span",
    "TraceContext",
    "Tracer",
    "TRACER",
    "activate",
    "current",
]
