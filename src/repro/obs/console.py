"""The scrape-side of the observability loop: ``sisd top``.

Everything here consumes the *exposition format*, not in-process
objects: the dashboard works identically against a
:class:`~repro.server.MiningServer` or a worker daemon, local or
remote, because both serve the same ``GET /metrics`` Prometheus text. Transport is stdlib ``http.client`` (matching
:mod:`repro.client`), parsing is
:func:`repro.obs.metrics.parse_prometheus`.
"""

from __future__ import annotations

from http.client import HTTPConnection, HTTPException
from typing import Mapping

from repro.errors import ObsError
from repro.obs.metrics import parse_prometheus
from repro.report.tables import format_table
from repro.server.http import split_url

__all__ = [
    "fetch_text",
    "render_dashboard",
    "scrape",
]

#: Sample name -> short dashboard row label, in display order.
_DASHBOARD_GAUGES = (
    ("sisd_queue_depth", "queued jobs"),
    ("sisd_events_subscribers", "SSE subscribers"),
    ("sisd_events_dropped", "events dropped"),
    ("sisd_result_cache_hit_ratio", "result-cache hit ratio"),
    ("sisd_belief_cache_hit_ratio", "belief-cache hit ratio"),
    ("sisd_store_records", "store records"),
)

#: Histogram families worth a latency row: (family, row label).
_DASHBOARD_HISTOGRAMS = (
    ("sisd_queue_wait_seconds", "queue wait"),
    ("sisd_mining_turn_wait_seconds", "mining turn wait"),
    ("sisd_beam_phase_seconds", "beam phase"),
    ("sisd_step_phase_seconds", "miner step phase"),
    ("sisd_dist_shard_rtt_seconds", "dist shard RTT"),
    ("sisd_worker_shard_seconds", "worker shard"),
)

#: Counter families summed into the throughput block.
_DASHBOARD_COUNTERS = (
    ("sisd_jobs_submitted_total", "jobs submitted"),
    ("sisd_jobs_finished_total", "jobs finished"),
    ("sisd_miner_steps_total", "miner steps"),
    ("sisd_beam_candidates_total", "beam candidates"),
    ("sisd_dist_shards_total", "dist shards"),
    ("sisd_dist_failovers_total", "dist failovers"),
    ("sisd_http_requests_total", "http requests"),
)


def fetch_text(url: str, path: str, *, timeout: float = 10.0) -> str:
    """GET one path and return the raw (undecoded-as-JSON) body text.

    The client module's exchange helper insists on JSON documents; the
    metrics endpoint serves Prometheus text, hence this raw twin.
    """
    conn = HTTPConnection(*split_url(url), timeout=timeout)
    try:
        conn.request("GET", path, headers={"Accept": "*/*"})
        response = conn.getresponse()
        body = response.read().decode("utf-8", errors="replace")
        if response.status != 200:
            raise ObsError(
                f"GET {url}{path} answered {response.status}: {body[:200]}"
            )
        return body
    except (OSError, HTTPException) as exc:
        raise ObsError(f"cannot reach {url}{path}: {exc}") from exc
    finally:
        conn.close()


def scrape(
    url: str, *, timeout: float = 10.0
) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Fetch and parse one endpoint's ``/metrics`` exposition."""
    return parse_prometheus(fetch_text(url, "/metrics", timeout=timeout))


Samples = Mapping[str, list[tuple[Mapping[str, str], float]]]


def _total(samples: Samples, name: str) -> float:
    return sum(value for _, value in samples.get(name, ()))


def _series(samples: Samples, name: str) -> list[tuple[Mapping[str, str], float]]:
    return list(samples.get(name, ()))


def render_dashboard(samples: Samples, *, source: str = "") -> str:
    """One ``sisd top`` frame: throughput, gauges, and latency tables.

    Pure text-in/text-out (samples come from :func:`scrape` or any
    parsed exposition), so tests and the live loop share one renderer.
    """
    blocks: list[str] = []
    counter_rows = [
        (label, f"{_total(samples, name):g}")
        for name, label in _DASHBOARD_COUNTERS
        if name in samples
    ]
    if counter_rows:
        blocks.append(
            format_table(
                ["counter", "total"],
                counter_rows,
                title=f"sisd top — {source}" if source else "sisd top",
            )
        )
    gauge_rows = [
        (label, f"{_total(samples, name):g}")
        for name, label in _DASHBOARD_GAUGES
        if name in samples
    ]
    if gauge_rows:
        blocks.append(format_table(["gauge", "value"], gauge_rows))
    latency_rows = []
    for family, label in _DASHBOARD_HISTOGRAMS:
        per_label: dict[str, tuple[float, float]] = {}
        for labels, value in _series(samples, f"{family}_sum"):
            key = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            total, count = per_label.get(key, (0.0, 0.0))
            per_label[key] = (total + value, count)
        for labels, value in _series(samples, f"{family}_count"):
            key = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            total, count = per_label.get(key, (0.0, 0.0))
            per_label[key] = (total, count + value)
        for key, (total, count) in sorted(per_label.items()):
            if count:
                latency_rows.append(
                    (label, key, f"{count:g}", f"{1000.0 * total / count:.2f}ms")
                )
    if latency_rows:
        blocks.append(
            format_table(["phase", "labels", "events", "mean"], latency_rows)
        )
    if not blocks:
        return "(no sisd metrics exposed yet)"
    return "\n\n".join(blocks)

