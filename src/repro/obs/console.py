"""The scrape-side of the observability loop: ``sisd top`` and admin.

Everything here consumes the *exposition format*, not in-process
objects: the dashboard and the usage report work identically against a
:class:`~repro.server.MiningServer`, a worker daemon, or a router,
local or remote, because all three serve the same ``GET /metrics``
Prometheus text. Transport is stdlib ``http.client`` (matching
:mod:`repro.client`), parsing is
:func:`repro.obs.metrics.parse_prometheus`.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection, HTTPException
from typing import Any, Mapping

from repro.errors import ObsError
from repro.obs.metrics import parse_prometheus
from repro.report.tables import format_table
from repro.server.http import split_url

__all__ = [
    "fetch_text",
    "post_json",
    "render_dashboard",
    "scrape",
    "tenant_usage",
    "usage_table",
]

#: Sample name -> short dashboard row label, in display order.
_DASHBOARD_GAUGES = (
    ("sisd_queue_depth", "queued jobs"),
    ("sisd_events_subscribers", "SSE subscribers"),
    ("sisd_events_dropped", "events dropped"),
    ("sisd_result_cache_hit_ratio", "result-cache hit ratio"),
    ("sisd_belief_cache_hit_ratio", "belief-cache hit ratio"),
    ("sisd_store_records", "store records"),
    ("sisd_store_journal_lag", "store journal lag"),
)

#: Histogram families worth a latency row: (family, row label).
_DASHBOARD_HISTOGRAMS = (
    ("sisd_queue_wait_seconds", "queue wait"),
    ("sisd_beam_phase_seconds", "beam phase"),
    ("sisd_step_phase_seconds", "miner step phase"),
    ("sisd_dist_shard_rtt_seconds", "dist shard RTT"),
    ("sisd_worker_shard_seconds", "worker shard"),
)

#: Counter families summed into the throughput block.
_DASHBOARD_COUNTERS = (
    ("sisd_jobs_submitted_total", "jobs submitted"),
    ("sisd_jobs_finished_total", "jobs finished"),
    ("sisd_jobs_rejected_total", "jobs rejected"),
    ("sisd_jobs_preempted_total", "jobs preempted"),
    ("sisd_miner_steps_total", "miner steps"),
    ("sisd_beam_candidates_total", "beam candidates"),
    ("sisd_dist_shards_total", "dist shards"),
    ("sisd_dist_failovers_total", "dist failovers"),
    ("sisd_http_requests_total", "http requests"),
)


def fetch_text(
    url: str,
    path: str,
    *,
    timeout: float = 10.0,
    token: str | None = None,
) -> str:
    """GET one path and return the raw (undecoded-as-JSON) body text.

    The client module's exchange helper insists on JSON documents; the
    metrics endpoint serves Prometheus text, hence this raw twin.
    """
    conn = HTTPConnection(*split_url(url), timeout=timeout)
    try:
        headers = {"Accept": "*/*"}
        if token is not None:
            headers["Authorization"] = f"Bearer {token}"
        conn.request("GET", path, headers=headers)
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


def post_json(
    url: str,
    path: str,
    *,
    timeout: float = 30.0,
    token: str | None = None,
) -> dict:
    """POST (no body) one admin path and return the decoded document."""
    conn = HTTPConnection(*split_url(url), timeout=timeout)
    try:
        headers = {"Accept": "application/json"}
        if token is not None:
            headers["Authorization"] = f"Bearer {token}"
        conn.request("POST", path, headers=headers)
        response = conn.getresponse()
        body = response.read().decode("utf-8", errors="replace")
        try:
            document = json.loads(body) if body else {}
        except ValueError as exc:
            raise ObsError(
                f"POST {url}{path} answered undecodable JSON: {body[:200]}"
            ) from exc
        if response.status >= 400:
            error = document.get("error", {})
            message = error.get("message", body[:200])
            raise ObsError(f"POST {url}{path} answered {response.status}: {message}")
        return document
    except (OSError, HTTPException) as exc:
        raise ObsError(f"cannot reach {url}{path}: {exc}") from exc
    finally:
        conn.close()


def scrape(
    url: str, *, timeout: float = 10.0, token: str | None = None
) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Fetch and parse one endpoint's ``/metrics`` exposition."""
    return parse_prometheus(fetch_text(url, "/metrics", timeout=timeout, token=token))


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


def tenant_usage(samples: Samples) -> list[tuple[str, float, float, float]]:
    """Per-tenant ``(tenant, submitted, rejected, preempted)`` rows.

    Tenants appearing in any of the three families get a row; the
    sort is by submitted count descending, then name.
    """
    usage: dict[str, dict[str, float]] = {}
    for family, column in (
        ("sisd_jobs_submitted_total", "submitted"),
        ("sisd_jobs_rejected_total", "rejected"),
        ("sisd_jobs_preempted_total", "preempted"),
    ):
        for labels, value in _series(samples, family):
            tenant = labels.get("tenant", "-")
            row = usage.setdefault(
                tenant, {"submitted": 0.0, "rejected": 0.0, "preempted": 0.0}
            )
            row[column] += value
    rows = [
        (tenant, row["submitted"], row["rejected"], row["preempted"])
        for tenant, row in usage.items()
    ]
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


def usage_table(samples: Samples, *, source: str = "") -> str:
    """The rendered ``sisd admin usage`` report."""
    rows: list[tuple[Any, ...]] = [
        (tenant, f"{submitted:g}", f"{rejected:g}", f"{preempted:g}")
        for tenant, submitted, rejected, preempted in tenant_usage(samples)
    ]
    if not rows:
        rows = [("(no submissions yet)", "", "", "")]
    return format_table(
        ["tenant", "submitted", "rejected", "preempted"],
        rows,
        title=f"tenant usage — {source}" if source else "tenant usage",
    )
