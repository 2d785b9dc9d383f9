"""The server's observability surface: /metrics, /health, and the CLIs.

Satellite acceptance for the observability PR: EventHub slow-consumer
drops and SSE resume gaps are visible through the scraped metrics, the
``GET /metrics`` endpoint serves valid Prometheus text whose counters
only go up, ``sisd top`` works against a live server, and the retired
store-compaction surface stays gone.
"""

import asyncio
import json
from http.client import HTTPConnection
from urllib.parse import urlsplit

import pytest

from repro import cli
from repro.obs.console import fetch_text, scrape
from repro.obs.instruments import METRICS, SSE_RESUME_GAPS
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, parse_prometheus
from repro.server.hub import EventHub
from repro.spec import MiningSpec


def fast_spec(**overrides):
    kwargs = dict(n_iterations=1, beam_width=6, max_depth=2, top_k=10)
    kwargs.update(overrides)
    return MiningSpec.build("synthetic", **kwargs)


def _metric_total(samples, name):
    return sum(value for _, value in samples.get(name, ()))


class TestEventHubMetrics:
    def test_slow_consumer_drops_surface_in_the_scrape(self):
        async def main():
            hub = EventHub(queue_maxsize=2)
            hub.bind(asyncio.get_running_loop())
            sub = hub.subscribe()  # never drained: the slow consumer
            for i in range(10):
                hub.publish({"n": i})
            # Fan-out runs as loop callbacks; yield once so the already-
            # scheduled deliveries (and their drops) all land.
            await asyncio.sleep(0)
            stats = hub.stats()
            samples = parse_prometheus(METRICS.render())
            hub.close()
            sub.close()
            return stats, samples

        stats, samples = asyncio.run(main())
        assert stats["dropped"] == 8  # 10 published into a queue of 2
        assert _metric_total(samples, "sisd_events_dropped") == 8.0
        assert _metric_total(samples, "sisd_events_published") == 10.0

    def test_resume_gap_counts_once_per_stale_reconnect(self):
        async def main():
            hub = EventHub(history=3)
            hub.bind(asyncio.get_running_loop())
            for i in range(10):
                hub.publish({"n": i})
            before = SSE_RESUME_GAPS.value
            fresh = hub.subscribe(since=9)  # newest retained: no gap
            assert SSE_RESUME_GAPS.value == before
            stale = hub.subscribe(since=2)  # events 3..7 already dropped
            assert SSE_RESUME_GAPS.value == before + 1
            lost_all = hub.subscribe(since=None)
            assert SSE_RESUME_GAPS.value == before + 1
            for sub in (fresh, stale, lost_all):
                sub.close()
            hub.close()

        asyncio.run(main())

    def test_closed_hub_stops_collecting(self):
        async def main():
            hub = EventHub()
            hub.bind(asyncio.get_running_loop())
            hub.publish({"n": 0})
            hub.close()
            # The collector is deregistered: rendering consults the
            # remaining collectors only and must not raise.
            METRICS.render()

        asyncio.run(main())


class TestMetricsEndpoint:
    def test_serves_prometheus_text_without_credentials(self, server_handle):
        parts = urlsplit(server_handle.url)
        conn = HTTPConnection(parts.hostname, parts.port, timeout=10)
        try:
            conn.request("GET", "/metrics")  # no Authorization header
            response = conn.getresponse()
            body = response.read().decode("utf-8")
            assert response.status == 200
            assert response.getheader("Content-Type") == PROMETHEUS_CONTENT_TYPE
        finally:
            conn.close()
        samples = parse_prometheus(body)  # parses cleanly end to end
        assert "sisd_http_requests_total" in samples
        assert "sisd_queue_depth" in samples

    def test_families_present_and_counters_monotone(self, remote, server_handle):
        remote.mine(fast_spec(seed=11))
        first = scrape(server_handle.url)
        for family in (
            "sisd_jobs_submitted_total",
            "sisd_jobs_finished_total",
            "sisd_http_requests_total",
            "sisd_events_published",
            "sisd_queue_depth",
            "sisd_result_cache_hit_ratio",
        ):
            assert family in first, f"family {family} missing from /metrics"
        assert _metric_total(first, "sisd_jobs_submitted_total") >= 1.0
        remote.mine(fast_spec(seed=12))
        second = scrape(server_handle.url)
        for family in (
            "sisd_jobs_submitted_total",
            "sisd_jobs_finished_total",
            "sisd_http_requests_total",
        ):
            assert _metric_total(second, family) >= _metric_total(
                first, family
            ), f"counter {family} went down between scrapes"

    def test_job_routes_collapse_ids(self, remote, server_handle):
        remote.mine(fast_spec(seed=13))
        samples = scrape(server_handle.url)
        routes = {
            labels["route"]
            for labels, _ in samples["sisd_http_requests_total"]
        }
        assert "/jobs" in routes
        assert any(route.startswith("/jobs/{id}") for route in routes)
        assert not any("job-" in route for route in routes)

    def test_submissions_are_unlabelled_and_retired_families_gone(
        self, remote, server_handle
    ):
        remote.mine(fast_spec(seed=15))
        samples = scrape(server_handle.url)
        assert [labels for labels, _ in samples["sisd_jobs_submitted_total"]] == [
            {}
        ]
        retired = sorted(
            name
            for name in samples
            if name.startswith("sisd_router_")
            or name
            in (
                "sisd_jobs_rejected_total",
                "sisd_jobs_preempted_total",
                "sisd_store_journal_lag",
            )
        )
        assert retired == []

    def test_health_advertises_the_observability_surface(self, server_handle):
        document = json.loads(fetch_text(server_handle.url, "/health"))
        observability = document["observability"]
        assert observability["metrics"] == "/metrics"
        assert observability["spans_retained"] >= 0


class TestRetiredRoutes:
    def test_admin_compact_is_gone_from_a_durable_server(self, tmp_path):
        from repro.server import MiningServer

        server = MiningServer(port=0, backend="thread", store=tmp_path)
        with server.run_in_thread():
            conn = HTTPConnection(server.host, server.port, timeout=10)
            try:
                conn.request("POST", "/admin/compact")
                response = conn.getresponse()
                body = json.loads(response.read())
            finally:
                conn.close()
        assert response.status == 404
        surface = body["error"]["message"].split("the API surface is")[1]
        assert "/admin" not in surface


class TestConsoleClis:
    def test_sisd_top_once_renders_a_frame(self, remote, server_handle, capsys):
        remote.mine(fast_spec(seed=14))
        assert cli.main(["top", server_handle.url, "--once"]) == 0
        out = capsys.readouterr().out
        assert "sisd top" in out
        assert "jobs submitted" in out
