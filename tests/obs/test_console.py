"""The scrape-side renderers behind ``sisd top`` and ``sisd admin``.

All pure samples-in/text-out: the same functions the live CLI loop
calls, fed parsed expositions instead of sockets.
"""

from repro.errors import EngineError, ObsError
from repro.obs.console import (
    fetch_text,
    post_json,
    render_dashboard,
    tenant_usage,
    usage_table,
)
from repro.obs.metrics import MetricsRegistry, parse_prometheus
from repro.server.http import split_url

import pytest


def _samples():
    """A small synthetic scrape covering all three dashboard blocks."""
    return {
        "sisd_jobs_submitted_total": [
            ({"tenant": "acme"}, 7.0),
            ({"tenant": "-"}, 3.0),
        ],
        "sisd_jobs_rejected_total": [({"tenant": "acme"}, 2.0)],
        "sisd_jobs_preempted_total": [({"tenant": "zeta"}, 1.0)],
        "sisd_queue_depth": [({}, 4.0)],
        "sisd_beam_phase_seconds_sum": [({"phase": "score"}, 1.0)],
        "sisd_beam_phase_seconds_count": [({"phase": "score"}, 4.0)],
    }


class TestDashboard:
    def test_counters_sum_across_label_sets(self):
        text = render_dashboard(_samples())
        assert "jobs submitted" in text
        assert "10" in text  # 7 + 3 across tenants

    def test_gauge_and_latency_blocks(self):
        text = render_dashboard(_samples())
        assert "queued jobs" in text
        assert "beam phase" in text
        assert "phase=score" in text
        assert "250.00ms" in text  # 1.0s over 4 events

    def test_source_appears_in_the_title(self):
        assert "localhost:8080" in render_dashboard(
            _samples(), source="localhost:8080"
        )

    def test_empty_scrape_renders_a_placeholder(self):
        assert render_dashboard({}) == "(no sisd metrics exposed yet)"

    def test_renders_a_real_exposition(self):
        registry = MetricsRegistry()
        registry.counter(
            "sisd_jobs_submitted_total", "jobs", labels=("tenant",)
        ).labels("t1").inc(2)
        registry.gauge("sisd_queue_depth", "depth").set(1)
        text = render_dashboard(parse_prometheus(registry.render()))
        assert "jobs submitted" in text
        assert "queued jobs" in text

    def test_zero_count_histograms_render_no_row(self):
        samples = {
            "sisd_beam_phase_seconds_sum": [({"phase": "score"}, 0.0)],
            "sisd_beam_phase_seconds_count": [({"phase": "score"}, 0.0)],
        }
        assert render_dashboard(samples) == "(no sisd metrics exposed yet)"


class TestTenantUsage:
    def test_rows_aggregate_and_sort_by_submissions(self):
        rows = tenant_usage(_samples())
        assert rows == [
            ("acme", 7.0, 2.0, 0.0),
            ("-", 3.0, 0.0, 0.0),
            ("zeta", 0.0, 0.0, 1.0),
        ]

    def test_empty_scrape_has_no_rows(self):
        assert tenant_usage({}) == []


class TestUsageTable:
    def test_renders_rows(self):
        text = usage_table(_samples(), source="localhost")
        assert "tenant usage — localhost" in text
        assert "acme" in text

    def test_placeholder_without_submissions(self):
        assert "(no submissions yet)" in usage_table({})


class TestUrls:
    def test_scheme_is_optional(self):
        assert split_url("http://example.org:8080") == ("example.org", 8080)
        assert split_url("example.org:8080") == ("example.org", 8080)
        assert split_url("example.org") == ("example.org", 80)

    def test_unparseable_url_is_a_typed_error(self):
        with pytest.raises(EngineError):
            split_url("//")
        with pytest.raises(EngineError, match="no host"):
            split_url("http://:8765")


class TestTruncatedReplies:
    """A peer that cuts its body short is unreachable, not a traceback."""

    def test_fetch_text(self, truncating_peer):
        peer = truncating_peer(b"sisd_queue_depth 1\n")
        with pytest.raises(ObsError, match="cannot reach"):
            fetch_text(peer.url, "/metrics")

    def test_post_json(self, truncating_peer):
        peer = truncating_peer(b"{}")
        with pytest.raises(ObsError, match="cannot reach"):
            post_json(peer.url, "/admin/compact")
