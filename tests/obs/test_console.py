"""The scrape-side renderers behind ``sisd top``.

All pure samples-in/text-out: the same functions the live CLI loop
calls, fed parsed expositions instead of sockets.
"""

from repro.errors import EngineError, ObsError
from repro.obs.console import fetch_text, render_dashboard
from repro.obs.metrics import MetricsRegistry, parse_prometheus
from repro.server.http import split_url

import pytest


def _samples():
    """A small synthetic scrape covering all three dashboard blocks."""
    return {
        "sisd_jobs_finished_total": [
            ({"state": "done"}, 7.0),
            ({"state": "failed"}, 3.0),
        ],
        "sisd_queue_depth": [({}, 4.0)],
        "sisd_beam_phase_seconds_sum": [({"phase": "score"}, 1.0)],
        "sisd_beam_phase_seconds_count": [({"phase": "score"}, 4.0)],
    }


class TestDashboard:
    def test_counters_sum_across_label_sets(self):
        text = render_dashboard(_samples())
        assert "jobs finished" in text
        assert "10" in text  # 7 + 3 across states

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
        registry.counter("sisd_jobs_submitted_total", "jobs").inc(2)
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
