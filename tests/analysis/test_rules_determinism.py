"""DET001/DET002/DET003 fire on violations and stay quiet on clean code."""

from __future__ import annotations

from lintfns import rule_ids


class TestWallClock:
    def test_time_time_fires_in_critical_module(self, lint_snippet):
        report = lint_snippet(
            "repro/engine/cache.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert rule_ids(report) == ["DET001"]
        assert "time.time()" in report.findings[0].message

    def test_datetime_now_fires(self, lint_snippet):
        report = lint_snippet(
            "repro/spec.py",
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """,
        )
        assert rule_ids(report) == ["DET001"]

    def test_monotonic_is_quiet(self, lint_snippet):
        report = lint_snippet(
            "repro/engine/cache.py",
            """
            import time

            def elapsed(start):
                return time.monotonic() - start
            """,
        )
        assert report.clean

    def test_non_critical_module_is_quiet(self, lint_snippet):
        # Same violation, but outside the critical-path list.
        report = lint_snippet(
            "repro/report/html.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert report.clean

    def test_critical_marker_opts_a_module_in(self, lint_snippet):
        report = lint_snippet(
            "repro/report/html.py",
            """
            # sisd: critical
            import time

            def stamp():
                return time.time()
            """,
        )
        assert rule_ids(report) == ["DET001"]


class TestUnseededRandom:
    def test_global_random_fires(self, lint_snippet):
        report = lint_snippet(
            "repro/engine/jobs.py",
            """
            import random

            def draw():
                return random.random()
            """,
        )
        assert rule_ids(report) == ["DET002"]

    def test_numpy_global_fires_through_alias(self, lint_snippet):
        report = lint_snippet(
            "repro/dist/executor.py",
            """
            import numpy as np

            def draw():
                return np.random.rand(3)
            """,
        )
        assert rule_ids(report) == ["DET002"]

    def test_unseeded_default_rng_fires(self, lint_snippet):
        report = lint_snippet(
            "repro/persist.py",
            """
            import numpy as np

            def make_rng():
                return np.random.default_rng()
            """,
        )
        assert rule_ids(report) == ["DET002"]

    def test_seeded_default_rng_is_quiet(self, lint_snippet):
        report = lint_snippet(
            "repro/persist.py",
            """
            import numpy as np

            def make_rng(seed):
                return np.random.default_rng(seed)
            """,
        )
        assert report.clean

    def test_instance_rng_is_quiet(self, lint_snippet):
        report = lint_snippet(
            "repro/engine/jobs.py",
            """
            import random

            def draw(seed):
                rng = random.Random(seed)
                return rng.random()
            """,
        )
        assert report.clean


class TestSetIteration:
    def test_for_over_set_literal_fires(self, lint_snippet):
        report = lint_snippet(
            "repro/engine/cache.py",
            """
            def merge():
                out = []
                for key in {1, 2, 3}:
                    out.append(key)
                return out
            """,
        )
        assert rule_ids(report) == ["DET003"]

    def test_for_over_tracked_set_name_fires(self, lint_snippet):
        report = lint_snippet(
            "repro/engine/cache.py",
            """
            def merge(keys):
                seen = set(keys)
                out = []
                for key in seen:
                    out.append(key)
                return out
            """,
        )
        assert rule_ids(report) == ["DET003"]

    def test_list_of_set_fires(self, lint_snippet):
        report = lint_snippet(
            "repro/engine/cache.py",
            """
            def order(keys):
                return list(set(keys))
            """,
        )
        assert rule_ids(report) == ["DET003"]

    def test_sorted_set_is_quiet(self, lint_snippet):
        report = lint_snippet(
            "repro/engine/cache.py",
            """
            def order(keys):
                seen = set(keys)
                return sorted(seen), sorted(set(keys))
            """,
        )
        assert report.clean

    def test_rebound_name_is_not_tracked(self, lint_snippet):
        # ``seen`` stops being a set after the rebind; don't flag it.
        report = lint_snippet(
            "repro/engine/cache.py",
            """
            def order(keys):
                seen = set(keys)
                seen = sorted(seen)
                out = []
                for key in seen:
                    out.append(key)
                return out
            """,
        )
        assert report.clean


class TestClockSeam:
    def test_perf_counter_fires_in_an_instrumented_module(self, lint_snippet):
        report = lint_snippet(
            "repro/search/beam.py",
            """
            import time

            def phase():
                return time.perf_counter()
            """,
        )
        assert rule_ids(report) == ["DET004"]
        assert "clock.perf_counter()" in report.findings[0].message

    def test_monotonic_suggests_the_matching_seam(self, lint_snippet):
        report = lint_snippet(
            "repro/server/app.py",
            """
            import time

            def uptime(start):
                return time.monotonic() - start
            """,
        )
        assert rule_ids(report) == ["DET004"]
        assert "clock.monotonic()" in report.findings[0].message

    def test_fires_in_the_daemon_base_module(self, lint_snippet):
        # repro/server/http.py times every daemon's uptime.
        report = lint_snippet(
            "repro/server/http.py",
            """
            import time

            def uptime(start):
                return time.monotonic() - start
            """,
        )
        assert rule_ids(report) == ["DET004"]

    def test_wall_clock_fires_both_packs_in_a_critical_module(self, lint_snippet):
        # jobs.py is on both lists: DET001 (fingerprint safety) and
        # DET004 (seam routing) each flag a raw ``time.time()``.
        report = lint_snippet(
            "repro/engine/jobs.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert sorted(rule_ids(report)) == ["DET001", "DET004"]

    def test_fires_everywhere_under_the_obs_package(self, lint_snippet):
        report = lint_snippet(
            "repro/obs/instruments.py",
            """
            import time

            def now():
                return time.monotonic_ns()
            """,
        )
        assert rule_ids(report) == ["DET004"]

    def test_the_seam_module_itself_is_exempt(self, lint_snippet):
        report = lint_snippet(
            "repro/obs/clock.py",
            """
            import time

            monotonic = time.monotonic

            def read():
                return time.perf_counter()
            """,
        )
        assert report.clean

    def test_time_sleep_is_pacing_not_measurement(self, lint_snippet):
        report = lint_snippet(
            "repro/dist/worker.py",
            """
            import time

            def backoff(seconds):
                time.sleep(seconds)
            """,
        )
        assert report.clean

    def test_seam_reads_are_quiet(self, lint_snippet):
        report = lint_snippet(
            "repro/dist/executor.py",
            """
            from repro.obs import clock

            def rtt(start):
                return clock.perf_counter() - start
            """,
        )
        assert report.clean

    def test_uninstrumented_modules_are_quiet(self, lint_snippet):
        report = lint_snippet(
            "repro/report/html.py",
            """
            import time

            def stamp():
                return time.perf_counter()
            """,
        )
        assert report.clean
