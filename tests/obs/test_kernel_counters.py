"""Which code path ran: IC kernel paths and linear-algebra fallbacks.

``sisd_ic_kernel_candidates_total{path}`` counts the location candidates
each IC kernel scored, and ``sisd_linalg_fallbacks_total{kind}`` counts
every numerical fallback taken on singular input, so both questions are
answerable from ``/metrics`` alone.
"""

import numpy as np
import pytest

from repro.datasets import make_synthetic
from repro.model.gaussian import mvn_logpdf
from repro.obs.instruments import (
    BEAM_CANDIDATES,
    IC_KERNEL_EXACT,
    IC_KERNEL_LOWRANK,
    IC_KERNEL_UNIFORM,
    LINALG_FALLBACK_EIG_CLIP,
    LINALG_FALLBACK_LSTSQ,
    LINALG_FALLBACK_PINV,
    METRICS,
)
from repro.search.beam import LocationICScorer
from repro.search.config import SearchConfig
from repro.search.miner import SubgroupDiscovery
from repro.utils.linalg import log_det_psd, solve_psd

SINGULAR = np.array([[1.0, 1.0], [1.0, 1.0]])


def _paths():
    return {
        "uniform": IC_KERNEL_UNIFORM.value,
        "lowrank": IC_KERNEL_LOWRANK.value,
        "exact": IC_KERNEL_EXACT.value,
        "candidates": BEAM_CANDIDATES.value,
    }


def _delta(before, after):
    return {key: after[key] - before[key] for key in before}


class TestKernelPathCounter:
    @pytest.fixture()
    def routed_rows(self, monkeypatch):
        """Count the rows the low-rank guard routes to the exact loop."""
        seen = {"routed": 0}
        lowrank_ics = LocationICScorer._lowrank_ics

        def counting(self, *args):
            ics, routed = lowrank_ics(self, *args)
            seen["routed"] += int(np.count_nonzero(routed))
            return ics, routed

        monkeypatch.setattr(LocationICScorer, "_lowrank_ics", counting)
        return seen

    def test_two_step_spread_run_takes_the_low_rank_path(self, routed_rows):
        miner = SubgroupDiscovery(
            make_synthetic(0),
            config=SearchConfig(beam_width=8, max_depth=2, top_k=10),
            seed=0,
        )
        start = _paths()
        miner.step(kind="spread")
        middle = _paths()
        miner.step(kind="spread")
        step1, step2 = _delta(start, middle), _delta(middle, _paths())

        # Step 1 scores against the prior: one shared covariance.
        assert step1["uniform"] == step1["candidates"] > 0
        assert step1["lowrank"] == step1["exact"] == 0
        # Step 2 scores against the blocks the first spread update split.
        assert step2["uniform"] == 0
        assert step2["lowrank"] > 0
        assert step2["exact"] == routed_rows["routed"]
        assert step2["lowrank"] + step2["exact"] == step2["candidates"]

    def test_family_renders_with_every_path(self):
        text = METRICS.render()
        for path in ("uniform", "lowrank", "exact"):
            assert f'sisd_ic_kernel_candidates_total{{path="{path}"}}' in text


class TestLinalgFallbackCounter:
    def test_solve_psd_counts_the_lstsq_fallback(self):
        before = LINALG_FALLBACK_LSTSQ.value
        x = solve_psd(SINGULAR, np.array([2.0, 2.0]))
        assert LINALG_FALLBACK_LSTSQ.value == before + 1
        np.testing.assert_allclose(SINGULAR @ x, [2.0, 2.0])

    def test_log_det_psd_counts_the_eig_clip_fallback(self):
        before = LINALG_FALLBACK_EIG_CLIP.value
        assert np.isfinite(log_det_psd(SINGULAR))
        assert LINALG_FALLBACK_EIG_CLIP.value == before + 1

    def test_mvn_logpdf_counts_the_pinv_fallback(self):
        before = LINALG_FALLBACK_PINV.value
        assert np.isfinite(mvn_logpdf(np.zeros(2), np.zeros(2), SINGULAR))
        assert LINALG_FALLBACK_PINV.value == before + 1

    def test_well_conditioned_input_counts_nothing(self):
        before = (
            LINALG_FALLBACK_LSTSQ.value,
            LINALG_FALLBACK_EIG_CLIP.value,
            LINALG_FALLBACK_PINV.value,
        )
        spd = np.array([[2.0, 0.5], [0.5, 1.0]])
        solve_psd(spd, np.ones(2))
        log_det_psd(spd)
        mvn_logpdf(np.ones(2), np.zeros(2), spd)
        assert before == (
            LINALG_FALLBACK_LSTSQ.value,
            LINALG_FALLBACK_EIG_CLIP.value,
            LINALG_FALLBACK_PINV.value,
        )
