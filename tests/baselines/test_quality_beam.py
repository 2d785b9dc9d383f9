"""Tests for the baseline-quality beam search."""

import numpy as np
import pytest

from repro.baselines.beam import QualityBeamSearch
from repro.baselines.quality import MeanShiftQuality
from repro.datasets.schema import AttributeKind, Column, Dataset
from repro.lang.refinement import RefinementOperator
from repro.search.config import SearchConfig


@pytest.fixture()
def planted(rng):
    n = 150
    targets = rng.standard_normal(n)
    flag = np.zeros(n)
    flag[:30] = 1.0
    targets[:30] += 3.0
    order = rng.permutation(n)
    columns = [
        Column("flag", AttributeKind.BINARY, flag[order]),
        Column("noise", AttributeKind.NUMERIC, rng.standard_normal(n)),
    ]
    return Dataset("planted", columns, targets[order], ["y"])


class TestQualityBeamSearch:
    def test_finds_planted_subgroup(self, planted):
        search = QualityBeamSearch(
            RefinementOperator(planted), MeanShiftQuality(planted.targets)
        )
        result = search.run()
        assert result.best is not None
        assert str(result.best.description) == "flag = '1'"

    def test_log_sorted(self, planted):
        search = QualityBeamSearch(
            RefinementOperator(planted), MeanShiftQuality(planted.targets)
        )
        result = search.run()
        qualities = [s.quality for s in result.log]
        assert qualities == sorted(qualities, reverse=True)

    def test_respects_coverage_limits(self, planted):
        config = SearchConfig(min_coverage=40)
        search = QualityBeamSearch(
            RefinementOperator(planted),
            MeanShiftQuality(planted.targets),
            config=config,
        )
        result = search.run()
        assert all(s.size >= 40 for s in result.log)

    def test_repeated_runs_identical(self, planted):
        """Objective measures are static: re-running finds the same best."""
        operator = RefinementOperator(planted)
        quality = MeanShiftQuality(planted.targets)
        first = QualityBeamSearch(operator, quality).run()
        second = QualityBeamSearch(operator, quality).run()
        assert first.best.description == second.best.description
        assert first.best.quality == pytest.approx(second.best.quality)

    def test_expired_budget_is_reported(self, planted):
        search = QualityBeamSearch(
            RefinementOperator(planted),
            MeanShiftQuality(planted.targets),
            config=SearchConfig(time_budget_seconds=0.0),
        )
        result = search.run()
        assert result.expired
        assert result.best is None
        assert result.n_evaluated == 0

    def test_complete_run_is_not_expired(self, planted):
        search = QualityBeamSearch(
            RefinementOperator(planted), MeanShiftQuality(planted.targets)
        )
        assert not search.run().expired
