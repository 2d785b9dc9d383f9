"""Tests for the spread objective and direction search."""

import numpy as np
import pytest

from repro.errors import SearchError
from repro.model.background import BackgroundModel
from repro.search.spread import SpreadObjective, find_spread_direction
from repro.stats.statistics import subgroup_spread


@pytest.fixture()
def planted(rng):
    """Subgroup with a strongly anisotropic empirical covariance."""
    n, d = 80, 3
    targets = rng.standard_normal((n, d))
    idx = np.arange(25)
    # Inside the subgroup: inflate variance along e0, kill it along e2.
    targets[idx, 0] *= 4.0
    targets[idx, 2] *= 0.05
    model = BackgroundModel.from_targets(targets)
    return targets, model, idx


class TestSpreadObjective:
    def test_value_matches_ic(self, planted):
        from repro.interest.ic import spread_ic
        from repro.stats.statistics import subgroup_mean

        targets, model, idx = planted
        objective = SpreadObjective(model, idx, targets)
        w = np.array([0.0, 1.0, 0.0])
        expected = spread_ic(
            model, idx, w, subgroup_spread(targets, idx, w),
            subgroup_mean(targets, idx),
        )
        assert objective.value(w) == pytest.approx(expected, rel=1e-9)

    def test_variance_matches_statistic(self, planted):
        targets, model, idx = planted
        objective = SpreadObjective(model, idx, targets)
        w = np.array([1.0, 0.0, 0.0])
        assert objective.variance(w) == pytest.approx(
            subgroup_spread(targets, idx, w), rel=1e-10
        )

    def test_gradient_finite_difference(self, planted, rng):
        """Analytic gradient must match central differences."""
        targets, model, idx = planted
        objective = SpreadObjective(model, idx, targets)
        eps = 1e-6
        for _ in range(5):
            w = rng.standard_normal(3)
            w /= np.linalg.norm(w)
            _, grad = objective.value_and_grad(w)
            for j in range(3):
                delta = np.zeros(3)
                delta[j] = eps
                numeric = (
                    objective.value(w + delta) - objective.value(w - delta)
                ) / (2 * eps)
                assert grad[j] == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    def test_needs_two_rows(self, planted):
        targets, model, _ = planted
        with pytest.raises(SearchError, match=">= 2"):
            SpreadObjective(model, np.array([0]), targets)

    def test_suggested_starts_are_unit(self, planted):
        targets, model, idx = planted
        objective = SpreadObjective(model, idx, targets)
        for start in objective.suggested_starts():
            assert np.linalg.norm(start) == pytest.approx(1.0)


class TestFindSpreadDirection:
    def test_finds_planted_low_variance_axis(self, planted):
        """The most surprising direction is the collapsed e2 axis."""
        targets, model, idx = planted
        outcome = find_spread_direction(model, idx, targets, seed=0)
        assert abs(outcome.direction[2]) > 0.95

    def test_outcome_fields_consistent(self, planted):
        targets, model, idx = planted
        outcome = find_spread_direction(model, idx, targets, seed=0)
        assert np.linalg.norm(outcome.direction) == pytest.approx(1.0)
        assert outcome.variance == pytest.approx(
            subgroup_spread(targets, idx, outcome.direction), rel=1e-8
        )

    def test_beats_all_axis_directions(self, planted):
        targets, model, idx = planted
        objective = SpreadObjective(model, idx, targets)
        outcome = find_spread_direction(model, idx, targets, seed=0)
        for j in range(3):
            axis = np.zeros(3)
            axis[j] = 1.0
            assert outcome.ic >= objective.value(axis) - 1e-6

    def test_one_dimensional_target(self, rng):
        targets = rng.standard_normal((30, 1))
        model = BackgroundModel.from_targets(targets)
        outcome = find_spread_direction(model, np.arange(10), targets)
        np.testing.assert_array_equal(outcome.direction, [1.0])

    def test_sparsity_two(self, planted):
        targets, model, idx = planted
        outcome = find_spread_direction(model, idx, targets, sparsity=2, seed=0)
        assert (np.abs(outcome.direction) > 1e-9).sum() <= 2
        assert np.linalg.norm(outcome.direction) == pytest.approx(1.0)

    def test_sparsity_two_close_to_full_when_axis_aligned(self, planted):
        """Planted structure is axis-aligned, so the 2-sparse optimum is
        nearly as good as the unconstrained one."""
        targets, model, idx = planted
        full = find_spread_direction(model, idx, targets, seed=0)
        sparse = find_spread_direction(model, idx, targets, sparsity=2, seed=0)
        assert sparse.ic > 0.8 * full.ic

    def test_unsupported_sparsity(self, planted):
        targets, model, idx = planted
        with pytest.raises(SearchError, match="sparsity"):
            find_spread_direction(model, idx, targets, sparsity=3)
        # One target: refused too, not answered by the d = 1 shortcut.
        one = targets[:, :1]
        with pytest.raises(SearchError, match="sparsity"):
            find_spread_direction(BackgroundModel.from_targets(one), idx, one, sparsity=3)

    def test_deterministic_given_seed(self, planted):
        targets, model, idx = planted
        a = find_spread_direction(model, idx, targets, seed=7)
        b = find_spread_direction(model, idx, targets, seed=7)
        np.testing.assert_allclose(a.direction, b.direction)
