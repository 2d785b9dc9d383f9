"""Tests for figure data series."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.errors import ReproError
from repro.report.series import (
    cdf_series,
    histogram_series,
    kde_series,
    mixture_normal_cdf_series,
    normal_cdf_series,
)


class TestKdeSeries:
    def test_density_integrates_to_one(self, rng):
        values = rng.standard_normal(500)
        grid, density = kde_series(values, n_points=512, pad=0.5)
        assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=0.02)

    def test_weight_scales(self, rng):
        values = rng.standard_normal(100)
        grid = np.linspace(-3, 3, 50)
        _, full = kde_series(values, grid=grid)
        _, half = kde_series(values, grid=grid, weight=0.5)
        np.testing.assert_allclose(half, 0.5 * full)

    def test_peak_near_mode(self, rng):
        values = rng.standard_normal(2000) + 5.0
        grid, density = kde_series(values)
        assert abs(grid[np.argmax(density)] - 5.0) < 0.5

    def test_degenerate_sample(self):
        grid, density = kde_series(np.full(10, 2.0), grid=np.linspace(1, 3, 50))
        assert np.isfinite(density).all()
        assert density.max() > 0

    def test_too_few_values(self):
        with pytest.raises(ReproError):
            kde_series([1.0])


class TestCdfSeries:
    def test_monotone_zero_to_one(self, rng):
        values = rng.standard_normal(200)
        grid, cdf = cdf_series(values, pad=0.5)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[0] == pytest.approx(0.0, abs=0.02)
        assert cdf[-1] == pytest.approx(1.0, abs=0.02)

    def test_median_at_half(self, rng):
        values = rng.standard_normal(1001)
        grid = np.array([np.median(values)])
        _, cdf = cdf_series(values, grid=grid)
        assert cdf[0] == pytest.approx(0.5, abs=0.01)

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            cdf_series([])


class TestNormalCdfSeries:
    def test_standard_normal_values(self):
        grid = np.array([-1.96, 0.0, 1.96])
        _, cdf = normal_cdf_series(0.0, 1.0, grid)
        np.testing.assert_allclose(cdf, [0.025, 0.5, 0.975], atol=1e-3)

    def test_invalid_sd(self):
        with pytest.raises(ReproError):
            normal_cdf_series(0.0, 0.0, np.zeros(3))


class TestMixtureNormalCdf:
    def test_single_component_matches_normal(self):
        grid = np.linspace(-3, 3, 20)
        _, expected = normal_cdf_series(0.5, 1.2, grid)
        _, mixture = mixture_normal_cdf_series([0.5], [1.2], [1.0], grid)
        np.testing.assert_allclose(mixture, expected)

    def test_weights_normalized(self):
        grid = np.linspace(-5, 5, 11)
        _, a = mixture_normal_cdf_series([0.0, 2.0], [1.0, 1.0], [1.0, 1.0], grid)
        _, b = mixture_normal_cdf_series([0.0, 2.0], [1.0, 1.0], [10.0, 10.0], grid)
        np.testing.assert_allclose(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ReproError):
            mixture_normal_cdf_series([0.0], [1.0, 2.0], [1.0], np.zeros(3))


class TestHistogramSeries:
    def test_counts_sum_to_n(self, rng):
        values = rng.standard_normal(300)
        _, counts = histogram_series(values, bins=15)
        assert counts.sum() == 300

    def test_centers_inside_range(self, rng):
        values = rng.standard_normal(100)
        centers, _ = histogram_series(values, bins=10)
        assert centers.min() > values.min()
        assert centers.max() < values.max()


def _same_bytes(got, expected) -> None:
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


_means = st.floats(-1e3, 1e3)
_sds = st.floats(1e-6, 1e3)
_grids = st.lists(
    st.one_of(st.floats(-1e4, 1e4), st.sampled_from([math.inf, -math.inf])),
    min_size=1,
    max_size=12,
)


class TestScipyBytes:
    """The normal curves give ``scipy.stats.norm``'s bytes without importing it."""

    @settings(max_examples=150, deadline=None)
    @given(_means, _sds, _grids)
    def test_normal_cdf_series(self, mean, sd, grid):
        _, cdf = normal_cdf_series(mean, sd, grid)
        _same_bytes(cdf, sps.norm.cdf(np.asarray(grid), loc=mean, scale=sd))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(_means, _sds, st.floats(0.01, 10.0)), min_size=1, max_size=4),
        _grids,
    )
    def test_mixture_normal_cdf_series(self, components, grid):
        means, sds, weights = (np.array(column) for column in zip(*components))
        _, cdf = mixture_normal_cdf_series(means, sds, weights, grid)
        expected = np.zeros(len(grid))
        for mean, sd, weight in zip(means, sds, weights / weights.sum()):
            expected += weight * sps.norm.cdf(np.asarray(grid), loc=mean, scale=sd)
        _same_bytes(cdf, expected)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(-1e3, 1e3),
        st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=12),
        st.floats(0.01, 10.0),
    )
    def test_degenerate_kde_bump(self, value, grid, weight):
        grid = np.asarray(grid)
        # Two equal values have a standard deviation of exactly 0.
        _, density = kde_series(np.full(2, value), grid=grid, weight=weight)
        sd = max(1e-6, 0.01 * (grid[-1] - grid[0]))
        _same_bytes(density, weight * sps.norm.pdf(grid, loc=value, scale=sd))
