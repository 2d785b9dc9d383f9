"""Tests for SearchConfig validation."""

import pytest

from repro.errors import SearchError
from repro.search.config import SearchConfig


class TestDefaults:
    def test_paper_settings(self):
        config = SearchConfig()
        assert config.beam_width == 40
        assert config.max_depth == 4
        assert config.top_k == 150
        assert config.n_split_points == 4
        assert config.split_strategy == "percentile"


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beam_width": 0},
            {"max_depth": 0},
            {"top_k": 0},
            {"min_coverage": 1},
            {"max_coverage_fraction": 0.0},
            {"max_coverage_fraction": 1.5},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(SearchError):
            SearchConfig(**kwargs)

    def test_frozen(self):
        config = SearchConfig()
        with pytest.raises(AttributeError):
            config.beam_width = 10


class TestMaxSize:
    @pytest.mark.parametrize(
        "fraction, n_rows, expected",
        [(1.0, 10, 9), (0.5, 11, 5), (0.25, 8, 2), (0.75, 4, 3)],
    )
    def test_floor_of_the_fraction_below_the_full_data(self, fraction, n_rows, expected):
        config = SearchConfig(max_coverage_fraction=fraction)
        assert config.max_size(n_rows) == expected
