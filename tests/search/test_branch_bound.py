"""Tests for the branch-and-bound optimal location search."""

import numpy as np
import pytest

from repro.datasets.schema import AttributeKind, Column, Dataset
from repro.errors import SearchError
from repro.interest.dl import DLParams
from repro.lang.refinement import RefinementOperator
from repro.model.background import BackgroundModel
from repro.model.patterns import LocationConstraint
from repro.search.branch_bound import (
    BranchAndBoundLocationSearch,
    find_optimal_location,
)
from repro.search.beam import LocationBeamSearch, LocationICScorer
from repro.search.config import SearchConfig


@pytest.fixture()
def small_dataset(rng):
    """Small single-target dataset with a planted subgroup."""
    n = 120
    targets = rng.standard_normal(n)
    flag = np.zeros(n)
    flag[:25] = 1.0
    targets[:25] += 2.0
    order = rng.permutation(n)
    columns = [
        Column("flag", AttributeKind.BINARY, flag[order]),
        Column("num", AttributeKind.NUMERIC, rng.standard_normal(n)),
        Column("cat", AttributeKind.CATEGORICAL, rng.choice(["a", "b"], n)),
    ]
    return Dataset("small", columns, targets[order], ["y"])


def make_search(dataset, **config_kwargs):
    config = SearchConfig(**config_kwargs)
    model = BackgroundModel.from_targets(dataset.targets)
    operator = RefinementOperator(dataset)
    return BranchAndBoundLocationSearch(
        operator, model, dataset.targets, config=config
    )


class TestOptimisticBound:
    def test_bound_dominates_sampled_subsets(self, small_dataset, rng):
        search = make_search(small_dataset)
        mask = np.ones(small_dataset.n_rows, dtype=bool)
        bound = search.optimistic_ic(mask)
        values = small_dataset.targets[:, 0]
        for _ in range(200):
            k = int(rng.integers(2, small_dataset.n_rows - 1))
            subset = rng.choice(small_dataset.n_rows, size=k, replace=False)
            ic = search._ic_of(k, float(values[subset].mean()))
            assert ic <= bound + 1e-9

    def test_bound_attained_by_extreme_prefix(self, small_dataset):
        """The bound equals the best prefix/suffix IC by construction."""
        search = make_search(small_dataset)
        mask = np.ones(small_dataset.n_rows, dtype=bool)
        bound = search.optimistic_ic(mask)
        values = np.sort(small_dataset.targets[:, 0])
        best = -np.inf
        for k in range(2, small_dataset.n_rows):
            best = max(
                best,
                search._ic_of(k, float(values[:k].mean())),
                search._ic_of(k, float(values[-k:].mean())),
            )
        assert bound == pytest.approx(best, rel=1e-12)

    def test_fresh_search_bounds_under_its_config(self, small_dataset):
        """``optimistic_ic`` needs no ``run()`` and honours the size cap."""
        search = make_search(small_dataset, max_coverage_fraction=0.5)
        bound = search.optimistic_ic(np.ones(small_dataset.n_rows, dtype=bool))
        values = np.sort(small_dataset.targets[:, 0])
        best = max(
            max(
                search._ic_of(k, float(values[:k].mean())),
                search._ic_of(k, float(values[-k:].mean())),
            )
            for k in range(2, small_dataset.n_rows // 2 + 1)
        )
        assert bound == pytest.approx(best, rel=1e-12)

    def test_bound_monotone_under_restriction(self, small_dataset, rng):
        """Shrinking the candidate set cannot raise the bound."""
        search = make_search(small_dataset)
        full = np.ones(small_dataset.n_rows, dtype=bool)
        sub = rng.random(small_dataset.n_rows) < 0.5
        sub[:5] = True  # keep it non-trivial
        assert search.optimistic_ic(sub) <= search.optimistic_ic(full) + 1e-9


class TestOptimality:
    def test_matches_exhaustive_search(self, small_dataset):
        """With pruning disabled by construction (incumbent = -inf until
        found), B&B explores what exhaustive DFS explores; its best must
        match a brute-force enumeration of the language."""
        config = SearchConfig(max_depth=2, min_coverage=2)
        result = make_search(small_dataset, max_depth=2).run()

        # Brute force: score every canonical description up to depth 2.
        operator = RefinementOperator(small_dataset)
        model = BackgroundModel.from_targets(small_dataset.targets)
        values = small_dataset.targets[:, 0]
        mu = float(model.block_mean(0)[0])
        s2 = float(model.block_cov(0)[0, 0])
        best_si = -np.inf
        seen = set()
        from repro.interest.dl import description_length
        from repro.lang.description import Description

        frontier = [Description()]
        for _depth in range(2):
            next_frontier = []
            for parent in frontier:
                for refined, _ in operator.refinements(parent):
                    if refined in seen:
                        continue
                    seen.add(refined)
                    mask = operator.extension_mask(refined)
                    size = int(mask.sum())
                    if size < 2 or size > small_dataset.n_rows - 1:
                        continue
                    mean = float(values[mask].mean())
                    ic = 0.5 * (
                        np.log(2 * np.pi * s2 / size)
                        + size * (mean - mu) ** 2 / s2
                    )
                    si = ic / description_length(len(refined))
                    best_si = max(best_si, si)
                    next_frontier.append(refined)
            frontier = next_frontier
        assert result.best.si == pytest.approx(best_si, rel=1e-9)

    def test_at_least_as_good_as_beam(self, small_dataset):
        bb = make_search(small_dataset, max_depth=3).run()
        model = BackgroundModel.from_targets(small_dataset.targets)
        beam = LocationBeamSearch(
            RefinementOperator(small_dataset),
            LocationICScorer(model, small_dataset.targets),
            config=SearchConfig(max_depth=3),
        ).run()
        assert bb.best.si >= beam.best.si - 1e-9

    def test_finds_planted_flag(self, small_dataset):
        result = make_search(small_dataset, max_depth=2).run()
        assert str(result.best.description) == "flag = '1'"


class TestPruning:
    def test_pruning_happens(self, small_dataset):
        search = make_search(small_dataset, max_depth=3)
        search.run()
        assert search.stats.nodes_pruned > 0

    def test_pruning_does_not_change_optimum(self, small_dataset):
        """Same optimum at depth 3 as an unpruned exhaustive beam with
        enormous width (which cannot prune)."""
        bb = make_search(small_dataset, max_depth=3).run()
        model = BackgroundModel.from_targets(small_dataset.targets)
        wide = LocationBeamSearch(
            RefinementOperator(small_dataset),
            LocationICScorer(model, small_dataset.targets),
            config=SearchConfig(beam_width=10_000, max_depth=3),
        ).run()
        assert bb.best.si == pytest.approx(wide.best.si, rel=1e-9)


class TestValidation:
    def test_requires_single_target_model(self, rng):
        targets = rng.standard_normal((30, 2))
        model = BackgroundModel.from_targets(targets)
        columns = [Column("b", AttributeKind.BINARY, rng.integers(0, 2, 30).astype(float))]
        dataset = Dataset("d", columns, targets, ["y1", "y2"])
        with pytest.raises(SearchError, match="single target|1-D"):
            BranchAndBoundLocationSearch(
                RefinementOperator(dataset), model, targets
            )

    def test_requires_fresh_model(self, small_dataset):
        model = BackgroundModel.from_targets(small_dataset.targets)
        model.assimilate(
            LocationConstraint.from_data(small_dataset.targets, np.arange(5))
        )
        with pytest.raises(SearchError, match="fresh"):
            BranchAndBoundLocationSearch(
                RefinementOperator(small_dataset), model, small_dataset.targets
            )

    def test_time_budget_returns_incumbent(self, small_dataset):
        result = make_search(small_dataset, time_budget_seconds=0.0).run()
        assert result.expired


class TestConvenienceWrapper:
    def test_on_crime_named_attributes(self, crime_dataset):
        config = SearchConfig(
            max_depth=2,
            attributes=["pct_illeg", "pct_poverty", "med_income"],
        )
        result = find_optimal_location(crime_dataset, config=config)
        assert result.best is not None
        assert "pct_illeg" in str(result.best.description)

    def test_multi_target_requires_name(self, socio_dataset):
        with pytest.raises(SearchError, match="target"):
            find_optimal_location(socio_dataset)

    def test_multi_target_with_name(self, socio_dataset):
        config = SearchConfig(max_depth=1)
        result = find_optimal_location(
            socio_dataset, target="left_2009", config=config
        )
        assert result.best is not None
