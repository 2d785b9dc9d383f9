"""Tests for the location beam search and its batched scorer."""

import numpy as np
import pytest

from repro.datasets.schema import AttributeKind, Column, Dataset
from repro.errors import SearchError
from repro.events import EventLog
from repro.interest.ic import location_ic
from repro.lang.description import Description
from repro.lang.refinement import RefinementOperator
from repro.model.background import BackgroundModel
from repro.model.patterns import SpreadConstraint
from repro.obs.instruments import (
    BEAM_CANDIDATES,
    BEAM_DROPPED_COVERAGE,
    BEAM_DROPPED_DUPLICATE,
    BEAM_PARENT_EXTENSIONS,
    IC_KERNEL_EXACT,
    IC_KERNEL_LOWRANK,
    IC_KERNEL_UNIFORM,
)
from repro.search.beam import LocationBeamSearch, LocationICScorer
from repro.search.config import SearchConfig
from repro.stats.statistics import subgroup_mean


@pytest.fixture()
def planted(rng):
    """40 of 200 rows displaced, labelled by a binary flag + noise attrs."""
    n = 200
    targets = rng.standard_normal((n, 2))
    flag = np.zeros(n)
    flag[:40] = 1.0
    targets[:40] += 2.5
    order = rng.permutation(n)
    targets, flag = targets[order], flag[order]
    columns = [
        Column("flag", AttributeKind.BINARY, flag),
        Column("noise_num", AttributeKind.NUMERIC, rng.standard_normal(n)),
        Column("noise_bin", AttributeKind.BINARY, rng.integers(0, 2, n).astype(float)),
    ]
    dataset = Dataset("planted", columns, targets, ["y1", "y2"])
    model = BackgroundModel.from_targets(targets)
    return dataset, model


class TestLocationICScorer:
    def test_matches_reference_ic(self, planted):
        dataset, model = planted
        scorer = LocationICScorer(model, dataset.targets)
        mask = dataset.column("flag").values == 1.0
        ic, observed = scorer.score_mask(mask)
        assert ic == pytest.approx(
            location_ic(model, mask, subgroup_mean(dataset.targets, mask)),
            rel=1e-9,
        )
        np.testing.assert_allclose(observed, subgroup_mean(dataset.targets, mask))

    def test_batch_matches_single(self, planted, rng):
        dataset, model = planted
        scorer = LocationICScorer(model, dataset.targets)
        masks = np.stack([rng.random(200) < 0.3 for _ in range(5)])
        ics, means = scorer.score_masks(masks)
        for k in range(5):
            ic, mean = scorer.score_mask(masks[k])
            assert ics[k] == pytest.approx(ic, rel=1e-12)
            np.testing.assert_allclose(means[k], mean)

    def test_multiblock_path_matches_reference(self, planted, rng):
        """After a spread update the covariances differ per block; the
        scorer must leave the uniform fast path and still agree with
        location_ic."""
        dataset, model = planted
        mask = dataset.column("flag").values == 1.0
        w = np.array([1.0, 0.0])
        model.assimilate(SpreadConstraint.from_data(dataset.targets, mask, w))
        scorer = LocationICScorer(model, dataset.targets)
        assert not scorer._uniform_cov
        probe = rng.random(200) < 0.4
        ic, _ = scorer.score_mask(probe)
        assert ic == pytest.approx(
            location_ic(model, probe, subgroup_mean(dataset.targets, probe)),
            rel=1e-9,
        )

    def test_empty_mask_rejected(self, planted):
        dataset, model = planted
        scorer = LocationICScorer(model, dataset.targets)
        with pytest.raises(SearchError, match="empty"):
            scorer.score_mask(np.zeros(200, dtype=bool))

    def test_shape_mismatch(self, planted, rng):
        dataset, model = planted
        with pytest.raises(SearchError, match="shape"):
            LocationICScorer(model, rng.standard_normal((7, 2)))


class TestLocationBeamSearch:
    def search(self, planted, **config_kwargs):
        dataset, model = planted
        operator = RefinementOperator(dataset)
        scorer = LocationICScorer(model, dataset.targets)
        config = SearchConfig(**config_kwargs)
        return LocationBeamSearch(operator, scorer, config=config).run()

    def test_finds_planted_flag(self, planted):
        result = self.search(planted)
        assert result.best is not None
        assert str(result.best.description) == "flag = '1'"
        assert result.best.size == 40

    def test_log_sorted_by_si(self, planted):
        result = self.search(planted)
        sis = [entry.si for entry in result.log]
        assert sis == sorted(sis, reverse=True)

    def test_log_capped_at_top_k(self, planted):
        result = self.search(planted, top_k=5)
        assert len(result.log) == 5

    def test_no_duplicate_descriptions_in_log(self, planted):
        result = self.search(planted)
        descriptions = [entry.description for entry in result.log]
        assert len(descriptions) == len(set(descriptions))

    def test_depth_one_only_single_conditions(self, planted):
        result = self.search(planted, max_depth=1)
        assert all(len(entry.description) == 1 for entry in result.log)
        assert result.depth_reached == 1

    def test_min_coverage_respected(self, planted):
        result = self.search(planted, min_coverage=50)
        assert all(entry.size >= 50 for entry in result.log)

    def test_max_coverage_respected(self, planted):
        result = self.search(planted, max_coverage_fraction=0.3)
        assert all(entry.size <= 60 for entry in result.log)

    def test_expired_budget_short_circuits(self, planted):
        result = self.search(planted, time_budget_seconds=0.0)
        assert result.expired
        assert result.best is None

    def test_beam_width_one_still_finds_strong_pattern(self, planted):
        result = self.search(planted, beam_width=1)
        assert result.best is not None
        assert str(result.best.description) == "flag = '1'"

    def test_n_evaluated_counts(self, planted):
        result = self.search(planted, max_depth=1)
        # flag: 2 conditions, noise_bin: 2, noise_num: 8 -> 12 candidates.
        assert result.n_evaluated == 12


def _reference_generation(operator, recorded, config, n_rows):
    """Descriptions in generation order, rebuilt with ``refinements()``.

    Replays the level-wise loop — parents in beam order, refinements in
    pool order, ``seen`` marked before the coverage filter — choosing
    each next beam from the recorded SIs (best first, generation order
    among ties).
    """
    max_size = min(int(config.max_coverage_fraction * n_rows), n_rows - 1)
    beam = [(Description(), np.ones(n_rows, dtype=bool))]
    seen = set()
    order = []
    for _ in range(config.max_depth):
        level = []
        for parent, parent_mask in beam:
            for refined, condition in operator.refinements(parent):
                if refined in seen:
                    continue
                seen.add(refined)
                mask = parent_mask & operator.mask_of(condition)
                if config.min_coverage <= mask.sum() <= max_size:
                    level.append((refined, mask))
        if not level:
            break
        sis = [entry.si for entry in recorded[len(order) : len(order) + len(level)]]
        order.extend(description for description, _ in level)
        ranking = sorted(range(len(level)), key=lambda i: -sis[i])
        beam = [level[i] for i in ranking[: config.beam_width]]
    return order


class TestObservedSearch:
    @pytest.mark.parametrize("top_k, beam_width", [(3, 8), (25, 4)])
    def test_observer_sees_every_candidate_and_changes_nothing(
        self, planted, top_k, beam_width
    ):
        dataset, model = planted
        config = SearchConfig(top_k=top_k, beam_width=beam_width, max_depth=3)

        def run(observer=None):
            return LocationBeamSearch(
                RefinementOperator(dataset),
                LocationICScorer(model, dataset.targets),
                config=config,
                observer=observer,
            ).run()

        plain = run()
        recorder = EventLog()
        observed = run(recorder)

        assert (observed.n_evaluated, observed.depth_reached, observed.expired) == (
            plain.n_evaluated,
            plain.depth_reached,
            plain.expired,
        )
        assert len(observed.log) == len(plain.log) == top_k
        for ours, theirs in zip(observed.log, plain.log):
            assert ours.description == theirs.description
            assert ours.si == theirs.si
            assert ours.score == theirs.score
            np.testing.assert_array_equal(ours.indices, theirs.indices)
            np.testing.assert_array_equal(ours.observed_mean, theirs.observed_mean)

        assert len(recorder.candidates) == observed.n_evaluated
        expected = _reference_generation(
            RefinementOperator(dataset), recorder.candidates, config, dataset.n_rows
        )
        assert [c.description for c in recorder.candidates] == expected


class TestDroppedCounter:
    @staticmethod
    def _counts():
        return (
            BEAM_CANDIDATES.value,
            BEAM_DROPPED_DUPLICATE.value,
            BEAM_DROPPED_COVERAGE.value,
        )

    def _run(self, planted, **config_kwargs):
        dataset, model = planted
        before = self._counts()
        LocationBeamSearch(
            RefinementOperator(dataset),
            LocationICScorer(model, dataset.targets),
            config=SearchConfig(**config_kwargs),
        ).run()
        return [after - b for after, b in zip(self._counts(), before)]

    def test_depth_one_accounts_for_every_admissible_refinement(self, planted):
        dataset, _ = planted
        admissible = len(list(RefinementOperator(dataset).refinements(Description())))
        candidates, duplicates, coverage = self._run(
            planted, max_depth=1, min_coverage=60
        )
        assert coverage > 0
        assert duplicates == 0
        assert candidates + duplicates + coverage == admissible

    def test_depth_two_drops_duplicates(self, planted):
        _, duplicates, _ = self._run(planted, max_depth=2)
        assert duplicates > 0


@pytest.fixture()
def twins(rng):
    """Rows with large ``x`` displaced; ``x_copy`` is an exact copy of ``x``.

    ``x >= t`` and ``x_copy >= t`` tie, so both enter the beam, and their
    refinements by one condition share an extension.
    """
    n = 200
    x = rng.uniform(0, 1, n)
    targets = rng.standard_normal((n, 2))
    targets[x > 0.7] += 2.0
    columns = [
        Column("x", AttributeKind.NUMERIC, x),
        Column("x_copy", AttributeKind.NUMERIC, x.copy()),
        Column("noise_num", AttributeKind.NUMERIC, rng.standard_normal(n)),
        Column("noise_bin", AttributeKind.BINARY, rng.integers(0, 2, n).astype(float)),
    ]
    dataset = Dataset("twins", columns, targets, ["y1", "y2"])
    return dataset, BackgroundModel.from_targets(targets)


class TestSharedExtensions:
    @staticmethod
    def _counts():
        kernel = IC_KERNEL_UNIFORM.value + IC_KERNEL_LOWRANK.value + IC_KERNEL_EXACT.value
        return BEAM_CANDIDATES.value, kernel, BEAM_PARENT_EXTENSIONS.value

    def test_candidates_of_one_extension_share_one_ic(self, twins):
        dataset, model = twins
        operator = RefinementOperator(dataset)
        parents = []
        expand = operator.expand

        def counting(beam, seen, **kwargs):
            parents.append(len(beam))
            return expand(beam, seen, **kwargs)

        operator.expand = counting
        scorer = LocationICScorer(model, dataset.targets)
        recorder = EventLog()
        before = self._counts()
        result = LocationBeamSearch(
            operator,
            scorer,
            config=SearchConfig(beam_width=8, max_depth=3, top_k=10),
            observer=recorder,
        ).run()
        candidates, kernel_rows, extensions = (
            after - b for after, b in zip(self._counts(), before)
        )

        assert len(recorder.candidates) == result.n_evaluated == candidates
        masks = np.zeros((len(recorder.candidates), dataset.n_rows), dtype=bool)
        for mask, entry in zip(masks, recorder.candidates):
            mask[entry.indices] = True
        ref_ics, ref_observed = scorer.score_masks(masks)
        ics = np.array([entry.score.ic for entry in recorder.candidates])
        observed = np.array([entry.observed_mean for entry in recorder.candidates])
        assert np.all(np.abs(ics - ref_ics) <= 1e-12 * np.maximum(1.0, np.abs(ref_ics)))
        assert np.all(
            np.abs(observed - ref_observed) <= 1e-12 * np.maximum(1.0, np.abs(ref_observed))
        )
        assert kernel_rows < candidates
        assert extensions < sum(parents)
