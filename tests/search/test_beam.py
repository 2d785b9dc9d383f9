"""Tests for the location beam search and its batched scorer."""

import io
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.crime import make_crime
from repro.datasets.schema import AttributeKind, Column, Dataset
from repro.errors import SearchError
from repro.events import EventLog, MiningObserver
from repro.interest.ic import location_ic
from repro.lang.description import Description
from repro.lang.refinement import RefinementOperator
from repro.model.background import BackgroundModel
from repro.model.patterns import SpreadConstraint
from repro.obs import clock
from repro.obs.instruments import (
    BEAM_CANDIDATES,
    BEAM_DROPPED_COVERAGE,
    BEAM_DROPPED_DUPLICATE,
    BEAM_PARENT_EXTENSIONS,
    IC_KERNEL_EXACT,
    IC_KERNEL_LOWRANK,
    IC_KERNEL_UNIFORM,
)
from repro.report.live import LiveReporter
from repro.search.beam import LocationBeamSearch, LocationICScorer, _best_first
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


def _reference_generation(operator, sis, config, n_rows):
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
        level_sis = sis[len(order) : len(order) + len(level)]
        order.extend(description for description, _ in level)
        ranking = sorted(range(len(level)), key=lambda i: -level_sis[i])
        beam = [level[i] for i in ranking[: config.beam_width]]
    return order


def _decode(operator, batches):
    """The descriptions of every batch's candidates, through the operator's pool."""
    by_text = {str(condition): condition for condition in operator.conditions}
    assert len(by_text) == len(set(operator.conditions)), "condition texts collide"
    return [
        Description(tuple(by_text[part] for part in text.split(" AND ")))
        for batch in batches
        for text in batch.descriptions()
    ]


def _column(batches, name):
    """One column of every batch, concatenated in arrival order."""
    return np.concatenate([getattr(batch, name) for batch in batches])


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

        assert len(recorder.candidates) == observed.depth_reached
        assert len(_column(recorder.candidates, "si")) == observed.n_evaluated
        operator = RefinementOperator(dataset)
        expected = _reference_generation(
            operator, _column(recorder.candidates, "si"), config, dataset.n_rows
        )
        assert _decode(operator, recorder.candidates) == expected


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


@pytest.fixture(scope="module")
def crime():
    dataset = make_crime(0)
    return dataset, RefinementOperator(dataset)


class TestDedupAtScale:
    """Crime's levels hold ~38,800 refinements each, hundreds of them
    duplicates; the counts of a whole search and its winner are pinned."""

    @pytest.mark.parametrize(
        ("config", "counts"),
        [
            (SearchConfig(), (114_596, 2_053, 479)),
            # Its depth-7 level expands 6-condition parents, whose
            # children's codes pass 63 bits.
            (SearchConfig(beam_width=5, max_depth=7), (29_601, 136, 176)),
        ],
    )
    def test_crime_counts_and_winner(self, crime, config, counts):
        dataset, operator = crime
        before = TestDroppedCounter._counts()
        result = LocationBeamSearch(
            operator,
            LocationICScorer(BackgroundModel.from_targets(dataset.targets), dataset.targets),
            config=config,
        ).run()
        candidates, duplicates, coverage = (
            after - b for after, b in zip(TestDroppedCounter._counts(), before)
        )
        assert (result.n_evaluated, duplicates, coverage) == counts
        assert candidates == result.n_evaluated
        assert result.depth_reached == config.max_depth
        assert str(result.best.description) == "pct_illeg >= 0.384248"
        assert result.best.si == pytest.approx(352.9916773006406, rel=1e-12)


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

        ics = _column(recorder.candidates, "ic")
        assert len(ics) == result.n_evaluated == candidates
        masks = np.array(
            [
                operator.extension_mask(description)
                for description in _decode(operator, recorder.candidates)
            ]
        )
        ref_ics, _ = scorer.score_masks(masks)
        assert np.all(np.abs(ics - ref_ics) <= 1e-12 * np.maximum(1.0, np.abs(ref_ics)))
        np.testing.assert_array_equal(
            _column(recorder.candidates, "sizes"), masks.sum(axis=1)
        )
        # A batch carries no means; the logged entries do.
        log_masks = np.zeros((len(result.log), dataset.n_rows), dtype=bool)
        for mask, entry in zip(log_masks, result.log):
            mask[entry.indices] = True
        _, ref_observed = scorer.score_masks(log_masks)
        observed = np.array([entry.observed_mean for entry in result.log])
        assert np.all(
            np.abs(observed - ref_observed) <= 1e-12 * np.maximum(1.0, np.abs(ref_observed))
        )
        assert kernel_rows < candidates
        assert extensions < sum(parents)


#: Few distinct scores, so that draws tie heavily, across the cut too;
#: with both zeros and every non-finite value.
_TIED_SCORES = [-math.inf, -1.5, -0.0, 0.0, 0.25, 2.0, math.inf, math.nan]


class TestBestFirst:
    """Merge's partial ranking against the full stable sort it replaces."""

    @given(
        scores=st.lists(
            st.one_of(st.sampled_from(_TIED_SCORES), st.floats()), max_size=400
        ),
        k=st.integers(1, 420),
    )
    def test_equals_the_stable_argsort_prefix(self, scores, k):
        scores = np.array(scores, dtype=float)
        np.testing.assert_array_equal(
            _best_first(scores, k), np.argsort(-scores, kind="stable")[:k]
        )


def _log_from_batches(batches, top_k):
    """Rows of a stable descending top-``top_k`` over every batch's SI."""
    if not batches:
        return np.empty(0), []
    si = _column(batches, "si")
    order = np.argsort(-si, kind="stable")[:top_k]
    texts = [text for batch in batches for text in batch.descriptions()]
    return si[order], [texts[i] for i in order]


def _assert_log_is_batch_top_k(result, batches, top_k):
    si, texts = _log_from_batches(batches, top_k)
    assert len(result.log) == len(si)
    assert np.array([entry.si for entry in result.log]).tobytes() == si.tobytes()
    assert [str(entry.description) for entry in result.log] == texts
    if len(si):
        assert result.best is result.log[0]


@st.composite
def _tied_search(draw):
    """A small dataset whose copied columns make candidates tie, and a config."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 48
    flag = rng.integers(0, 2, n).astype(float)
    x = rng.choice([0.0, 1.0, 2.0, 3.0, 4.0], n)
    columns = [
        Column("flag", AttributeKind.BINARY, flag),
        Column("flag_copy", AttributeKind.BINARY, flag.copy()),
        Column("x", AttributeKind.ORDINAL, x),
        Column("x_copy", AttributeKind.ORDINAL, x.copy()),
        Column("noise", AttributeKind.NUMERIC, rng.standard_normal(n)),
    ]
    targets = rng.standard_normal((n, draw(st.integers(1, 2))))
    targets[flag == 1.0] += draw(st.floats(0.0, 2.0))
    dataset = Dataset("tied", columns, targets, [f"y{i}" for i in range(targets.shape[1])])
    config = SearchConfig(
        beam_width=draw(st.integers(1, 6)),
        max_depth=draw(st.integers(1, 3)),
        top_k=draw(st.integers(1, 80)),
        min_coverage=draw(st.integers(2, 6)),
    )
    return dataset, config


class TestColumnarLog:
    """The log is a stable top-k over the batches' SIs, whatever the draw."""

    @given(case=_tied_search())
    @settings(max_examples=40, deadline=None)
    def test_log_is_the_stable_top_k_of_the_batches(self, case):
        dataset, config = case
        recorder = EventLog()
        result = LocationBeamSearch(
            RefinementOperator(dataset),
            LocationICScorer(BackgroundModel.from_targets(dataset.targets), dataset.targets),
            config=config,
            observer=recorder,
        ).run()
        assert len(recorder.candidates) == result.depth_reached
        _assert_log_is_batch_top_k(result, recorder.candidates, config.top_k)

    def test_ties_keep_level_then_generation_order(self, twins):
        dataset, model = twins
        recorder = EventLog()
        result = LocationBeamSearch(
            RefinementOperator(dataset),
            LocationICScorer(model, dataset.targets),
            config=SearchConfig(beam_width=8, max_depth=3, top_k=40),
            observer=recorder,
        ).run()
        sis = [entry.si for entry in result.log]
        assert len(set(sis)) < len(sis), "the twins should tie"
        _assert_log_is_batch_top_k(result, recorder.candidates, 40)

    def test_top_k_past_the_candidate_count_logs_every_candidate(self, planted):
        dataset, model = planted
        recorder = EventLog()
        result = LocationBeamSearch(
            RefinementOperator(dataset),
            LocationICScorer(model, dataset.targets),
            config=SearchConfig(max_depth=1, top_k=500),
            observer=recorder,
        ).run()
        assert len(result.log) == result.n_evaluated == 12
        _assert_log_is_batch_top_k(result, recorder.candidates, 500)

    def test_an_expired_budget_keeps_the_levels_merged_so_far(self, planted):
        dataset, model = planted

        class Expire(MiningObserver):
            def __init__(self, advance):
                self.advance = advance
                self.batches = []

            def on_candidates(self, batch):
                self.batches.append(batch)
                self.advance(10.0)

        with clock.fixed() as advance:
            observer = Expire(advance)
            result = LocationBeamSearch(
                RefinementOperator(dataset),
                LocationICScorer(model, dataset.targets),
                config=SearchConfig(top_k=5, time_budget_seconds=5.0),
                observer=observer,
            ).run()
        assert result.expired and result.depth_reached == 1
        assert len(observer.batches) == 1
        _assert_log_is_batch_top_k(result, observer.batches, 5)

    def test_an_empty_search_has_no_best_and_an_empty_log(self, planted):
        dataset, model = planted
        result = LocationBeamSearch(
            RefinementOperator(dataset),
            LocationICScorer(model, dataset.targets),
            config=SearchConfig(time_budget_seconds=0.0),
            observer=EventLog(),
        ).run()
        assert result.best is None
        assert len(result.log) == 0 and result.log == () and list(result.log) == []

    def test_reading_the_log_builds_it_once_and_leaves_best_alone(self, planted):
        dataset, model = planted
        result = LocationBeamSearch(
            RefinementOperator(dataset),
            LocationICScorer(model, dataset.targets),
            config=SearchConfig(top_k=20),
        ).run()
        best = result.best
        snapshot = (best.description, best.indices.copy(), best.observed_mean.copy(), best.score)
        first, second = list(result.log), list(result.log)
        assert len(first) == len(result.log) == 20
        assert all(a is b for a, b in zip(first, second))
        assert result.log == tuple(first) and result.log[:3] == tuple(first[:3])
        assert result.best is best is result.log[0]
        assert (best.description, best.score) == (snapshot[0], snapshot[3])
        np.testing.assert_array_equal(best.indices, snapshot[1])
        np.testing.assert_array_equal(best.observed_mean, snapshot[2])
        assert pickle.loads(pickle.dumps(result.log))[5].si == first[5].si

    def test_live_reporter_lines_are_the_entries_text(self, planted):
        dataset, model = planted
        stream = io.StringIO()
        result = LocationBeamSearch(
            RefinementOperator(dataset),
            LocationICScorer(model, dataset.targets),
            config=SearchConfig(max_depth=2, top_k=1000),
            observer=LiveReporter(stream, candidates=True),
        ).run()
        lines = stream.getvalue().splitlines()
        assert len(lines) == len(result.log) == result.n_evaluated
        assert sorted(lines) == sorted(f"  ? {entry}" for entry in result.log)
