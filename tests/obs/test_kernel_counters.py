"""Which code path ran: IC kernel paths and linear-algebra fallbacks.

``sisd_ic_kernel_candidates_total{path}`` counts the rows each IC kernel
scored: one per distinct (parent extension, added condition) pair, so
as many as the location candidates when no two parents share an
extension, and fewer when some do.
``sisd_linalg_fallbacks_total{kind}`` counts every numerical fallback
taken on singular input, ``sisd_spread_searches_total{route}`` which
route each spread search took, ``sisd_spread_ascents_total{end}`` how
each spread-search ascent ended, ``sisd_spread_rows_total{kind}`` and
``sisd_spread_rounds_total`` what the searches evaluated, and
``sisd_spread_clamped_total`` how many searches mined a direction whose
IC reads the floor, so these questions are answerable from ``/metrics``
alone.
"""

import numpy as np
import pytest

from repro.datasets import make_mammals, make_socio, make_synthetic, make_water
from repro.engine.executor import ProcessExecutor, SerialExecutor
from repro.model.background import BackgroundModel
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
    SPREAD_ASCENT_ENDS,
    SPREAD_CLAMPED,
    SPREAD_ROUNDS,
    SPREAD_ROW_KINDS,
    SPREAD_SEARCH_ROUTES,
)
from repro.search import miner as miner_module
from repro.search import spread as spread_module
from repro.search.beam import LocationICScorer
from repro.search.config import SearchConfig
from repro.search.miner import SubgroupDiscovery
from repro.search.spread import SpreadObjective, find_spread_direction
from repro.utils.linalg import log_det_psd, solve_psd
from search.test_ascent_equivalence import MOVES, _ladder_counts, _run_reference

SINGULAR = np.array([[1.0, 1.0], [1.0, 1.0]])


def _paths():
    return {
        "uniform": IC_KERNEL_UNIFORM.value,
        "lowrank": IC_KERNEL_LOWRANK.value,
        "exact": IC_KERNEL_EXACT.value,
        "candidates": BEAM_CANDIDATES.value,
    }


def _ends():
    return {end: child.value for end, child in SPREAD_ASCENT_ENDS.items()}


def _mechanism():
    return {
        "value": SPREAD_ROW_KINDS["value"].value,
        "gradient": SPREAD_ROW_KINDS["gradient"].value,
        "rounds": SPREAD_ROUNDS.value,
    }


def _routes():
    return {route: child.value for route, child in SPREAD_SEARCH_ROUTES.items()}


def _delta(before, after):
    return {key: after[key] - before[key] for key in before}


@pytest.fixture(scope="module")
def socio_search():
    """A d = 5 spread search that takes the ascent route: socio's model,
    its first 40 rows, seed 7."""
    dataset = make_socio(0)
    return BackgroundModel.from_targets(dataset.targets), np.arange(40), dataset.targets


@pytest.fixture()
def outcomes(monkeypatch):
    """Every SpreadSearchOutcome the miner receives."""
    seen = []
    find = miner_module.find_spread_direction

    def recording(*args, **kwargs):
        seen.append(find(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(miner_module, "find_spread_direction", recording)
    return seen


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

    def test_each_level_is_scored_in_one_call(self, monkeypatch):
        """A three-step synthetic spread job at paper settings scores each
        of its 12 levels (10 to 60 rows) in one call, and its kernels score
        412 rows for its 460 candidates: 126 uniform and 286 low-rank."""
        calls = []
        score_sums = LocationICScorer.score_sums

        def counting(self, sums):
            calls.append(len(sums))
            return score_sums(self, sums)

        monkeypatch.setattr(LocationICScorer, "score_sums", counting)
        start = _paths()
        SubgroupDiscovery(make_synthetic(0), config=SearchConfig(), seed=0).run(3, kind="spread")
        assert len(calls) == 3 * SearchConfig().max_depth
        assert sum(calls) == 412
        assert _delta(start, _paths()) == {
            "uniform": 126,
            "lowrank": 286,
            "exact": 0,
            "candidates": 460,
        }

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


class TestSpreadAscentCounter:
    """How the spread search's ascents end, at seed 0 and paper settings.

    On mammals (d = 124) the capped ascent stops at its 300-iteration cap
    from 19 of the 20 starts of a 2-step job; on socio (d = 5) every
    ascent of a 2-step job ends in a failed line search. Synthetic (d = 2)
    takes the circle route and runs no ascent.
    """

    @pytest.mark.parametrize(
        ("make", "steps", "ends"),
        [
            (make_mammals, 2, {"converged": 0, "stalled": 1, "capped": 19}),
            (make_socio, 2, {"converged": 0, "stalled": 20, "capped": 0}),
        ],
        ids=["mammals", "socio"],
    )
    def test_ends_at_paper_settings(self, outcomes, make, steps, ends):
        before = _ends()
        SubgroupDiscovery(make(0), config=SearchConfig(), seed=0).run(steps, kind="spread")
        assert _delta(before, _ends()) == ends
        assert [outcome.n_starts for outcome in outcomes] == [10] * steps
        assert [outcome.route for outcome in outcomes] == ["ascent"] * steps
        assert sum(outcome.n_capped for outcome in outcomes) == ends["capped"]

    def test_synthetic_takes_the_circle_route(self, outcomes, monkeypatch):
        """Every row the circle route evaluates, batched or one at a time,
        is counted as a value row; it counts no ascent, gradient row or
        round."""
        rows = [0]
        evaluate = SpreadObjective._evaluate

        def counting(self, W):
            rows[0] += len(W)
            return evaluate(self, W)

        monkeypatch.setattr(SpreadObjective, "_evaluate", counting)
        before = (_ends(), _mechanism(), _routes())
        SubgroupDiscovery(make_synthetic(0), config=SearchConfig(), seed=0).run(3, kind="spread")
        ends, mechanism, routes = (
            _delta(*pair) for pair in zip(before, (_ends(), _mechanism(), _routes()))
        )
        assert [outcome.route for outcome in outcomes] == ["circle"] * 3
        assert [(o.n_starts, o.n_iterations, o.n_capped) for o in outcomes] == [(10, 0, 0)] * 3
        assert routes == {"line": 0, "circle": 3, "pairs": 0, "ascent": 0}
        assert ends == {"converged": 0, "stalled": 0, "capped": 0}
        # 64 grid angles and 10 starts per search, then the Brent calls.
        assert rows[0] > 3 * 74
        assert mechanism == {"value": rows[0], "gradient": 0, "rounds": 0}

    @pytest.mark.parametrize(
        "name, sparsity, route, grid_rows",
        [("crime", None, "line", 1), ("socio", 2, "pairs", 64 * 10)],
    )
    def test_line_and_pair_searches_count_their_rows(
        self, crime_dataset, socio_dataset, monkeypatch, name, sparsity, route, grid_rows
    ):
        """The one-dimensional search counts its one row, and the 2-sparse
        search its grid rows (64 angles on each of socio's 10 pairs) and
        Brent calls, as value rows; neither counts an ascent or a round."""
        dataset = crime_dataset if name == "crime" else socio_dataset
        rows = [0]
        evaluate = SpreadObjective._evaluate

        def counting(self, W):
            rows[0] += len(W)
            return evaluate(self, W)

        monkeypatch.setattr(SpreadObjective, "_evaluate", counting)
        model = BackgroundModel.from_targets(dataset.targets)
        before = (_ends(), _mechanism(), _routes())
        outcome = find_spread_direction(
            model, np.arange(40), dataset.targets, seed=7, sparsity=sparsity
        )
        ends, mechanism, routes = (
            _delta(*pair) for pair in zip(before, (_ends(), _mechanism(), _routes()))
        )
        assert outcome.route == route
        assert routes == {key: int(key == route) for key in routes}
        assert ends == {"converged": 0, "stalled": 0, "capped": 0}
        assert rows[0] >= grid_rows
        assert mechanism == {"value": rows[0], "gradient": 0, "rounds": 0}

    def test_ascents_in_process_workers_count_in_the_caller(self, socio_search):
        model, rows, targets = socio_search
        deltas = []
        for executor in (SerialExecutor(), ProcessExecutor(2)):
            before = _ends()
            try:
                outcome = find_spread_direction(model, rows, targets, seed=7, executor=executor)
            finally:
                executor.close()
            assert outcome.route == "ascent"
            deltas.append((_delta(before, _ends()), outcome.n_capped))
        assert deltas[0] == deltas[1]
        assert sum(deltas[0][0].values()) == 10

    def test_family_renders_with_every_end(self):
        text = METRICS.render()
        for end in ("converged", "stalled", "capped"):
            assert f'sisd_spread_ascents_total{{end="{end}"}}' in text


class TestSpreadMechanismCounters:
    """What the lockstep ascents evaluated, against the reference ascent.

    The ascent equivalence test derives, from the trace of a verbatim
    one-start ascent, the value rows and rounds that the lockstep
    ascent's ladders take; the gradient rows are the iterations begun. A
    search adds exactly those counts over its chunks of starts, whichever
    backend ran the chunks.
    """

    @pytest.mark.parametrize(
        "make_executor", [SerialExecutor, lambda: ProcessExecutor(2)], ids=["serial", "process"]
    )
    def test_an_ascent_search_counts_what_the_reference_derives(
        self, monkeypatch, socio_search, make_executor
    ):
        model, rows, targets = socio_search
        chunks = []
        split = spread_module._chunks

        def recording(items, n_chunks):
            chunks.extend(split(items, n_chunks))
            return chunks

        monkeypatch.setattr(spread_module, "_chunks", recording)
        executor = make_executor()
        before = _mechanism()
        try:
            find_spread_direction(model, rows, targets, seed=7, executor=executor)
        finally:
            executor.close()
        delta = _delta(before, _mechanism())

        objective = SpreadObjective(model, rows, targets)
        blocks = (objective.counts, objective.block_covs, objective.empirical_cov)
        expected = {"value": 0, "gradient": 0, "rounds": 0}
        assert len(chunks) == executor.parallelism
        for chunk in chunks:
            rounds = [0]
            for start in chunk:
                (_, _, iterations), trace = _run_reference(
                    blocks, start, max_iterations=300, tol=1e-9
                )
                rows, start_rounds = _ladder_counts(trace, list(MOVES))
                expected["value"] += rows
                expected["gradient"] += iterations
                rounds.append(start_rounds)
            # One row per start and one round for the starts, per chunk.
            expected["value"] += len(chunk)
            expected["rounds"] += 1 + max(rounds)
        assert delta == expected

    def test_families_render(self):
        text = METRICS.render()
        for kind in ("value", "gradient"):
            assert f'sisd_spread_rows_total{{kind="{kind}"}}' in text
        for route in ("line", "circle", "pairs", "ascent"):
            assert f'sisd_spread_searches_total{{route="{route}"}}' in text
        assert "sisd_spread_rounds_total" in text
        assert "sisd_spread_clamped_total" in text


class TestSpreadClampCounter:
    """Which spread searches mine a direction whose IC reads the floor.

    At seed 0 and paper settings, mammals step 2 mines the spread of
    ``rain_warmest_quarter <= 104.502`` (444 rows). Its direction sits on
    two species columns, one present in every row and one in none, so
    the subgroup's variance along it is rounding noise and the
    standardized statistic (v - beta) / alpha is about 9.4e-13, under
    ``_TINY``: the search is clamped, at one BLAS thread and at two. No
    other step of mammals, synthetic, water or socio is.
    """

    @pytest.mark.parametrize(
        ("make", "clamped"),
        [
            (make_mammals, [False, True]),
            (make_synthetic, [False, False, False]),
            (make_water, [False, False]),
            (make_socio, [False, False]),
        ],
        ids=["mammals", "synthetic", "water", "socio"],
    )
    def test_clamped_searches_at_paper_settings(self, outcomes, make, clamped):
        before = SPREAD_CLAMPED.value
        SubgroupDiscovery(make(0), config=SearchConfig(), seed=0).run(len(clamped), kind="spread")
        assert [outcome.clamped for outcome in outcomes] == clamped
        assert SPREAD_CLAMPED.value - before == sum(clamped)

