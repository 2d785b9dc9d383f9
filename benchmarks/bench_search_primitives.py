"""Micro-benchmarks of the search primitives.

The batched candidate scorer is the beam search's inner loop; one
``RefinementOperator.expand`` is its candidate generation for a whole
level; the spread objective's value-and-gradient is the sphere
optimizer's, and one ``find_spread_direction`` is a whole spread search:
ten ascents, capped, on mammals (d_y=124), and the circle scan on
synthetic (d_y=2).
"""

import numpy as np
import pytest

from repro.datasets.crime import make_crime
from repro.datasets.mammals import make_mammals
from repro.datasets.synthetic import make_synthetic
from repro.datasets.water import make_water
from repro.lang.refinement import RefinementOperator
from repro.model.background import BackgroundModel
from repro.search.beam import LocationBeamSearch, LocationICScorer
from repro.search.config import SearchConfig
from repro.search.spread import SpreadObjective, find_spread_direction


@pytest.fixture(scope="module")
def mammal_scorer():
    dataset = make_mammals(0)
    model = BackgroundModel.from_targets(dataset.targets)
    scorer = LocationICScorer(model, dataset.targets)
    rng = np.random.default_rng(0)
    masks = np.stack([rng.random(dataset.n_rows) < 0.2 for _ in range(256)])
    return scorer, masks


def bench_batched_scoring_256_candidates(benchmark, mammal_scorer):
    """256 subgroup ICs on the mammals data (n=2220, d_y=124)."""
    scorer, masks = mammal_scorer
    benchmark(lambda: scorer.score_masks(masks))


@pytest.fixture(scope="module")
def crime_level():
    """The operator, parents, ``seen`` set and arguments of the third
    ``expand`` of a paper-settings (beam 40) location search on crime."""
    dataset = make_crime(0)
    operator = RefinementOperator(dataset)
    scorer = LocationICScorer(BackgroundModel.from_targets(dataset.targets), dataset.targets)
    levels = []
    expand = operator.expand

    def recording(beam, seen, **kwargs):
        levels.append((list(beam), set(seen), kwargs))
        return expand(beam, seen, **kwargs)

    operator.expand = recording
    LocationBeamSearch(operator, scorer, config=SearchConfig(max_depth=3)).run()
    del operator.expand
    return operator, levels[2]


def bench_expand_level(benchmark, crime_level):
    """One expand of a 40-parent crime level at depth 3 (n=1994, R=976).

    ``seen`` holds the codes of levels 1-2 and is copied for each round.
    """
    operator, (beam, seen, kwargs) = crime_level
    assert len(beam) == 40
    level = benchmark.pedantic(
        operator.expand, setup=lambda: ((beam, set(seen)), kwargs), rounds=20
    )
    assert len(level.codes) > 0 and not level.expired


@pytest.fixture(scope="module")
def water_objective():
    dataset = make_water(0)
    model = BackgroundModel.from_targets(dataset.targets)
    objective = SpreadObjective(model, np.arange(100), dataset.targets)
    rng = np.random.default_rng(0)
    w = rng.standard_normal(dataset.n_targets)
    w /= np.linalg.norm(w)
    return objective, w


def bench_spread_value_and_grad(benchmark, water_objective):
    """One objective+gradient evaluation on the water data (d_y=16)."""
    objective, w = water_objective
    benchmark(lambda: objective.value_and_grad(w))


@pytest.fixture(scope="module")
def mammal_subgroup():
    """The prior model and the subgroup ``tmp_mar <= -1.73595`` (444 rows),
    the first location pattern mined on mammals at seed 0."""
    dataset = make_mammals(0)
    rows = np.flatnonzero(dataset.column("tmp_mar").values <= -1.73595)
    return BackgroundModel.from_targets(dataset.targets), rows, dataset.targets


def bench_spread_search(benchmark, mammal_subgroup):
    """One spread search on mammals (d_y=124): 6 eigenvector and 4 random
    starts, all ten of which ascend to the 300-iteration cap."""
    model, rows, targets = mammal_subgroup
    outcome = benchmark.pedantic(
        lambda: find_spread_direction(model, rows, targets, seed=0), rounds=5
    )
    assert outcome.n_starts == 10


@pytest.fixture(scope="module")
def synthetic_subgroup():
    """The prior model and the subgroup ``attr4 = '1'`` (40 rows), the
    first location pattern mined on synthetic at seed 0, which every
    served synthetic session's first spread step searches."""
    dataset = make_synthetic(0)
    rows = np.flatnonzero(dataset.column("attr4").values == 1.0)
    return BackgroundModel.from_targets(dataset.targets), rows, dataset.targets


def bench_spread_search_small(benchmark, synthetic_subgroup):
    """One spread search on synthetic (d_y=2), which takes the circle
    route: 64 grid angles and the 6 eigenvector and 4 random starts in
    one batched evaluation, then bounded Brent around each sampled local
    maximum. Most of its time is per-call overhead, not arithmetic."""
    model, rows, targets = synthetic_subgroup
    outcome = benchmark.pedantic(
        lambda: find_spread_direction(model, rows, targets, seed=0), rounds=20
    )
    assert outcome.route == "circle"
    assert outcome.n_starts == 10 and outcome.n_capped == 0


def bench_spread_pair_search(benchmark, water_objective):
    """The 2-sparse pair sweep over all 120 target pairs (socio-style)."""
    from repro.search.spread import _best_pair_direction

    objective, _ = water_objective
    benchmark.pedantic(
        lambda: _best_pair_direction(objective), rounds=1, iterations=1
    )
