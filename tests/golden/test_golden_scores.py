"""Golden-value statistical regression tests.

The SI/IC scores of the top-3 mined patterns on the synthetic and
mammals datasets are frozen into ``fixtures/top_patterns.json`` (location
steps) and ``fixtures/spread_patterns.json`` (spread steps). Any
scorer/model/search refactor that drifts from these numbers — even in
the 10th decimal — fails here, so the paper's reproduced statistics
cannot erode silently. If a change is *supposed* to alter the numbers,
regenerate the fixture deliberately (the docstring of
``TestGoldenTopPatterns`` says how) and justify the diff in review.
"""

import json
from pathlib import Path

import pytest

from repro.search.config import SearchConfig
from repro.search.miner import SubgroupDiscovery

FIXTURE = Path(__file__).parent / "fixtures" / "top_patterns.json"

#: Tolerance of the frozen scores. Deliberately far below any
#: statistically meaningful difference: equality "to the last float"
#: would be brittle across BLAS builds, while 1e-9 still catches any
#: real formula or pipeline change.
ATOL = 1e-9

GOLDEN = json.loads(FIXTURE.read_text())
SPREAD_GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "spread_patterns.json").read_text()
)


def _mine(dataset, golden=GOLDEN):
    miner = SubgroupDiscovery(
        dataset, config=SearchConfig(**golden["config"]), seed=golden["seed"]
    )
    return miner.run(golden["n_iterations"], kind=golden["kind"])


def _close(got, want):
    """Within ``ATOL`` of ``want``, relative once ``|want|`` exceeds 1."""
    return abs(got - want) <= ATOL * max(1.0, abs(want))


class TestGoldenTopPatterns:
    """Frozen top-3 patterns per dataset.

    Regenerate (only for an intended statistical change) by re-running
    the mining loop with the fixture's config/seed and rewriting
    ``fixtures/top_patterns.json`` with the new
    description/size/ic/dl/si values.
    """

    @pytest.fixture(scope="class")
    def mined(self, request):
        return _mine(request.getfixturevalue(f"{request.param}_dataset"))

    @pytest.mark.parametrize(
        "mined, dataset_name",
        [("synthetic", "synthetic"), ("mammals", "mammals")],
        indirect=["mined"],
    )
    def test_top3_descriptions_and_scores_match(self, mined, dataset_name):
        expected = GOLDEN["patterns"][dataset_name]
        assert len(mined) == len(expected)
        for iteration, frozen in zip(mined, expected):
            location = iteration.location
            assert iteration.index == frozen["index"]
            assert str(location.description) == frozen["description"]
            assert location.size == frozen["size"]
            assert abs(location.score.ic - frozen["ic"]) <= ATOL
            assert abs(location.score.dl - frozen["dl"]) <= ATOL
            assert abs(location.si - frozen["si"]) <= ATOL

    def test_fixture_is_internally_consistent(self):
        # si = ic / dl is the SI definition; a hand-edited fixture that
        # breaks it would "pass" nothing meaningful.
        for entries in GOLDEN["patterns"].values():
            for entry in entries:
                assert entry["dl"] > 0
                assert abs(entry["si"] - entry["ic"] / entry["dl"]) <= ATOL


class TestGoldenSpreadPatterns:
    """Frozen three-step spread runs per dataset.

    Location updates leave every block covariance equal, so the location
    fixture never leaves the scorer's shared-covariance path. Here each
    spread step changes the covariances inside its subgroup, and steps
    2-3 score every candidate against differing block covariances. The
    fixture was mined with the per-candidate exact scorer, so it pins
    the batched kernels to that reference. Values are compared relative
    to their magnitude, because spread ICs run into the thousands.

    Regenerate like the location fixture, with ``kind="spread"``, also
    writing each iteration's ``spread_ic``/``spread_dl``/``spread_si``.
    """

    @pytest.fixture(scope="class")
    def mined(self, request):
        return _mine(
            request.getfixturevalue(f"{request.param}_dataset"), SPREAD_GOLDEN
        )

    @pytest.mark.parametrize(
        "mined, dataset_name",
        [("synthetic", "synthetic"), ("mammals", "mammals")],
        indirect=["mined"],
    )
    def test_location_and_spread_scores_match(self, mined, dataset_name):
        expected = SPREAD_GOLDEN["patterns"][dataset_name]
        assert len(mined) == len(expected) == SPREAD_GOLDEN["n_iterations"]
        for iteration, frozen in zip(mined, expected):
            location, spread = iteration.location, iteration.spread
            assert iteration.index == frozen["index"]
            assert str(location.description) == frozen["description"]
            assert location.size == frozen["size"]
            assert _close(location.score.ic, frozen["ic"])
            assert _close(location.score.dl, frozen["dl"])
            assert _close(location.si, frozen["si"])
            assert _close(spread.score.ic, frozen["spread_ic"])
            assert _close(spread.score.dl, frozen["spread_dl"])
            assert _close(spread.si, frozen["spread_si"])

    def test_fixture_is_internally_consistent(self):
        assert SPREAD_GOLDEN["kind"] == "spread"
        assert SPREAD_GOLDEN["config"] == GOLDEN["config"]
        for entries in SPREAD_GOLDEN["patterns"].values():
            for entry in entries:
                assert _close(entry["si"], entry["ic"] / entry["dl"])
                assert _close(entry["spread_si"], entry["spread_ic"] / entry["spread_dl"])
