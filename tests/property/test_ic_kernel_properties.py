"""The low-rank IC kernel against the exact per-candidate loop.

After spread patterns are assimilated, :class:`LocationICScorer` scores
candidates with the determinant lemma and Woodbury identity over an
``r x r`` basis instead of factoring each pooled ``d x d`` covariance.
The exact loop stays as the reference, and these properties pin the
kernel to it:

- where the guard admits a candidate, its IC matches the exact loop to
  ``1e-9`` relative;
- where the guard routes a candidate away, its IC *is* the exact loop's,
  bit for bit.

Models come from random sequences of location and spread constraints on
small random datasets, weighted or not, with repeated directions and
with ``r >= d``.
"""

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from repro.errors import ConvergenceError, ModelError
from repro.model.background import BackgroundModel
from repro.model.patterns import LocationConstraint, SpreadConstraint
from repro.search.beam import LocationICScorer

#: Agreement demanded of admitted candidates, relative to ``max(1, |IC|)``.
RTOL = 1e-9


def _unit(rng, d):
    w = rng.standard_normal(d)
    return w / np.linalg.norm(w)


def _rows(rng, n, low):
    size = int(rng.integers(low, n))
    return np.sort(rng.choice(n, size=size, replace=False))


@st.composite
def evolved_models(draw):
    """A model after 1-4 random constraints, at least one of them spread."""
    d = draw(st.sampled_from([1, 2, 3, 5]))
    n = draw(st.integers(min_value=6 * d + 10, max_value=80))
    weighted = draw(st.booleans())
    kinds = draw(
        st.lists(st.sampled_from(["location", "spread"]), min_size=1, max_size=4)
    )
    if "spread" not in kinds:
        kinds[draw(st.integers(0, len(kinds) - 1))] = "spread"
    repeats = draw(st.lists(st.booleans(), min_size=len(kinds), max_size=len(kinds)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))

    targets = rng.standard_normal((n, d)) * (0.5 + 2.0 * rng.random(d))
    weights = rng.uniform(0.5, 3.0, n) if weighted else None
    model = BackgroundModel.from_targets(targets, weights=weights)
    directions: list[np.ndarray] = []
    for kind, repeat in zip(kinds, repeats):
        rows = _rows(rng, n, max(3, d + 1))
        if kind == "location":
            constraint = LocationConstraint.from_data(targets, rows)
        else:
            w = directions[-1] if repeat and directions else _unit(rng, d)
            directions.append(w)
            observed = SpreadConstraint.from_data(targets, rows, w)
            # Over- and under-dispersed subgroups alike, up to ~20x.
            scale = 10.0 ** rng.uniform(-1.3, 1.3)
            constraint = SpreadConstraint(
                observed.indices, w, observed.variance * scale, observed.center
            )
        try:
            model.assimilate(constraint)
        except (ConvergenceError, ModelError):
            assume(False)
    return model, targets, rng


def _random_masks(rng, n, k):
    masks = rng.random((k, n)) < rng.uniform(0.05, 0.9, size=(k, 1))
    masks[np.arange(k), rng.integers(0, n, size=k)] = True  # never empty
    return masks


def _assert_matches_exact(scorer, masks):
    """Score ``masks`` and check each row against the exact loop."""
    sizes, _, counts, diffs = scorer._prefix(masks)
    exact = scorer._exact_ics(counts, sizes, diffs)
    ics, _ = scorer.score_masks(masks)
    if scorer._lowrank is None:
        routed = np.ones(len(ics), dtype=bool)
    else:
        _, routed = scorer._lowrank_ics(counts, sizes, diffs)
    assert np.array_equal(ics[routed], exact[routed])
    gap = np.abs(ics[~routed] - exact[~routed])
    assert np.all(gap <= RTOL * np.maximum(1.0, np.abs(exact[~routed])))
    return routed


class TestLowRankMatchesExact:
    @given(data=evolved_models(), shape=st.data())
    @settings(max_examples=120, deadline=None)
    def test_sharded_stacks_match_the_exact_loop(self, data, shape):
        model, targets, rng = data
        scorer = LocationICScorer(model, targets)
        assert not scorer._uniform_cov
        k = shape.draw(st.integers(min_value=1, max_value=40))
        masks = _random_masks(rng, model.n_rows, k)
        cuts = sorted(
            shape.draw(st.lists(st.integers(1, k), max_size=4, unique=True))
        )
        routed = np.concatenate(
            [
                _assert_matches_exact(scorer, shard)
                for shard in np.split(masks, [c for c in cuts if c < k])
            ]
        )
        if scorer._lowrank is None:
            event("exact scorer")
        else:
            r = scorer._lowrank.basis.shape[1]
            event("r >= d" if r >= model.dim else "r < d")
            event("some rows routed" if routed.any() else "no rows routed")

    @pytest.mark.parametrize("d, n_spread", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3)])
    def test_full_rank_basis_is_the_vectorised_exact_path(self, d, n_spread):
        rng = np.random.default_rng(d * 10 + n_spread)
        targets = rng.standard_normal((60, d))
        model = BackgroundModel.from_targets(targets)
        for _ in range(n_spread):
            rows = _rows(rng, 60, 10)
            model.assimilate(SpreadConstraint.from_data(targets, rows, _unit(rng, d)))
        scorer = LocationICScorer(model, targets)
        assert scorer._lowrank is not None
        assert scorer._lowrank.basis.shape == (d, d)
        routed = _assert_matches_exact(scorer, _random_masks(rng, 60, 50))
        assert not routed.any()

    def test_repeated_direction_keeps_the_low_rank_path(self):
        rng = np.random.default_rng(3)
        targets = rng.standard_normal((80, 5))
        model = BackgroundModel.from_targets(targets)
        w = _unit(rng, 5)
        for _ in range(3):
            model.assimilate(SpreadConstraint.from_data(targets, _rows(rng, 80, 10), w))
        scorer = LocationICScorer(model, targets)
        assert scorer._lowrank is not None
        routed = _assert_matches_exact(scorer, _random_masks(rng, 80, 50))
        assert not routed.any()


class TestGuard:
    def _near_singular(self):
        """Block 1 keeps almost no variance along ``w`` after its update."""
        rng = np.random.default_rng(11)
        n = 120
        targets = rng.standard_normal((n, 3))
        model = BackgroundModel.from_targets(targets)
        inside = np.arange(40)
        w = np.array([1.0, 0.0, 0.0])
        center = targets[inside].mean(axis=0)
        expected = model.expected_spread(inside, w, center)
        model.assimilate(SpreadConstraint(inside, w, 1e-12 * expected, center))
        return model, targets, rng

    def test_near_singular_candidates_go_to_the_exact_loop(self):
        model, targets, rng = self._near_singular()
        scorer = LocationICScorer(model, targets)
        assert scorer._lowrank is not None
        n = model.n_rows
        # Subgroups wholly inside the squeezed block, then subgroups that
        # are mostly outside it.
        squeezed = np.zeros((10, n), dtype=bool)
        for row in squeezed:
            row[rng.choice(40, size=int(rng.integers(2, 40)), replace=False)] = True
        mixed = np.zeros((10, n), dtype=bool)
        for row in mixed:
            row[rng.choice(np.arange(40, n), size=30, replace=False)] = True
            row[rng.choice(40, size=5, replace=False)] = True
        masks = np.concatenate([squeezed, mixed])

        sizes, _, counts, diffs = scorer._prefix(masks)
        lowrank, routed = scorer._lowrank_ics(counts, sizes, diffs)
        assert routed.tolist() == [True] * 10 + [False] * 10
        assert np.isnan(lowrank[routed]).all()
        # The routed rows are scored by the exact loop, bit for bit.
        assert np.array_equal(routed, _assert_matches_exact(scorer, masks))

    def test_unreconstructable_blocks_fall_back_to_exact(self):
        model, targets, rng = self._near_singular()
        # A block covariance off the span of the spread updates cannot be
        # written as Sigma_0 + Q M Q', so the whole scorer stays exact.
        model._covs[1] = model._covs[1] + 1e-3 * np.eye(3)
        scorer = LocationICScorer(model, targets)
        assert scorer._lowrank is None
        _assert_matches_exact(scorer, _random_masks(rng, model.n_rows, 8))
