"""Property-based tests of the case-weight semantics.

Two invariants define what weights *mean* in the scoring stack:

1. **Unit weights are invisible** — an all-ones weight vector takes the
   weighted code path but must reproduce the unweighted results
   *bit-identically* (the weighted branches are written so every
   intermediate reduces to the same machine operations).
2. **Frequency semantics** — a row with weight ``m`` behaves exactly
   like ``m`` stacked copies of that row, so reweighting is duplication
   without the memory.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.background import BackgroundModel
from repro.model.priors import empirical_prior
from repro.search.beam import LocationICScorer
from repro.stats.statistics import subgroup_cov, subgroup_mean, subgroup_spread


@st.composite
def targets_and_subgroup(draw):
    """Random (n, d) targets plus a non-empty subgroup index array."""
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=6, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    targets = rng.standard_normal((n, d)) * (1.0 + rng.random(d))
    size = draw(st.integers(min_value=2, max_value=n))
    indices = rng.choice(n, size=size, replace=False)
    indices.sort()
    return targets, indices, rng


def _unit_direction(rng, d):
    w = rng.standard_normal(d)
    return w / np.linalg.norm(w)


class TestUnitWeightsBitIdentical:
    """All-ones weights must not change a single bit of any statistic."""

    @given(data=targets_and_subgroup())
    @settings(max_examples=60, deadline=None)
    def test_statistics(self, data):
        targets, indices, rng = data
        ones = np.ones(targets.shape[0])
        assert np.array_equal(
            subgroup_mean(targets, indices),
            subgroup_mean(targets, indices, weights=ones),
        )
        assert np.array_equal(
            subgroup_cov(targets, indices),
            subgroup_cov(targets, indices, weights=ones),
        )
        direction = _unit_direction(rng, targets.shape[1])
        assert subgroup_spread(targets, indices, direction) == subgroup_spread(
            targets, indices, direction, weights=ones
        )

    @given(data=targets_and_subgroup())
    @settings(max_examples=40, deadline=None)
    def test_empirical_prior(self, data):
        targets, _, _ = data
        plain = empirical_prior(targets)
        weighted = empirical_prior(targets, weights=np.ones(targets.shape[0]))
        assert np.array_equal(plain.mean, weighted.mean)
        assert np.array_equal(plain.cov, weighted.cov)

    @given(data=targets_and_subgroup())
    @settings(max_examples=25, deadline=None)
    def test_scorer_ics(self, data):
        targets, indices, _ = data
        n = targets.shape[0]
        ones = np.ones(n)
        plain = LocationICScorer(BackgroundModel.from_targets(targets), targets)
        weighted = LocationICScorer(
            BackgroundModel.from_targets(targets, weights=ones), targets
        )
        mask = np.zeros((1, n), dtype=bool)
        mask[0, indices] = True
        ic_plain, mean_plain = plain.score_masks(mask)
        ic_weighted, mean_weighted = weighted.score_masks(mask)
        assert np.array_equal(ic_plain, ic_weighted)
        assert np.array_equal(mean_plain, mean_weighted)


@st.composite
def targets_and_multiplicities(draw):
    """Random targets, integer row multiplicities, and a subgroup."""
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=5, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    targets = rng.standard_normal((n, d))
    multiplicities = rng.integers(1, 4, size=n)
    size = draw(st.integers(min_value=2, max_value=n))
    indices = rng.choice(n, size=size, replace=False)
    indices.sort()
    return targets, multiplicities, indices, rng


def _duplicate(targets, multiplicities, indices):
    """The physically duplicated dataset and the subgroup mapped onto it."""
    duplicated = np.repeat(targets, multiplicities, axis=0)
    starts = np.concatenate(([0], np.cumsum(multiplicities)[:-1]))
    dup_indices = np.concatenate(
        [np.arange(starts[i], starts[i] + multiplicities[i]) for i in indices]
    )
    return duplicated, dup_indices


class TestDuplicationEquivalence:
    """Weight m on a row == the row repeated m times (Eq. 1/2 weighted)."""

    @given(data=targets_and_multiplicities())
    @settings(max_examples=60, deadline=None)
    def test_statistics(self, data):
        targets, multiplicities, indices, rng = data
        duplicated, dup_indices = _duplicate(targets, multiplicities, indices)
        weights = multiplicities.astype(float)
        np.testing.assert_allclose(
            subgroup_mean(duplicated, dup_indices),
            subgroup_mean(targets, indices, weights=weights),
            rtol=1e-10,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            subgroup_cov(duplicated, dup_indices),
            subgroup_cov(targets, indices, weights=weights),
            rtol=1e-9,
            atol=1e-12,
        )
        direction = _unit_direction(rng, targets.shape[1])
        np.testing.assert_allclose(
            subgroup_spread(duplicated, dup_indices, direction),
            subgroup_spread(targets, indices, direction, weights=weights),
            rtol=1e-9,
            atol=1e-12,
        )

    @given(data=targets_and_multiplicities())
    @settings(max_examples=30, deadline=None)
    def test_empirical_prior(self, data):
        targets, multiplicities, _, _ = data
        duplicated = np.repeat(targets, multiplicities, axis=0)
        from_duplicates = empirical_prior(duplicated)
        from_weights = empirical_prior(
            targets, weights=multiplicities.astype(float)
        )
        np.testing.assert_allclose(
            from_duplicates.mean, from_weights.mean, rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(
            from_duplicates.cov, from_weights.cov, rtol=1e-9, atol=1e-12
        )

    @given(data=targets_and_multiplicities())
    @settings(max_examples=20, deadline=None)
    def test_subgroup_mean_distribution(self, data):
        """The model's predicted subgroup-mean law matches duplication."""
        targets, multiplicities, indices, _ = data
        duplicated, dup_indices = _duplicate(targets, multiplicities, indices)
        weighted_model = BackgroundModel.from_targets(
            targets, weights=multiplicities.astype(float)
        )
        dup_model = BackgroundModel.from_targets(duplicated)
        mask = np.zeros(targets.shape[0], dtype=bool)
        mask[indices] = True
        dup_mask = np.zeros(duplicated.shape[0], dtype=bool)
        dup_mask[dup_indices] = True
        mean_w, cov_w = weighted_model.subgroup_mean_distribution(mask)
        mean_d, cov_d = dup_model.subgroup_mean_distribution(dup_mask)
        np.testing.assert_allclose(mean_d, mean_w, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(cov_d, cov_w, rtol=1e-9, atol=1e-12)

    @given(data=targets_and_multiplicities())
    @settings(max_examples=30, deadline=None)
    def test_scorer_ics(self, data):
        """The location IC and observed mean match duplication."""
        targets, multiplicities, indices, _ = data
        duplicated, dup_indices = _duplicate(targets, multiplicities, indices)
        weighted = LocationICScorer(
            BackgroundModel.from_targets(targets, weights=multiplicities.astype(float)),
            targets,
        )
        dup = LocationICScorer(BackgroundModel.from_targets(duplicated), duplicated)
        mask = np.zeros((1, targets.shape[0]), dtype=bool)
        mask[0, indices] = True
        dup_mask = np.zeros((1, duplicated.shape[0]), dtype=bool)
        dup_mask[0, dup_indices] = True
        ic_w, mean_w = weighted.score_masks(mask)
        ic_d, mean_d = dup.score_masks(dup_mask)
        np.testing.assert_allclose(ic_d, ic_w, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(mean_d, mean_w, rtol=1e-10, atol=1e-12)
