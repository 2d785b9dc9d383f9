"""Property-based tests of the refinement operator's invariants.

Seeded randomized datasets drive four families of properties:

- **Monotonicity** — every refinement's extension mask is a subset of
  its parent's (a conjunction can only shrink the extension), which is
  what makes beam search's ``parent_mask & mask_of(condition)`` and the
  branch-and-bound pruning sound.
- **Memoization transparency** — :meth:`RefinementOperator.mask_of`
  returns arrays identical to a fresh evaluation, caches by value, and
  hands out read-only views.
- **Integer-coded expansion** — :meth:`RefinementOperator.expand` over a
  multi-parent beam yields exactly what the :meth:`refinements`
  reference loop (``seen`` dedup, ``parent & mask_of(c)``, coverage
  filter) yields, in the same order, and leaves ``seen`` the same; its
  per-candidate sums equal the reference masks' row counts and feature
  sums, and :meth:`RefinementOperator.child_masks` rebuilds the
  reference masks bit for bit. Candidates that add one condition to
  parents with one extension share exactly one row of sums. A code is
  one integer: :meth:`RefinementOperator.describe` inverts the
  documented coding, ``lengths`` counts each code's conditions, and a
  code past 63 bits is a Python int.
- **Textual round-trip** — descriptions survive ``str`` →
  :meth:`Description.parse` (exactly for thresholds representable at
  the renderer's 6 significant digits; textually for arbitrary pool
  thresholds).
"""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.schema import AttributeKind, Column, Dataset
from repro.lang import refinement
from repro.lang.conditions import EqualsCondition, NumericCondition
from repro.lang.description import Description
from repro.lang.refinement import RefinementOperator
from repro.model.background import BackgroundModel
from repro.model.patterns import LocationConstraint, SpreadConstraint
from repro.search.beam import LocationICScorer
from repro.utils.timer import TimeBudget

N_ROWS = 80
LABELS = ("north", "south", "east")


@functools.lru_cache(maxsize=32)
def make_dataset(seed: int) -> Dataset:
    """One randomized mixed-kind dataset per seed (cached: immutable)."""
    rng = np.random.default_rng(seed)
    columns = [
        Column("x", AttributeKind.NUMERIC, rng.uniform(-5, 5, N_ROWS)),
        Column("y", AttributeKind.NUMERIC, rng.normal(0, 2, N_ROWS)),
        Column("o", AttributeKind.ORDINAL, rng.choice([0.0, 1.0, 3.0, 5.0], N_ROWS)),
        Column("b", AttributeKind.BINARY, rng.integers(0, 2, N_ROWS).astype(float)),
        Column("c", AttributeKind.CATEGORICAL, rng.choice(LABELS, N_ROWS)),
    ]
    return Dataset(f"prop-{seed}", columns, rng.standard_normal((N_ROWS, 2)), ["t1", "t2"])


@functools.lru_cache(maxsize=32)
def make_operator(seed: int) -> RefinementOperator:
    return RefinementOperator(make_dataset(seed), n_split_points=3)


def draw_description(draw, operator: RefinementOperator) -> Description:
    """A random conjunction of pool conditions (possibly empty)."""
    pool = operator.conditions
    k = draw(st.integers(min_value=0, max_value=3))
    indices = draw(
        st.lists(
            st.integers(0, len(pool) - 1), min_size=k, max_size=k
        )
    )
    return Description(tuple(pool[i] for i in indices))


class TestRefinementMonotonicity:
    @given(seed=st.integers(0, 19), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_refinement_mask_is_subset_of_parent(self, seed, data):
        operator = make_operator(seed)
        parent = draw_description(data.draw, operator)
        parent_mask = operator.extension_mask(parent.canonical())
        for refined, condition in operator.refinements(parent):
            refined_mask = operator.extension_mask(refined)
            assert not np.any(refined_mask & ~parent_mask), (
                f"refinement {refined} covers rows outside its parent {parent}"
            )
            # The incremental evaluation the beam search actually uses
            # must agree with evaluating the refinement from scratch.
            np.testing.assert_array_equal(
                refined_mask, parent_mask & operator.mask_of(condition)
            )

    @given(seed=st.integers(0, 19), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_refinements_strictly_extend_the_canonical_form(self, seed, data):
        operator = make_operator(seed)
        parent = draw_description(data.draw, operator).canonical()
        for refined, _ in operator.refinements(parent):
            assert refined != parent
            assert not refined.is_contradictory()


class TestMaskMemoization:
    @given(seed=st.integers(0, 19))
    @settings(max_examples=20, deadline=None)
    def test_memoized_masks_equal_fresh_evaluation(self, seed):
        operator = make_operator(seed)
        dataset = make_dataset(seed)
        for condition in operator.conditions:
            np.testing.assert_array_equal(
                operator.mask_of(condition), condition.mask(dataset)
            )

    @given(seed=st.integers(0, 19), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_repeated_lookups_return_the_identical_readonly_array(self, seed, data):
        operator = make_operator(seed)
        pool = operator.conditions
        condition = pool[data.draw(st.integers(0, len(pool) - 1))]
        first = operator.mask_of(condition)
        second = operator.mask_of(condition)
        assert first is second  # cached object, not a recomputation
        assert first.flags.writeable is False
        # An equal-by-value condition object hits the same entry.
        if isinstance(condition, NumericCondition):
            twin = NumericCondition(condition.attribute, condition.op, condition.threshold)
        else:
            twin = EqualsCondition(condition.attribute, condition.value)
        assert operator.mask_of(twin) is first


def encode(operator: RefinementOperator, description: Description) -> int:
    """A canonical description's code, ``sum((r_i + 1) * (R + 1)**i)``.

    ``r_0 < ... < r_{l-1}`` are its conditions' ranks, their positions in
    ``sort_key()`` order over the pool's ``R`` conditions: the documented
    coding :meth:`RefinementOperator.describe` inverts.
    """
    ranked = sorted(operator.conditions, key=lambda c: c.sort_key())
    rank = {condition: r for r, condition in enumerate(ranked)}
    ranks = sorted(rank[c] for c in description.canonical().conditions)
    return sum((r + 1) * (len(ranked) + 1) ** i for i, r in enumerate(ranks))


def draw_parent(draw, operator: RefinementOperator) -> Description:
    """A random canonical, non-contradictory conjunction of pool conditions.

    Conditions are drawn from at most two attributes, so two bounds on
    one attribute (and their tightening) come up often.
    """
    pool = operator.conditions
    names = sorted({c.attribute for c in pool})
    chosen = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    candidates = [c for c in pool if c.attribute in chosen]
    parent = Description()
    for i in draw(st.lists(st.integers(0, len(candidates) - 1), max_size=4)):
        refined = parent.with_condition(candidates[i]).canonical()
        if not refined.is_contradictory():
            parent = refined
    return parent


class ExpiresAfter:
    """A budget that has expired once it has been polled ``polls`` times."""

    def __init__(self, polls: int) -> None:
        self.polls = polls

    @property
    def expired(self) -> bool:
        self.polls -= 1
        return self.polls < 0


def reference_level(operator, beam, seen, min_size, max_size):
    """The reference: refine -> dedup -> AND -> coverage, on descriptions."""
    out, duplicates, out_of_range = [], 0, 0
    for parent, parent_mask in beam:
        for refined, condition in operator.refinements(parent):
            if refined in seen:
                duplicates += 1
                continue
            seen.add(refined)
            mask = parent_mask & operator.mask_of(condition)
            size = int(mask.sum())
            if size < min_size or size > max_size:
                out_of_range += 1
                continue
            out.append((refined, mask))
    return out, duplicates, out_of_range


class TestExpandMatchesReference:
    @given(seed=st.integers(0, 19), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_expand_equals_the_refinements_loop(self, seed, data):
        operator = make_operator(seed)
        n_parents = data.draw(st.integers(1, 4))
        parents = [draw_parent(data.draw, operator) for _ in range(n_parents)]
        beam = [(p, operator.extension_mask(p)) for p in parents]
        coded = [(encode(operator, p), mask) for p, mask in beam]
        for (code, _), (parent, _) in zip(coded, beam):
            assert operator.describe(code) == parent

        # Pre-fill seen with some of the refinements the beam will meet.
        reachable = [r for p in parents for r, _ in operator.refinements(p)]
        prefilled = (
            data.draw(st.lists(st.sampled_from(reachable), max_size=6)) if reachable else []
        )
        min_size = data.draw(st.integers(1, N_ROWS // 2))
        max_size = data.draw(st.integers(min_size, N_ROWS))
        # 0 features means counts only; 85 and 300 columns put two parents
        # and one parent in each matrix product.
        m = data.draw(st.sampled_from([0, 2, 85, 300]))
        features = (
            np.random.default_rng(seed).standard_normal((N_ROWS, m)) if m else None
        )

        ref_seen = set(prefilled)
        expected, duplicates, out_of_range = reference_level(
            operator, beam, ref_seen, min_size, max_size
        )
        seen = {encode(operator, d) for d in prefilled}
        level = operator.expand(
            coded, seen, features=features, min_size=min_size, max_size=max_size
        )

        assert [operator.describe(c) for c in level.codes] == [e[0] for e in expected]
        ref_masks = np.array([e[1] for e in expected], dtype=bool).reshape(-1, N_ROWS)
        masks = operator.child_masks(coded, level.parents, level.ranks)
        np.testing.assert_array_equal(masks, ref_masks)
        sums = level.sums[level.sums_row]
        assert sums.shape == (len(expected), 1 + m)
        np.testing.assert_array_equal(sums[:, 0], ref_masks.sum(axis=1))
        if features is not None:
            reference = ref_masks.astype(float) @ features
            bound = 1e-12 * (ref_masks.astype(float) @ np.abs(features))
            assert np.all(np.abs(sums[:, 1:] - reference) <= bound)
        assert (level.duplicates, level.out_of_range) == (duplicates, out_of_range)
        assert not level.expired
        assert {operator.describe(c) for c in seen} == ref_seen
        assert len(seen) == len(ref_seen)

    def test_tightening_a_bound_replaces_it(self):
        operator = make_operator(0)
        bounds = sorted(
            c.threshold for c in operator.conditions if c.attribute == "x" and c.op == "<="
        )
        parent = Description((NumericCondition("x", "<=", bounds[-1]),))
        beam = [(encode(operator, parent), operator.extension_mask(parent))]
        level = operator.expand(beam, set())
        children = [operator.describe(c) for c in level.codes]
        tighter = [d for d in children if d.attributes == {"x"} and len(d) == 1]
        assert [d.conditions[0].threshold for d in tighter] == bounds[:-1]

    def test_expired_budget_yields_nothing(self):
        operator = make_operator(0)
        seen: set = set()
        level = operator.expand(
            [(0, np.ones(N_ROWS, dtype=bool))], seen, budget=TimeBudget(0.0)
        )
        assert level.expired
        assert len(level.codes) == 0 and level.sums.shape == (0, 1)
        assert len(level.lengths) == len(level.parents) == len(level.ranks) == 0
        assert (level.duplicates, level.out_of_range) == (0, 0)
        assert seen == set()

    def test_budget_expiring_between_products_keeps_the_summed_extensions(self):
        operator = make_operator(0)
        parents = [Description((c,)) for c in operator.conditions if c.attribute == "x"][:3]
        beam = [(p, operator.extension_mask(p)) for p in parents]
        assert len({mask.tobytes() for _, mask in beam}) == len(beam)
        coded = [(encode(operator, p), mask) for p, mask in beam]
        # 300 feature columns put one extension in each product; the budget
        # lets pass 1 (one poll) and then one product run.
        features = np.random.default_rng(0).standard_normal((N_ROWS, 300))
        level = operator.expand(
            coded, set(), features=features, budget=ExpiresAfter(2)
        )
        expected, _, out_of_range = reference_level(operator, beam[:1], set(), 1, N_ROWS)
        assert level.expired
        assert [operator.describe(c) for c in level.codes] == [e[0] for e in expected]
        assert level.out_of_range == out_of_range
        assert set(level.parents.tolist()) == {0}
        assert len(level.sums) == len(expected)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("evolved", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_scoring_the_sums_matches_scoring_the_masks(self, seed, evolved, weighted):
        dataset = make_dataset(seed)
        operator = make_operator(seed)
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.5, 2.0, N_ROWS) if weighted else None
        model = BackgroundModel.from_targets(dataset.targets, weights=weights)
        if evolved:
            # Two blocks with differing covariances: the low-rank path.
            rows = np.flatnonzero(rng.random(N_ROWS) < 0.4)
            model.assimilate(LocationConstraint.from_data(dataset.targets, rows))
            model.assimilate(
                SpreadConstraint.from_data(dataset.targets, rows, np.array([0.6, 0.8]))
            )
        scorer = LocationICScorer(model, dataset.targets)
        assert scorer._uniform_cov is not evolved
        root = [(0, np.ones(N_ROWS, dtype=bool))]
        first = operator.expand(root, set())
        masks = operator.child_masks(root, first.parents[:4], first.ranks[:4])
        beam = list(zip(first.codes[:4], masks))
        level = operator.expand(beam, set(), features=scorer.features)
        ics, observed = scorer.score_sums(level.sums[level.sums_row])
        ref_ics, ref_observed = scorer.score_masks(
            operator.child_masks(beam, level.parents, level.ranks)
        )
        # Relative to the scale of the terms: an IC near 0 is a difference
        # of O(1) terms (as in tests/property/test_ic_kernel_properties.py).
        assert np.all(np.abs(ics - ref_ics) <= 1e-12 * np.maximum(1.0, np.abs(ref_ics)))
        assert np.all(
            np.abs(observed - ref_observed)
            <= 1e-12 * np.maximum(1.0, np.abs(ref_observed))
        )


class TestIntegerCodes:
    @given(seed=st.integers(0, 19), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_describe_inverts_encode(self, seed, data):
        operator = make_operator(seed)
        parent = draw_parent(data.draw, operator)
        assert operator.describe(encode(operator, parent)) == parent

    @given(seed=st.integers(0, 19), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_lengths_are_condition_counts(self, seed, data):
        operator = make_operator(seed)
        parents = [draw_parent(data.draw, operator) for _ in range(data.draw(st.integers(1, 4)))]
        coded = [(encode(operator, p), operator.extension_mask(p)) for p in parents]
        level = operator.expand(coded, set())
        assert level.lengths.tolist() == [len(operator.describe(c)) for c in level.codes]

    def test_codes_past_63_bits_are_python_ints(self):
        # 6 numeric columns at 60 split points: R = 720 conditions, and
        # 721**6 < 2**63 < 721**7, so a 7-condition code needs a Python int.
        rng = np.random.default_rng(0)
        columns = [
            Column(f"v{i}", AttributeKind.NUMERIC, rng.uniform(0, 1, 200)) for i in range(6)
        ]
        dataset = Dataset("wide", columns, rng.standard_normal((200, 1)), ["t"])
        operator = RefinementOperator(dataset, n_split_points=60)
        assert len(operator) == 720
        # The loosest ">=" bound on each column: its children that add a
        # "<=" bound have 7 conditions.
        loosest: dict = {}
        for condition in operator.conditions:
            if condition.op == ">=":
                loosest.setdefault(condition.attribute, condition)
        parent = Description(tuple(loosest.values())).canonical()
        beam = [(parent, operator.extension_mask(parent))]
        coded = [(encode(operator, parent), beam[0][1])]
        level = operator.expand(coded, set())

        assert level.codes.dtype == object
        assert all(type(code) is int for code in level.codes)
        assert max(level.lengths) == 7 and max(level.codes) >= 2**63
        expected, duplicates, out_of_range = reference_level(
            operator, beam, set(), 1, dataset.n_rows
        )
        assert [operator.describe(c) for c in level.codes] == [e[0] for e in expected]
        assert [
            encode(operator, operator.describe(c)) for c in level.codes
        ] == level.codes.tolist()
        masks = operator.child_masks(coded, level.parents, level.ranks)
        np.testing.assert_array_equal(masks, np.array([e[1] for e in expected]))
        assert (level.duplicates, level.out_of_range) == (duplicates, out_of_range)


@functools.lru_cache(maxsize=32)
def make_twin_operator(seed: int) -> RefinementOperator:
    """The seed's dataset plus ``x_copy``, an exact copy of ``x``.

    ``x <= t`` and ``x_copy <= t`` cover the same rows, so parents that
    differ only in which of the two they condition on share an extension.
    """
    base = make_dataset(seed)
    columns = [base.column(name) for name in base.description_names]
    columns.append(Column("x_copy", AttributeKind.NUMERIC, base.column("x").values.copy()))
    dataset = Dataset(f"twin-{seed}", columns, base.targets, base.target_names)
    return RefinementOperator(dataset, n_split_points=3)


def twin(description: Description) -> Description:
    """``description`` with its ``x`` and ``x_copy`` conditions swapped."""
    swap = {"x": "x_copy", "x_copy": "x"}
    return Description(
        tuple(
            NumericCondition(swap[c.attribute], c.op, c.threshold)
            if c.attribute in swap
            else c
            for c in description.conditions
        )
    ).canonical()


class TestExpandSharesExtensions:
    """Candidates of parents with one extension share their rows of sums."""

    @given(seed=st.integers(0, 19), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_one_row_per_distinct_extension_and_condition(self, seed, data):
        operator = make_twin_operator(seed)
        on_x = [c for c in operator.conditions if c.attribute == "x"]
        # With the root, a product covers every row and runs over all of
        # them; conjunctions with a condition on x mostly cover fewer than
        # half, so their products gather the rows they cover.
        parents = [Description()] if data.draw(st.booleans()) else []
        for _ in range(data.draw(st.integers(1, 3))):
            parent = draw_parent(data.draw, operator)
            narrowed = parent.with_condition(data.draw(st.sampled_from(on_x))).canonical()
            if not narrowed.is_contradictory():
                parent = narrowed
            for candidate in (parent, twin(parent)):
                if candidate not in parents:
                    parents.append(candidate)
        beam = [(p, operator.extension_mask(p)) for p in parents]
        coded = [(encode(operator, p), mask) for p, mask in beam]
        min_size = data.draw(st.integers(1, 8))
        m = data.draw(st.sampled_from([0, 2, 85, 300]))
        features = (
            np.random.default_rng(seed).standard_normal((N_ROWS, m)) if m else None
        )

        # Gather blocks of 1 and 7 rows split every gathered product.
        gather_rows = data.draw(st.sampled_from([1, 7, 256]))

        expected, _, _ = reference_level(operator, beam, set(), min_size, N_ROWS)
        with mock.patch.object(refinement, "_GATHER_ROWS", gather_rows):
            level = operator.expand(coded, set(), features=features, min_size=min_size)

        assert [operator.describe(c) for c in level.codes] == [e[0] for e in expected]
        ref_masks = np.array([e[1] for e in expected], dtype=bool).reshape(-1, N_ROWS)
        sums = level.sums[level.sums_row]
        assert sums.shape == (len(expected), 1 + m)
        np.testing.assert_array_equal(sums[:, 0], ref_masks.sum(axis=1))
        if features is not None:
            reference = ref_masks.astype(float) @ features
            bound = 1e-12 * (ref_masks.astype(float) @ np.abs(features))
            assert np.all(np.abs(sums[:, 1:] - reference) <= bound)
        # Two candidates share a row iff their parents' masks and their
        # added conditions are equal, and every row belongs to a candidate.
        keys = [
            (coded[p][1].tobytes(), r)
            for p, r in zip(level.parents.tolist(), level.ranks.tolist())
        ]
        rows = level.sums_row.tolist()
        assert len(set(zip(keys, rows))) == len(set(keys)) == len(set(rows))
        assert sorted(set(rows)) == list(range(len(level.sums)))
        assert level.extensions == len({mask.tobytes() for _, mask in coded})


#: Thresholds exactly representable at __str__'s 6 significant digits:
#: k/1000 for |k| < 100000 prints back to the same decimal, so parsing
#: the rendering reproduces the identical double.
exact_thresholds = st.integers(-99999, 99999).map(lambda k: k / 1000)
numeric_conditions = st.builds(
    NumericCondition,
    st.sampled_from(["x", "y", "o"]),
    st.sampled_from(["<=", ">="]),
    exact_thresholds,
)
equals_conditions = st.one_of(
    st.builds(EqualsCondition, st.just("b"), st.sampled_from([0.0, 1.0])),
    st.builds(EqualsCondition, st.just("c"), st.sampled_from(list(LABELS))),
)
exact_descriptions = (
    st.lists(st.one_of(numeric_conditions, equals_conditions), max_size=5)
    .map(tuple)
    .map(Description)
)


class TestStrParseRoundTrip:
    @given(description=exact_descriptions)
    @settings(max_examples=150, deadline=None)
    def test_exact_round_trip(self, description):
        assert Description.parse(str(description)) == description

    @given(description=exact_descriptions)
    @settings(max_examples=100, deadline=None)
    def test_canonical_form_survives_round_trip(self, description):
        canon = description.canonical()
        assert Description.parse(str(canon)).canonical() == canon

    @given(seed=st.integers(0, 19), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_pool_descriptions_round_trip_textually(self, seed, data):
        # Percentile split points carry full float precision; __str__
        # renders 6 significant digits, so the guaranteed invariant is
        # textual idempotence: one parse absorbs the rounding, after
        # which str/parse is a fixed point.
        operator = make_operator(seed)
        description = draw_description(data.draw, operator)
        parsed = Description.parse(str(description))
        assert str(parsed) == str(description)
        assert Description.parse(str(parsed)) == parsed

    def test_empty_description_round_trips(self):
        assert Description.parse(str(Description())) == Description()
        assert Description.parse("") == Description()

    def test_equality_values_containing_operator_tokens(self):
        # A label may legitimately contain '<='; the equality form must
        # win over a numeric misreading.
        tricky = Description((EqualsCondition("c", "a <= b"),))
        assert Description.parse(str(tricky)) == tricky

    def test_equality_values_containing_the_conjunction_token(self):
        tricky = Description(
            (
                EqualsCondition("country", "Trinidad AND Tobago"),
                NumericCondition("x", "<=", 1.5),
            )
        )
        assert Description.parse(str(tricky)) == tricky

    def test_non_finite_looking_labels_stay_strings(self):
        for label in ("nan", "inf", "-inf"):
            condition = EqualsCondition("c", label)
            parsed = Description.parse(str(Description((condition,))))
            assert parsed == Description((condition,))
            assert isinstance(parsed.conditions[0].value, str)
