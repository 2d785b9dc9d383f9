"""Refinement operator: the candidate-generation step of every search.

Builds the pool of atomic conditions for a dataset (inequalities at the
discretized split points for numeric/ordinal attributes, equalities for
categorical/binary ones) and refines descriptions one condition at a
time, in two forms:

- :meth:`RefinementOperator.refinements` refines one
  :class:`~repro.lang.description.Description` through the description
  algebra (``canonical()``, ``is_contradictory()``). It is the readable
  reference.
- :meth:`RefinementOperator.expand` refines a whole search level at
  once, on integer codes, and is what the searches run. A description is
  coded as the sorted tuple of its conditions' *ranks* — their positions
  in ``Condition.sort_key()`` order — so a sorted code is the canonical
  form. Admissibility, canonicalisation and dedup become comparisons of
  numbers. A level's extensions are never built: each candidate's row
  count, and the column sums of a caller-supplied feature matrix over its
  extension, come from one matrix product per chunk of parents against a
  float copy of the dense condition-mask table.
  :meth:`RefinementOperator.child_masks` builds the masks of the few
  candidates a caller keeps, by one gather-AND over the boolean table,
  and :meth:`RefinementOperator.describe` decodes a code.

The condition tables are built on first use, not at construction, so
building an operator stays as cheap as building its pool.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.datasets.schema import AttributeKind, Dataset
from repro.errors import LanguageError
from repro.lang.conditions import GE, LE, Condition, EqualsCondition, NumericCondition
from repro.lang.description import Description
from repro.lang.discretize import split_points
from repro.utils.timer import TimeBudget

#: Condition kinds in the integer tables.
_LE, _GE, _EQ = 0, 1, 2
#: Size of one sums product in :meth:`RefinementOperator.expand`: each
#: parent adds ``1 + m`` rows to ``W``, so about ``256 // (1 + m)``
#: parents share one matrix product against the condition table.
_GEMM_COLUMNS = 256


class Expansion(NamedTuple):
    """One search level's candidates, from :meth:`RefinementOperator.expand`.

    Candidates are in generation order: parents in beam order, and each
    parent's refinements in pool order. Their extensions are not built;
    pass ``parents`` and ``ranks`` to
    :meth:`RefinementOperator.child_masks` for the ones a caller keeps.
    """

    #: Canonical codes of the candidates (decode with ``describe``).
    codes: list[tuple[int, ...]]
    #: Attribute id of each candidate's added condition, ``(k,)``: the
    #: attribute's position in the order the pool first mentions it.
    attributes: np.ndarray
    #: Beam index of each candidate's parent, ``(k,)``.
    parents: np.ndarray
    #: Rank of each candidate's added condition, ``(k,)``.
    ranks: np.ndarray
    #: ``(k, 1 + m)``: each candidate's row count, then the column sums
    #: of the ``(n_rows, m)`` feature matrix over its extension.
    sums: np.ndarray
    #: Refinements dropped because their code was already in ``seen``.
    duplicates: int
    #: Refinements dropped by the coverage bounds.
    out_of_range: int
    #: True if the budget ran out before every parent was expanded.
    expired: bool


class _Tables(NamedTuple):
    """The pool as integer arrays, plus every condition's mask."""

    rank: dict[Condition, int]  # condition -> rank
    by_rank: tuple[Condition, ...]  # rank -> condition
    pool_rank: np.ndarray  # (P,) rank of each pool condition, pool order
    pool_attr: np.ndarray  # (P,) attribute id
    pool_kind: np.ndarray  # (P,) _LE | _GE | _EQ
    pool_threshold: np.ndarray  # (P,) threshold; NaN for equalities
    rank_info: list[tuple[int, int, float]]  # rank -> (attr, kind, threshold)
    n_attributes: int
    masks: np.ndarray  # (R, n_rows) read-only, by rank
    rows: list[np.ndarray]  # the rows of ``masks``, as mask_of hands them out


class RefinementOperator:
    """Generates one-condition refinements of descriptions over a dataset.

    Parameters
    ----------
    dataset:
        The data whose description attributes define the language.
    n_split_points:
        Number of thresholds per numeric attribute (paper default: 4).
    strategy:
        Split-point strategy, see :func:`repro.lang.discretize.split_points`.
    attributes:
        Optional subset of description attributes to condition on.
    """

    def __init__(
        self,
        dataset: Dataset,
        *,
        n_split_points: int = 4,
        strategy: str = "percentile",
        attributes: Sequence[str] | None = None,
    ) -> None:
        self.dataset = dataset
        names = list(attributes) if attributes is not None else dataset.description_names
        for name in names:
            dataset.column(name)  # raises DataError on unknown names
        self._pool: list[Condition] = self._build_pool(names, n_split_points, strategy)
        self._table: _Tables | None = None
        self._float_masks: np.ndarray | None = None

    def _build_pool(
        self, names: Sequence[str], n_split_points: int, strategy: str
    ) -> list[Condition]:
        pool: list[Condition] = []
        for name in names:
            column = self.dataset.column(name)
            if column.is_constant():
                continue  # no condition on a constant column can split the data
            if column.kind.is_orderable:
                thresholds = split_points(
                    column, n_split_points=n_split_points, strategy=strategy
                )
                lo, hi = float(column.values.min()), float(column.values.max())
                for t in thresholds:
                    # "x <= max" and "x >= min" are trivially true; skip them.
                    if t < hi:
                        pool.append(NumericCondition(name, LE, float(t)))
                    if t > lo:
                        pool.append(NumericCondition(name, GE, float(t)))
            elif column.kind in (AttributeKind.CATEGORICAL, AttributeKind.BINARY):
                for value in column.domain():
                    pool.append(EqualsCondition(name, value))
            else:  # pragma: no cover - enum is exhaustive
                raise LanguageError(f"unsupported attribute kind {column.kind}")
        return pool

    def _tables(self) -> _Tables:
        """The integer tables and the mask table, built on first use."""
        if self._table is not None:
            return self._table
        by_rank = tuple(sorted(set(self._pool), key=lambda c: c.sort_key()))
        rank = {condition: r for r, condition in enumerate(by_rank)}
        attribute_ids: dict[str, int] = {}
        for condition in self._pool:
            attribute_ids.setdefault(condition.attribute, len(attribute_ids))
        rank_info = []
        for condition in by_rank:
            if isinstance(condition, NumericCondition):
                kind = _LE if condition.op == LE else _GE
                threshold = condition.threshold
            else:
                kind, threshold = _EQ, float("nan")
            rank_info.append((attribute_ids[condition.attribute], kind, threshold))
        masks = np.empty((len(by_rank), self.dataset.n_rows), dtype=bool)
        for r, condition in enumerate(by_rank):
            masks[r] = condition.mask(self.dataset)
        masks.setflags(write=False)
        pool_rank = np.array([rank[c] for c in self._pool], dtype=np.intp)
        info = [rank_info[r] for r in pool_rank.tolist()]
        self._table = _Tables(
            rank=rank,
            by_rank=by_rank,
            pool_rank=pool_rank,
            pool_attr=np.array([a for a, _, _ in info], dtype=np.intp),
            pool_kind=np.array([k for _, k, _ in info], dtype=np.intp),
            pool_threshold=np.array([t for _, _, t in info], dtype=float),
            rank_info=rank_info,
            n_attributes=len(attribute_ids),
            masks=masks,
            rows=list(masks),
        )
        return self._table

    def _float_table(self) -> np.ndarray:
        """The mask table as float64, transposed to ``(n_rows, R)``."""
        if self._float_masks is None:
            self._float_masks = np.ascontiguousarray(self._tables().masks.T, dtype=float)
            self._float_masks.setflags(write=False)
        return self._float_masks

    # ------------------------------------------------------------------ #
    # Pool access
    # ------------------------------------------------------------------ #
    @property
    def conditions(self) -> list[Condition]:
        """The full candidate-condition pool (copy)."""
        return list(self._pool)

    def __len__(self) -> int:
        return len(self._pool)

    def mask_of(self, condition: Condition) -> np.ndarray:
        """Read-only boolean row mask of one condition.

        A pool condition's mask is a row of the operator's mask table, so
        every call returns the same array; any other condition's mask is
        computed afresh.
        """
        table = self._tables()
        r = table.rank.get(condition)
        if r is not None:
            return table.rows[r]
        mask = condition.mask(self.dataset)
        mask.setflags(write=False)
        return mask

    def extension_mask(self, description: Description) -> np.ndarray:
        """Extension mask of a description using the tabled conditions."""
        mask = np.ones(self.dataset.n_rows, dtype=bool)
        for condition in description.conditions:
            mask = mask & self.mask_of(condition)
            if not mask.any():
                break
        return mask

    def describe(self, code: Sequence[int]) -> Description:
        """Decode a canonical code from :meth:`expand` into its description.

        The result equals its own ``canonical()`` form.
        """
        by_rank = self._tables().by_rank
        return Description(tuple(by_rank[r] for r in code))

    # ------------------------------------------------------------------ #
    # Refinement
    # ------------------------------------------------------------------ #
    def refinements(
        self, description: Description
    ) -> Iterator[tuple[Description, Condition]]:
        """Yield ``(refined_description, added_condition)`` pairs.

        Refinements that do not change the canonical form (e.g. adding a
        looser bound on an already-bounded attribute) and refinements
        that are syntactically contradictory are skipped. Extensions are
        *not* computed here; the caller combines its cached parent mask
        with ``mask_of(added_condition)``.
        """
        parent = description.canonical()
        equality_bound = {
            c.attribute for c in parent.conditions if isinstance(c, EqualsCondition)
        }
        for condition in self._pool:
            if isinstance(condition, EqualsCondition):
                if condition.attribute in equality_bound:
                    # A conjunction with two equalities on one attribute is
                    # either redundant or empty; never useful.
                    continue
            refined = parent.with_condition(condition).canonical()
            if refined == parent:
                continue
            if refined.is_contradictory():
                continue
            yield refined, condition

    def expand(
        self,
        beam: Sequence[tuple[tuple[int, ...], np.ndarray]],
        seen: set[tuple[int, ...]],
        *,
        features: np.ndarray | None = None,
        min_size: int = 1,
        max_size: int | None = None,
        budget: TimeBudget | None = None,
    ) -> Expansion:
        """Refine every ``(code, mask)`` parent of a search level by one condition.

        Produces the same refinements, in the same order, as
        :meth:`refinements` on each decoded parent. A parent's code must
        be the tuple code of a canonical, non-contradictory description
        (every code :meth:`expand` returns is; the root is ``()``), and
        its mask that description's extension. A refinement whose code
        is in ``seen`` is dropped as a duplicate; every other one is
        added to ``seen`` *before* its row count is checked against the
        coverage bounds ``min_size <= size <= max_size``
        (``max_size=None`` is unbounded), so ``seen`` spans every level
        it is passed to. ``budget`` is polled before each parent; once
        it has expired the expansion stops and reports ``expired``.

        ``features`` is an ``(n_rows, m)`` float matrix whose column sums
        over each candidate's extension are returned in ``sums``;
        ``None`` returns the row counts only. Every parent in a chunk
        contributes the rows ``[mask, mask * features]'`` to one matrix
        ``W``, and ``W`` times the ``(n_rows, R)`` float condition table
        gives the sums of every condition's refinement of every parent in
        the chunk.
        """
        table = self._tables()
        float_table = self._float_table()
        n_rows = self.dataset.n_rows
        if max_size is None:
            max_size = n_rows
        # ``[1, features]`` transposed: each parent's rows of W are contiguous.
        width = 1 if features is None else 1 + features.shape[1]
        columns = np.ones((width, n_rows))
        if features is not None:
            columns[1:] = features.T
        per_product = max(1, _GEMM_COLUMNS // width)
        is_le = table.pool_kind == _LE
        is_ge = table.pool_kind == _GE
        is_eq = table.pool_kind == _EQ
        threshold = table.pool_threshold
        # Room for every refinement of every parent: pages never written
        # are never committed, so only the level's real rows cost memory.
        sums = np.empty((len(beam) * len(self._pool), width))
        codes: list[tuple[int, ...]] = []
        pool: list[np.ndarray] = []  # pool index of each added condition
        n_children = np.zeros(len(beam), dtype=np.intp)
        duplicates = out_of_range = 0
        expired = False
        for j, (code, _) in enumerate(beam):
            if budget is not None and budget.expired:
                expired = True
                break
            if j % per_product == 0:
                chunk = np.array([mask for _, mask in beam[j : j + per_product]], dtype=float)
                w = chunk[:, None, :] * columns  # W transposed: (chunk, width, n_rows)
                product = (w.reshape(-1, n_rows) @ float_table).reshape(
                    len(chunk), width, -1
                )
            # The parent's interval and equality per attribute, and the
            # code slot of each bound: a tighter bound of the same kind
            # takes that slot, anything else is inserted in rank order.
            upper = np.full(table.n_attributes, np.inf)
            lower = np.full(table.n_attributes, -np.inf)
            has_equality = np.zeros(table.n_attributes, dtype=bool)
            slot = np.full((table.n_attributes, 3), -1, dtype=np.intp)
            for position, r in enumerate(code):
                attribute, kind, bound = table.rank_info[r]
                if kind == _EQ:
                    has_equality[attribute] = True
                    continue
                if kind == _LE:
                    upper[attribute] = bound
                else:
                    lower[attribute] = bound
                slot[attribute, kind] = position
            ub = upper[table.pool_attr]
            lb = lower[table.pool_attr]
            admissible = np.flatnonzero(
                (is_le & (threshold < ub) & (threshold >= lb))
                | (is_ge & (threshold > lb) & (threshold <= ub))
                | (is_eq & ~has_equality[table.pool_attr])
            )
            ranks = table.pool_rank[admissible]
            replaced = slot[table.pool_attr[admissible], table.pool_kind[admissible]]
            inserted = np.searchsorted(np.asarray(code, dtype=np.intp), ranks)
            cut_lo = np.where(replaced >= 0, replaced, inserted)
            cut_hi = cut_lo + (replaced >= 0)
            fresh: list[int] = []
            fresh_codes: list[tuple[int, ...]] = []
            for i, (r, lo, hi) in enumerate(
                zip(ranks.tolist(), cut_lo.tolist(), cut_hi.tolist())
            ):
                child = code[:lo] + (r,) + code[hi:]
                if child in seen:
                    continue
                seen.add(child)
                fresh.append(i)
                fresh_codes.append(child)
            duplicates += len(ranks) - len(fresh)
            if not fresh:
                continue
            start = len(codes)
            block = sums[start : start + len(fresh)]
            block[:] = product[j % per_product][:, ranks[fresh]].T
            sizes = block[:, 0]
            kept = np.flatnonzero((sizes >= min_size) & (sizes <= max_size))
            out_of_range += len(fresh) - len(kept)
            if len(kept) < len(fresh):
                block[: len(kept)] = block[kept]
            codes.extend(fresh_codes[i] for i in kept.tolist())
            pool.append(admissible[fresh][kept])
            n_children[j] = len(kept)
        added = np.concatenate(pool) if pool else np.zeros(0, dtype=np.intp)
        return Expansion(
            codes=codes,
            attributes=table.pool_attr[added],
            parents=np.repeat(np.arange(len(beam)), n_children),
            ranks=table.pool_rank[added],
            sums=sums[: len(codes)],
            duplicates=duplicates,
            out_of_range=out_of_range,
            expired=expired,
        )

    def child_masks(
        self,
        beam: Sequence[tuple[tuple[int, ...], np.ndarray]],
        parents: np.ndarray,
        ranks: np.ndarray,
    ) -> np.ndarray:
        """Extensions of the candidates ``(parents, ranks)`` of an :class:`Expansion`.

        ``beam`` is the level's parent list as passed to :meth:`expand`.
        Returns a ``(len(parents), n_rows)`` boolean stack: each row is
        its condition's mask AND its parent's mask.
        """
        parent_masks = np.stack([mask for _, mask in beam])
        return np.take(self._tables().masks, ranks, axis=0) & parent_masks[parents]
