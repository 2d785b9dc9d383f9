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
  extension, come from one matrix product per chunk of parent extensions
  against a float copy of the dense condition-mask table. A candidate's
  sums depend only on its parent's extension and its added condition, so
  parents with one extension (keyed by their mask bytes) share one row
  of sums per condition, and a product whose parents cover at most half
  the rows runs over those rows only.
  :meth:`RefinementOperator.child_masks` builds the masks of the few
  candidates a caller keeps, by one gather-AND over the boolean table,
  and :meth:`RefinementOperator.describe` decodes a code.

The condition tables are built on first use, not at construction, so
building an operator stays as cheap as building its pool.
"""

from __future__ import annotations

from itertools import compress
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
#: distinct parent extension adds ``1 + m`` rows to ``W``, so about
#: ``256 // (1 + m)`` extensions share one matrix product against the
#: condition table.
_GEMM_COLUMNS = 256
#: A sums product runs over only the rows its extensions cover when they
#: are at most this share of the dataset, and over every row otherwise.
#: Replayed in both forms on one x86-64 core with one BLAS thread, a
#: gathered product of the benchmark took about 1.4 times the covered
#: share of a full-row product's time on crime's and mammals' tables, and
#: more on small tables; at 0.5 every product took its faster form.
_GATHER_FRACTION = 0.5
#: Rows gathered per block of such a product, which bounds the gathered
#: copy of the condition table.
_GATHER_ROWS = 256


class Expansion(NamedTuple):
    """One search level's candidates, from :meth:`RefinementOperator.expand`.

    Candidates are in generation order: parents in beam order, and each
    parent's refinements in pool order. Their extensions are not built;
    pass ``parents`` and ``ranks`` to
    :meth:`RefinementOperator.child_masks` for the ones a caller keeps.
    Candidates that add the same condition to parents with the same
    extension have the same extension, so they share one row of
    ``sums``; ``sums_row`` maps each candidate to it.
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
    #: ``(u, 1 + m)``, one row per distinct (parent extension, added
    #: condition) pair: its row count, then the column sums of the
    #: ``(n_rows, m)`` feature matrix over its extension.
    sums: np.ndarray
    #: Row of ``sums`` of each candidate, ``(k,)``.
    sums_row: np.ndarray
    #: Number of distinct parent extensions expanded.
    extensions: int
    #: Refinements dropped because their code was already in ``seen``.
    duplicates: int
    #: Refinements dropped by the coverage bounds.
    out_of_range: int
    #: True if the budget ran out before every parent was expanded and
    #: every row of sums computed.
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
        it is passed to. ``budget`` is polled before each parent and
        before each sums product; once it has expired the expansion
        stops and reports ``expired``, and returns only the candidates
        whose sums were computed in time.

        ``features`` is an ``(n_rows, m)`` float matrix whose column sums
        over each candidate's extension are returned in ``sums``;
        ``None`` returns the row counts only. The work runs in two
        passes:

        1. Per parent: admissibility, dedup against ``seen`` and the
           children's codes, as above. Parents are keyed by their mask
           bytes, so parents with one extension share one number.
        2. One row of sums per distinct (extension, added condition)
           pair, extension-major. Each chunk of distinct extensions
           contributes the rows ``[mask, mask * features]'`` to one
           matrix ``W``, and ``W`` times the ``(n_rows, R)`` float
           condition table gives the sums of every condition's refinement
           of every extension in the chunk. When the chunk's extensions
           cover at most half the rows (:data:`_GATHER_FRACTION`), the
           product runs over those rows only. The coverage filter then
           reads the exact row counts of the distinct rows.
        """
        table = self._tables()
        n_rows = self.dataset.n_rows
        if max_size is None:
            max_size = n_rows
        is_le = table.pool_kind == _LE
        is_ge = table.pool_kind == _GE
        is_eq = table.pool_kind == _EQ
        threshold = table.pool_threshold
        # Pass 1: each parent's fresh children, and the number of its
        # extension among the distinct ones, in order of first appearance.
        extension_of: dict[bytes, int] = {}
        parent_extension = np.zeros(len(beam), dtype=np.intp)
        codes: list[tuple[int, ...]] = []
        pool: list[np.ndarray] = []  # pool index of each added condition
        n_children = np.zeros(len(beam), dtype=np.intp)
        duplicates = 0
        expired = False
        for j, (code, mask) in enumerate(beam):
            if budget is not None and budget.expired:
                expired = True
                break
            parent_extension[j] = extension_of.setdefault(mask.tobytes(), len(extension_of))
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
            for i, (r, lo, hi) in enumerate(
                zip(ranks.tolist(), cut_lo.tolist(), cut_hi.tolist())
            ):
                child = code[:lo] + (r,) + code[hi:]
                if child in seen:
                    continue
                seen.add(child)
                fresh.append(i)
                codes.append(child)
            duplicates += len(ranks) - len(fresh)
            pool.append(admissible[fresh])
            n_children[j] = len(fresh)
        added = np.concatenate(pool) if pool else np.zeros(0, dtype=np.intp)
        parents = np.repeat(np.arange(len(beam)), n_children)
        # Pass 2: one row of sums per distinct (extension, added rank)
        # pair, extension-major, then the coverage filter on those rows.
        n_ranks = len(table.by_rank)
        row_keys, sums_row = np.unique(
            parent_extension[parents] * n_ranks + table.pool_rank[added],
            return_inverse=True,
        )
        row_extension, row_rank = np.divmod(row_keys, n_ranks)
        extension_masks = [np.frombuffer(key, dtype=bool) for key in extension_of]
        sums = self._extension_sums(
            extension_masks, row_extension, row_rank, features, budget
        )
        # Rows the budget cut off are not summed; their candidates are
        # dropped like the children of a parent that was not expanded.
        in_range = np.zeros(len(row_keys), dtype=bool)
        in_range[: len(sums)] = (sums[:, 0] >= min_size) & (sums[:, 0] <= max_size)
        keep = in_range[sums_row]
        kept = np.flatnonzero(keep)
        return Expansion(
            codes=list(compress(codes, keep.tolist())),
            attributes=table.pool_attr[added[kept]],
            parents=parents[kept],
            ranks=table.pool_rank[added[kept]],
            sums=sums[in_range[: len(sums)]],
            sums_row=(np.cumsum(in_range) - 1)[sums_row[kept]],
            extensions=len(extension_of),
            duplicates=duplicates,
            out_of_range=int(np.count_nonzero(sums_row < len(sums))) - len(kept),
            expired=expired or len(sums) < len(row_keys),
        )

    def _extension_sums(
        self,
        extension_masks: Sequence[np.ndarray],
        row_extension: np.ndarray,
        row_rank: np.ndarray,
        features: np.ndarray | None,
        budget: TimeBudget | None,
    ) -> np.ndarray:
        """Pass 2 of :meth:`expand`: the ``(u, 1 + m)`` sums, one row per pair.

        Row ``i`` sums ``[1, features]`` over extension
        ``row_extension[i]`` AND the condition of rank ``row_rank[i]``;
        ``row_extension`` is sorted, so each extension's rows are one
        slice. A chunk of extensions that covers at most
        :data:`_GATHER_FRACTION` of the rows gathers them in blocks of
        :data:`_GATHER_ROWS`. ``budget`` is polled before each product;
        once it has expired, the rows summed so far are returned.
        """
        float_table = self._float_table()
        n_rows = self.dataset.n_rows
        # ``[1, features]`` transposed: each extension's rows of W are contiguous.
        width = 1 if features is None else 1 + features.shape[1]
        columns = np.ones((width, n_rows))
        if features is not None:
            columns[1:] = features.T
        per_product = max(1, _GEMM_COLUMNS // width)
        bounds = np.searchsorted(row_extension, np.arange(len(extension_masks) + 1))
        extensions = np.flatnonzero(np.diff(bounds)).tolist()  # those with rows
        bounds = bounds.tolist()
        sums = np.empty((len(row_rank), width))
        for c in range(0, len(extensions), per_product):
            if budget is not None and budget.expired:
                return sums[: bounds[extensions[c]]]
            chunk = np.array([extension_masks[e] for e in extensions[c : c + per_product]])
            rows = np.flatnonzero(np.logical_or.reduce(chunk))
            if len(rows) > _GATHER_FRACTION * n_rows:
                w = chunk[:, None, :] * columns  # W transposed, (chunk, width, n_rows)
                product = w.reshape(len(chunk) * width, -1) @ float_table
            else:
                product = np.zeros((len(chunk) * width, float_table.shape[1]))
                for i in range(0, len(rows), _GATHER_ROWS):
                    block = rows[i : i + _GATHER_ROWS]
                    w = chunk[:, None, block] * columns[:, block]
                    product += w.reshape(len(product), -1) @ float_table[block]
            product = product.reshape(len(chunk), width, -1)
            for i, e in enumerate(extensions[c : c + per_product]):
                lo, hi = bounds[e], bounds[e + 1]
                sums[lo:hi] = product[i][:, row_rank[lo:hi]].T
        return sums

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
