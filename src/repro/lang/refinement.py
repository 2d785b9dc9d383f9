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
  once, on integer codes, and is what the searches run. A condition's
  *rank* is its position in ``Condition.sort_key()`` order over the
  pool's ``R`` distinct conditions, and a canonical description with
  ranks ``r_0 < ... < r_{l-1}`` is coded as the one integer
  ``sum((r_i + 1) * (R + 1)**i)``: its base-``(R + 1)`` digits are its
  ranks plus one, lowest first, the root is ``0``, and a code's length
  is its number of digits. Codes are ``int64`` while the longest child
  of a level fits in 63 bits and Python ints past that, so they stay
  exact at any depth. Admissibility, canonicalisation and dedup become
  arithmetic on numbers, run once per level: one (parents x pool)
  admissibility mask, each child's code from its parent's prefix and
  suffix sums of digits, and one ``np.unique`` of the level's codes,
  checked against the ``seen`` set of codes. A level's extensions are
  never built: each candidate's row count, and the column sums of a
  caller-supplied feature matrix over its extension, come from one
  matrix product per chunk of parent extensions against a float copy
  of the dense condition-mask table. A candidate's sums depend only on
  its parent's extension and its added condition, so parents with one
  extension (keyed by their mask bytes) share one row of sums per
  condition, and a product whose parents cover at most half the rows
  runs over those rows only. A budget is polled once before the
  level's codes are built and before each product.
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

    #: Canonical code of each candidate, ``(k,)``: ``int64``, or Python
    #: ints in an object array once a code can pass 63 bits (decode with
    #: ``describe``).
    codes: np.ndarray
    #: Condition count of each candidate, ``(k,)``: its code's length.
    lengths: np.ndarray
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
    #: Refinements dropped because ``seen`` or an earlier refinement of
    #: the level had their code.
    duplicates: int
    #: Refinements dropped by the coverage bounds.
    out_of_range: int
    #: True if the budget ran out before the level's codes were built or
    #: before every row of sums was computed.
    expired: bool


class _Tables(NamedTuple):
    """The pool as integer arrays, plus every condition's mask."""

    rank: dict[Condition, int]  # condition -> rank
    by_rank: tuple[Condition, ...]  # rank -> condition
    rank_attr: np.ndarray  # (R,) attribute id of each rank
    rank_kind: np.ndarray  # (R,) _LE | _GE | _EQ
    rank_threshold: np.ndarray  # (R,) threshold; NaN for equalities
    pool_rank: np.ndarray  # (P,) rank of each pool condition, pool order
    pool_attr: np.ndarray  # (P,) rank_attr[pool_rank]
    pool_kind: np.ndarray  # (P,) rank_kind[pool_rank]
    pool_threshold: np.ndarray  # (P,) rank_threshold[pool_rank]
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
        rank_attr = np.array([attribute_ids[c.attribute] for c in by_rank], dtype=np.intp)
        rank_kind = np.full(len(by_rank), _EQ, dtype=np.intp)
        rank_threshold = np.full(len(by_rank), np.nan)
        masks = np.empty((len(by_rank), self.dataset.n_rows), dtype=bool)
        for r, condition in enumerate(by_rank):
            masks[r] = condition.mask(self.dataset)
            if isinstance(condition, NumericCondition):
                rank_kind[r] = _LE if condition.op == LE else _GE
                rank_threshold[r] = condition.threshold
        masks.setflags(write=False)
        pool_rank = np.array([rank[c] for c in self._pool], dtype=np.intp)
        self._table = _Tables(
            rank=rank,
            by_rank=by_rank,
            rank_attr=rank_attr,
            rank_kind=rank_kind,
            rank_threshold=rank_threshold,
            pool_rank=pool_rank,
            pool_attr=rank_attr[pool_rank],
            pool_kind=rank_kind[pool_rank],
            pool_threshold=rank_threshold[pool_rank],
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

    def describe(self, code: int) -> Description:
        """Decode a canonical code from :meth:`expand` into its description.

        A code is ``sum((r_i + 1) * (R + 1)**i)`` over its conditions'
        ranks ``r_0 < ... < r_{l-1}`` (see the module docstring), so its
        base-``(R + 1)`` digits, lowest first, are those ranks plus one.
        ``int64`` and Python int codes decode alike. The result equals its
        own ``canonical()`` form.
        """
        by_rank = self._tables().by_rank
        return Description(tuple(by_rank[r] for r in self._ranks(code)))

    def _ranks(self, code: int) -> list[int]:
        """The ranks of a code's conditions, ascending."""
        base = len(self._tables().by_rank) + 1
        code, ranks = int(code), []
        while code:
            code, digit = divmod(code, base)
            ranks.append(digit - 1)
        return ranks

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
        beam: Sequence[tuple[int, np.ndarray]],
        seen: set[int],
        *,
        features: np.ndarray | None = None,
        min_size: int = 1,
        max_size: int | None = None,
        budget: TimeBudget | None = None,
    ) -> Expansion:
        """Refine every ``(code, mask)`` parent of a search level by one condition.

        Produces the same refinements, in the same order, as
        :meth:`refinements` on each decoded parent. A parent's code must
        be the integer code of a canonical, non-contradictory description
        (every code :meth:`expand` returns is; the root is ``0``), and
        its mask that description's extension. A refinement is dropped as
        a duplicate when ``seen`` or an earlier refinement of the level
        has its code; every other code is added to ``seen`` *before* its
        row count is checked against the coverage bounds
        ``min_size <= size <= max_size`` (``max_size=None`` is
        unbounded), so ``seen`` spans every level it is passed to.
        ``budget`` is polled once before pass 1 and before each sums
        product; once it has expired the expansion stops and reports
        ``expired``, and returns only the candidates whose sums were
        computed in time (none, and ``seen`` untouched, if it expired
        before pass 1).

        ``features`` is an ``(n_rows, m)`` float matrix whose column sums
        over each candidate's extension are returned in ``sums``;
        ``None`` returns the row counts only. The work runs in two
        passes:

        1. The whole level at once: one (parents x pool) admissibility
           mask, whose nonzeros are the refinements in generation order;
           each one's code from its parent's prefix and suffix sums of
           digits; and one ``np.unique`` of the level's codes, whose
           first occurrences are checked against ``seen``. Codes are
           ``int64`` when ``(R + 1)**(l + 1) < 2**63`` for the longest
           parent's length ``l``, and Python ints in an object array
           otherwise. Parents are keyed by their mask bytes, so parents
           with one extension share one number.
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
        expired = budget is not None and budget.expired
        if expired:
            beam = []
        n_ranks = len(table.by_rank)
        base = n_ranks + 1
        # Pass 1. The number of each parent's extension among the
        # distinct ones, in order of first appearance.
        extension_of: dict[bytes, int] = {}
        parent_extension = np.array(
            [extension_of.setdefault(mask.tobytes(), len(extension_of)) for _, mask in beam],
            dtype=np.intp,
        )
        # Each parent's ranks, padded with R (past every rank).
        decoded = [self._ranks(code) for code, _ in beam]
        n_conditions = np.array([len(ranks) for ranks in decoded], dtype=np.intp)
        longest = int(n_conditions.max(initial=0))
        parent_ranks = np.array(
            [ranks + [n_ranks] * (longest - len(ranks)) for ranks in decoded], dtype=np.intp
        ).reshape(len(beam), longest)
        j, position = np.nonzero(parent_ranks < n_ranks)
        r = parent_ranks[j, position]
        # The parents' interval and equality per attribute, and the code
        # position of each bound: a tighter bound of the same kind takes
        # that position, anything else is inserted in rank order.
        shape = (len(beam), table.n_attributes)
        upper = np.full(shape, np.inf)
        lower = np.full(shape, -np.inf)
        has_equality = np.zeros(shape, dtype=bool)
        slot = np.full((*shape, 3), -1, dtype=np.intp)
        attribute, kind = table.rank_attr[r], table.rank_kind[r]
        le, ge, eq = kind == _LE, kind == _GE, kind == _EQ
        upper[j[le], attribute[le]] = table.rank_threshold[r[le]]
        lower[j[ge], attribute[ge]] = table.rank_threshold[r[ge]]
        has_equality[j[eq], attribute[eq]] = True
        slot[j, attribute, kind] = position
        # Admissibility; the nonzeros are parent-major, in pool order.
        pool_attr, threshold = table.pool_attr, table.pool_threshold
        ub, lb = upper[:, pool_attr], lower[:, pool_attr]
        parents, added = np.nonzero(
            ((table.pool_kind == _LE) & (threshold < ub) & (threshold >= lb))
            | ((table.pool_kind == _GE) & (threshold > lb) & (threshold <= ub))
            | ((table.pool_kind == _EQ) & ~has_equality[:, pool_attr])
        )
        ranks = table.pool_rank[added]
        replaced = slot[parents, pool_attr[added], table.pool_kind[added]]
        replaces = replaced >= 0
        inserted = np.count_nonzero(parent_ranks[parents] < ranks[:, None], axis=1)
        cut_lo = np.where(replaces, replaced, inserted)
        cut_hi = cut_lo + replaces
        # Each child's code: its parent's digits below the cut (low), its
        # own digit, and its parent's digits from the cut up (high),
        # shifted one place further when the child inserts.
        dtype = np.int64 if base ** (longest + 1) < 2**63 else object
        power = np.array([base**t for t in range(longest + 1)], dtype=dtype)
        digits = np.zeros((len(beam), longest), dtype=dtype)
        digits[j, position] = (r + 1) * power[position]
        low = np.zeros((len(beam), longest + 1), dtype=dtype)
        high = np.zeros_like(low)
        low[:, 1:] = np.cumsum(digits, axis=1)
        high[:, :-1] = np.cumsum(digits[:, ::-1], axis=1)[:, ::-1]
        codes = (
            low[parents, cut_lo]
            + (ranks + 1) * power[cut_lo]
            + high[parents, cut_hi] * np.where(replaces, 1, base)
        )
        lengths = n_conditions[parents] + ~replaces
        # Dedup: the first child of the level with each code, unless seen has it.
        unique, first = np.unique(codes, return_index=True)
        fresh = ~np.fromiter(
            map(seen.__contains__, unique.tolist()), dtype=bool, count=len(unique)
        )
        seen.update(unique[fresh].tolist())
        keep = np.sort(first[fresh])
        duplicates = len(codes) - len(keep)
        parents, added, codes, lengths = parents[keep], added[keep], codes[keep], lengths[keep]
        # Pass 2: one row of sums per distinct (extension, added rank)
        # pair, extension-major, then the coverage filter on those rows.
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
        kept = np.flatnonzero(in_range[sums_row])
        return Expansion(
            codes=codes[kept],
            lengths=lengths[kept],
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
        beam: Sequence[tuple[int, np.ndarray]],
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
