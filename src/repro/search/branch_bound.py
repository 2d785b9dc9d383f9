"""Branch-and-bound mining of optimal location patterns (single target).

The paper's §V: "it may be feasible to devise a branch-and-bound approach
to mine optimal location patterns efficiently. Indeed this appears to be
the most relevant question to be addressed in the future." This module
implements that for a single real-valued target against a fresh
(single-block) background model, in the style of Boley et al. (2017)'s
tight optimistic estimators.

The estimator
-------------
At a search node with extension ``E``, every refinement selects some
``S`` that is a subset of ``E``. Under a single-block model ``N(mu, s2)``, the IC
of a subgroup ``S`` of size ``k`` with mean ``m`` is

    IC(S) = 1/2 * ( log(2 pi s2 / k) + k (m - mu)^2 / s2 ).

For fixed ``k``, the subgroup mean furthest from ``mu`` over all size-k
subsets of ``E`` is attained by the ``k`` largest or the ``k`` smallest
target values in ``E`` (a classical exchange argument). Scanning all
admissible ``k`` over the prefix/suffix means of the sorted values gives
the exact maximum of IC over *all* subsets of ``E`` in O(|E| log |E|) —
a valid (and tight, in the subset relaxation) optimistic estimate for
every describable refinement.

Since refining a canonical description never decreases its condition
count, the node's own DL lower-bounds every descendant's DL, so

    SI_bound(node) = IC_bound(E) / DL(|conditions|)

soundly prunes: if it does not beat the incumbent, no descendant can.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SearchError
from repro.interest.dl import LOCATION, DLParams, description_length
from repro.lang.refinement import RefinementOperator
from repro.model.background import BackgroundModel
from repro.model.gaussian import LOG_2PI
from repro.search.beam import _search_result, _TopRows
from repro.search.config import SearchConfig
from repro.search.results import SearchResult
from repro.utils.timer import TimeBudget


@dataclass(frozen=True)
class BranchBoundStats:
    """Search effort accounting, for the pruning-effectiveness bench."""

    nodes_expanded: int
    nodes_pruned: int
    nodes_evaluated: int


class BranchAndBoundLocationSearch:
    """Provably optimal location-pattern search for one target attribute.

    Parameters
    ----------
    operator:
        Refinement operator defining the description language (the
        optimum is with respect to this language and ``config.max_depth``).
    model:
        A *fresh* background model (single block, one target). The bound
        argument needs one shared ``(mu, s2)``; for evolved models use the
        beam search.
    config:
        ``max_depth``, coverage limits and the time budget are honored;
        ``beam_width`` is ignored (the search is exhaustive up to pruning).
        If the time budget expires the incumbent is returned with
        ``expired=True`` (it may then be suboptimal).
    """

    def __init__(
        self,
        operator: RefinementOperator,
        model: BackgroundModel,
        targets: np.ndarray,
        *,
        config: SearchConfig = SearchConfig(),
        dl_params: DLParams = DLParams(),
    ) -> None:
        targets = np.asarray(targets, dtype=float)
        if targets.ndim == 2:
            if targets.shape[1] != 1:
                raise SearchError(
                    "branch-and-bound supports a single target attribute"
                )
            targets = targets[:, 0]
        if model.dim != 1:
            raise SearchError("branch-and-bound needs a 1-D background model")
        if model.n_blocks != 1:
            raise SearchError(
                "branch-and-bound needs a fresh (single-block) model; "
                "mine evolved models with the beam search"
            )
        if targets.shape[0] != model.n_rows:
            raise SearchError("targets and model row counts differ")
        self.operator = operator
        self.model = model
        self.targets = targets
        self.config = config
        self.dl_params = dl_params
        self._mu = float(model.block_mean(0)[0])
        self._s2 = float(model.block_cov(0)[0, 0])
        self._max_size = config.max_size(targets.shape[0])

    # ------------------------------------------------------------------ #
    # Information content and its optimistic bound
    # ------------------------------------------------------------------ #
    def _ic_of(self, k: float, mean: float) -> float:
        return 0.5 * (
            LOG_2PI + math.log(self._s2 / k) + k * (mean - self._mu) ** 2 / self._s2
        )

    def _ic_curve(self, sizes: np.ndarray, means: np.ndarray) -> np.ndarray:
        return 0.5 * (
            LOG_2PI
            + np.log(self._s2 / sizes)
            + sizes * (means - self._mu) ** 2 / self._s2
        )

    def optimistic_ic(self, mask: np.ndarray) -> float:
        """Exact max of IC over all admissible-size subsets of ``mask``."""
        values = np.sort(self.targets[mask])
        m = values.shape[0]
        lo = self.config.min_coverage
        hi = min(m, self._max_size)
        if lo > hi:
            return -math.inf
        sizes = np.arange(lo, hi + 1, dtype=float)
        prefix = np.cumsum(values)
        low_means = prefix[lo - 1 : hi] / sizes            # k smallest values
        total = prefix[-1]
        high_start = m - lo
        high_sums = total - np.concatenate(
            ([0.0], prefix[:-1])
        )  # suffix sums: sum of values[i:]
        high_means = high_sums[m - hi : high_start + 1][::-1] / sizes
        curve = np.maximum(
            self._ic_curve(sizes, low_means), self._ic_curve(sizes, high_means)
        )
        return float(curve.max())

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def run(self) -> SearchResult:
        """Exhaust the (pruned) description tree; returns the optimum."""
        config = self.config
        n = self.targets.shape[0]
        budget = TimeBudget(config.time_budget_seconds)

        top = _TopRows(config.top_k)
        # DL by condition count, as the beam search tables it.
        dl = [
            description_length(c, kind=LOCATION, params=self.dl_params)
            for c in range(1, config.max_depth + 1)
        ]
        seen: set[int] = set()
        expanded = pruned = evaluated = 0
        expired = False
        depth_reached = 0

        # Depth-first with best-IC-first child ordering, so strong
        # incumbents appear early and sharpen the pruning threshold. A
        # node is (code, mask, depth, condition count).
        root_mask = np.ones(n, dtype=bool)
        stack: list[tuple[int, np.ndarray, int, int]] = [(0, root_mask, 0, 0)]

        while stack:
            if budget.expired:
                expired = True
                break
            code, mask, depth, length = stack.pop()
            if depth >= config.max_depth:
                continue
            # Prune on the optimistic bound before expanding; the log's
            # first row is the incumbent (the first child with the best SI).
            if len(top):
                if self.optimistic_ic(mask) / dl[max(length, 1) - 1] <= top.scores[0]:
                    pruned += 1
                    continue
            expanded += 1

            parent = [(code, mask)]
            level = self.operator.expand(
                parent,
                seen,
                min_size=config.min_coverage,
                max_size=self._max_size,
            )
            masks = self.operator.child_masks(parent, level.parents, level.ranks)
            lengths = level.lengths.tolist()
            means = [float(self.targets[child_mask].mean()) for child_mask in masks]
            ics = [
                self._ic_of(size, mean)
                for size, mean in zip(masks.sum(axis=1).tolist(), means)
            ]
            evaluated += len(ics)
            depth_reached = max(depth_reached, *lengths, 0)
            ic_column = np.array(ics, dtype=float)
            dl_column = np.array([dl[c - 1] for c in lengths], dtype=float)
            # Each child's row enters the log as columns; entries are
            # built only for the final log.
            top.merge(
                ic_column / dl_column,
                ic=ic_column,
                dl=dl_column,
                observed=np.array(means, dtype=float)[:, None],
                codes=level.codes,
                masks=masks,
            )

            # Push the weakest child first so the strongest is explored next.
            codes = level.codes.tolist()
            for i in sorted(range(len(ics)), key=ics.__getitem__):
                stack.append((codes[i], masks[i], depth + 1, lengths[i]))

        self.stats = BranchBoundStats(
            nodes_expanded=expanded,
            nodes_pruned=pruned,
            nodes_evaluated=evaluated,
        )
        return _search_result(
            self.operator,
            top,
            n_evaluated=evaluated,
            depth_reached=depth_reached,
            expired=expired,
        )


def find_optimal_location(
    dataset,
    *,
    target: str | None = None,
    config: SearchConfig = SearchConfig(),
    dl_params: DLParams = DLParams(),
) -> SearchResult:
    """Convenience wrapper: optimal location pattern of one target column.

    ``target`` defaults to the dataset's only target attribute; multi-
    target datasets must name one.
    """
    if target is None:
        if dataset.n_targets != 1:
            raise SearchError(
                "dataset has several targets; pass target=<name>"
            )
        target = dataset.target_names[0]
    narrowed = dataset.with_targets([target])
    model = BackgroundModel.from_targets(narrowed.targets)
    operator = RefinementOperator(
        narrowed,
        n_split_points=config.n_split_points,
        strategy=config.split_strategy,
        attributes=config.attributes,
    )
    search = BranchAndBoundLocationSearch(
        operator, model, narrowed.targets, config=config, dl_params=dl_params
    )
    return search.run()
