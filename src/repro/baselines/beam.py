"""Beam search driven by a classical quality measure.

Same level-wise exploration as :class:`repro.search.beam.LocationBeamSearch`
but scored by any :class:`~repro.baselines.quality.QualityMeasure` —
the apples-to-apples comparison harness for SI vs the classical measures
(same language, same beam, different objective).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.quality import QualityMeasure
from repro.lang.description import Description
from repro.lang.refinement import RefinementOperator
from repro.search.beam import _ResultLog, _best_first
from repro.search.config import SearchConfig
from repro.utils.timer import TimeBudget


@dataclass(frozen=True)
class QualitySubgroup:
    """A subgroup scored by a baseline quality measure."""

    description: Description
    indices: np.ndarray
    quality: float

    @property
    def size(self) -> int:
        return int(self.indices.shape[0])

    def __str__(self) -> str:
        return f"{self.description}  (n={self.size}, q={self.quality:.4g})"


@dataclass(frozen=True)
class QualitySearchResult:
    """Outcome of one quality beam search: the winner plus the top-k log."""

    best: QualitySubgroup | None
    log: tuple[QualitySubgroup, ...]
    n_evaluated: int
    expired: bool  # True if the time budget cut the search short


class QualityBeamSearch:
    """Beam search maximizing an objective quality measure."""

    def __init__(
        self,
        operator: RefinementOperator,
        quality: QualityMeasure,
        *,
        config: SearchConfig = SearchConfig(),
    ) -> None:
        self.operator = operator
        self.quality = quality
        self.config = config

    def run(self) -> QualitySearchResult:
        """Execute the level-wise search under the quality measure."""
        config = self.config
        n_rows = self.quality.n_rows
        budget = TimeBudget(config.time_budget_seconds)
        max_size = config.max_size(n_rows)

        log = _ResultLog(config.top_k)
        beam: list[tuple[int, np.ndarray]] = [(0, np.ones(n_rows, dtype=bool))]
        seen: set[int] = set()
        n_evaluated = 0
        expired = False

        for _depth in range(1, config.max_depth + 1):
            level = self.operator.expand(
                beam,
                seen,
                min_size=config.min_coverage,
                max_size=max_size,
                budget=budget,
            )
            masks = self.operator.child_masks(beam, level.parents, level.ranks)
            qualities = np.array([float(self.quality(mask)) for mask in masks])
            n_evaluated += len(qualities)
            # Best first, generation order among ties; only a level's best
            # top_k can reach the log.
            ranking = _best_first(qualities, max(config.top_k, config.beam_width))
            for i in np.sort(ranking[: config.top_k]).tolist():
                subgroup = QualitySubgroup(
                    description=self.operator.describe(level.codes[i]),
                    indices=np.flatnonzero(masks[i]),
                    quality=float(qualities[i]),
                )
                log.add(subgroup.quality, subgroup)
            if level.expired:
                expired = True
                break
            if not len(level.codes):
                break
            top = ranking[: config.beam_width]
            beam = list(zip(level.codes[top].tolist(), masks[top]))

        ranked = log.ranked()
        return QualitySearchResult(
            best=ranked[0] if ranked else None,
            log=tuple(ranked),
            n_evaluated=n_evaluated,
            expired=expired,
        )
