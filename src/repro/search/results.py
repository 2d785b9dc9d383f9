"""Result records produced by the searches and the iterative miner."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.interest.si import PatternScore
from repro.lang.description import Description
from repro.model.patterns import LocationConstraint, SpreadConstraint


@dataclass(frozen=True)
class ScoredSubgroup:
    """One beam-search log entry: an intention, its extension, its score."""

    description: Description
    indices: np.ndarray
    observed_mean: np.ndarray
    score: PatternScore

    @property
    def size(self) -> int:
        return int(self.indices.shape[0])

    @property
    def si(self) -> float:
        return self.score.si

    def __str__(self) -> str:
        return f"{self.description}  (n={self.size}, SI={self.si:.2f})"


class SubgroupLog(Sequence):
    """A search's ranked log, whose entries are built when first read.

    It stands for the tuple of :class:`ScoredSubgroup` entries ``build()``
    returns, and behaves as that tuple does: ``len`` (which builds
    nothing), iteration, indexing, slicing (a slice is a tuple), and
    ``==`` against a tuple or another log. The entries are built once;
    every later read returns the same objects. A log pickles as its
    tuple.
    """

    def __init__(self, size: int, build: Callable[[], Iterable[ScoredSubgroup]]) -> None:
        self._size = size
        self._build: Callable[[], Iterable[ScoredSubgroup]] | None = build
        self._entries: tuple[ScoredSubgroup, ...] | None = None

    def _built(self) -> tuple[ScoredSubgroup, ...]:
        if self._entries is None:
            self._entries = tuple(self._build())
            self._build = None
        return self._entries

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self) -> Iterator[ScoredSubgroup]:
        return iter(self._built())

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, SubgroupLog)):
            return self._built() == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(self._built())

    def __reduce__(self):
        return tuple, (self._built(),)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one beam search: the winner plus the top-k log."""

    best: ScoredSubgroup | None
    log: Sequence[ScoredSubgroup]
    n_evaluated: int
    depth_reached: int
    expired: bool  # True if the time budget cut the search short

    def __iter__(self):
        return iter(self.log)

    def __len__(self) -> int:
        return len(self.log)


@dataclass(frozen=True)
class LocationPatternResult:
    """A mined location pattern, ready to present and assimilate."""

    description: Description
    indices: np.ndarray
    mean: np.ndarray
    score: PatternScore
    coverage: float

    @property
    def size(self) -> int:
        return int(self.indices.shape[0])

    @property
    def si(self) -> float:
        return self.score.si

    def constraint(self) -> LocationConstraint:
        """The model-update record for this pattern."""
        return LocationConstraint(self.indices, self.mean)

    def __str__(self) -> str:
        return (
            f"location: {self.description}  "
            f"(n={self.size}, coverage={self.coverage:.1%}, SI={self.si:.2f})"
        )


@dataclass(frozen=True)
class SpreadPatternResult:
    """A mined spread pattern: adds the direction and its variance."""

    description: Description
    indices: np.ndarray
    direction: np.ndarray
    variance: float
    center: np.ndarray
    score: PatternScore

    @property
    def size(self) -> int:
        return int(self.indices.shape[0])

    @property
    def si(self) -> float:
        return self.score.si

    def constraint(self) -> SpreadConstraint:
        """The model-update record for this pattern."""
        return SpreadConstraint(self.indices, self.direction, self.variance, self.center)

    def __str__(self) -> str:
        w = ", ".join(f"{x:+.3f}" for x in self.direction)
        return (
            f"spread: {self.description} along [{w}]  "
            f"(var={self.variance:.4g}, SI={self.si:.2f})"
        )


@dataclass(frozen=True)
class MiningIteration:
    """One round of the paper's two-step iterative mining."""

    index: int
    location: LocationPatternResult
    spread: SpreadPatternResult | None = None


class ResultSet:
    """Tabular view over mined iterations, dataframe-exportable.

    Wraps the :class:`MiningIteration` sequence a run produced and flattens
    it to one row per presented pattern (a ``kind="spread"`` iteration
    contributes a location row *and* a spread row). Rows are plain dicts,
    so :meth:`rows` works without pandas; :meth:`to_dataframe` needs the
    ``sisd[dataframe]`` extra.

    ``dataset`` (or any object with ``n_rows``/``weights``) supplies the
    case weights used for the ``weighted_coverage`` column — the share of
    total case weight the subgroup covers, which is what coverage *means*
    on a propensity-weighted population. Without weights the two coverage
    columns coincide.
    """

    def __init__(self, iterations, *, dataset=None) -> None:
        self.iterations: tuple[MiningIteration, ...] = tuple(iterations)
        for iteration in self.iterations:
            if not isinstance(iteration, MiningIteration):
                raise TypeError(
                    f"expected MiningIteration, got {type(iteration).__name__}"
                )
        self._weights = getattr(dataset, "weights", None) if dataset is not None else None
        self._total_weight = (
            float(self._weights.sum()) if self._weights is not None else None
        )

    @classmethod
    def from_result(cls, result, *, dataset=None) -> "ResultSet":
        """Lift a job result (anything with ``.iterations``) to a ResultSet."""
        return cls(result.iterations, dataset=dataset)

    def __len__(self) -> int:
        return len(self.iterations)

    def __iter__(self):
        return iter(self.iterations)

    def _weighted_coverage(self, indices: np.ndarray, coverage: float) -> float:
        if self._weights is None:
            return coverage
        return float(self._weights[indices].sum()) / self._total_weight

    def rows(self) -> list[dict]:
        """One plain dict per pattern, in presentation order."""
        out: list[dict] = []
        for iteration in self.iterations:
            location = iteration.location
            coverage = location.coverage
            out.append(
                {
                    "iteration": iteration.index,
                    "kind": "location",
                    "description": str(location.description),
                    "n_conditions": len(location.description),
                    "size": location.size,
                    "coverage": coverage,
                    "weighted_coverage": self._weighted_coverage(
                        location.indices, coverage
                    ),
                    "ic": location.score.ic,
                    "dl": location.score.dl,
                    "si": location.si,
                    "mean": [float(x) for x in location.mean],
                    "direction": None,
                    "variance": None,
                }
            )
            spread = iteration.spread
            if spread is not None:
                n_rows_cov = coverage  # same subgroup as the location row
                out.append(
                    {
                        "iteration": iteration.index,
                        "kind": "spread",
                        "description": str(spread.description),
                        "n_conditions": len(spread.description),
                        "size": spread.size,
                        "coverage": n_rows_cov,
                        "weighted_coverage": self._weighted_coverage(
                            spread.indices, n_rows_cov
                        ),
                        "ic": spread.score.ic,
                        "dl": spread.score.dl,
                        "si": spread.si,
                        "mean": [float(x) for x in spread.center],
                        "direction": [float(x) for x in spread.direction],
                        "variance": float(spread.variance),
                    }
                )
        return out

    def to_dataframe(self):
        """The rows as a pandas DataFrame (needs the ``[dataframe]`` extra)."""
        from repro.datasets.frame import _require_pandas

        pandas = _require_pandas()
        return pandas.DataFrame(self.rows())
