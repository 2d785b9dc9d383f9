"""Search settings, defaulting to the paper's §III configuration."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

from repro.errors import SearchError


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the location beam search (paper defaults).

    Attributes
    ----------
    beam_width:
        Number of descriptions kept per level ("the beam width is set to
        40").
    max_depth:
        Maximum number of conditions ("the search depth is four").
    top_k:
        Size of the result log ("the search logs the best 150
        subgroups").
    n_split_points:
        Thresholds per numeric attribute ("four split points, 1/5-4/5
        percentiles").
    split_strategy:
        ``percentile`` (paper), ``width`` or ``levels``.
    min_coverage:
        Smallest admissible subgroup size, in rows. The statistics of a
        singleton subgroup are degenerate, so the floor is 2.
    max_coverage_fraction:
        Largest admissible subgroup size as a fraction of the data; 1.0
        admits everything except the full data itself.
    time_budget_seconds:
        Optional wall-clock budget ("a maximum run time of 5 minutes");
        the search returns the best patterns found when it expires.
    attributes:
        Optional subset of description attributes to search over.
    """

    beam_width: int = 40
    max_depth: int = 4
    top_k: int = 150
    n_split_points: int = 4
    split_strategy: str = "percentile"
    min_coverage: int = 2
    max_coverage_fraction: float = 1.0
    time_budget_seconds: float | None = None
    attributes: Sequence[str] | None = None

    def max_size(self, n_rows: int) -> int:
        """Largest admissible subgroup size over ``n_rows`` rows.

        ``floor(max_coverage_fraction * n_rows)``, capped at ``n_rows - 1``:
        the full data is never an interesting subgroup of itself.
        """
        return min(math.floor(self.max_coverage_fraction * n_rows), n_rows - 1)

    def to_dict(self) -> dict:
        """JSON-safe form; the single source of the field mapping.

        Job fingerprints and ``persist`` both go through here, so a new
        field is automatically part of both once added to the dataclass.
        """
        data = asdict(self)
        if self.attributes is not None:
            data["attributes"] = list(self.attributes)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SearchConfig":
        """Rebuild settings; absent keys keep the paper defaults."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SearchError(f"unknown SearchConfig keys: {sorted(unknown)}")
        kwargs = dict(data)
        if kwargs.get("attributes") is not None:
            kwargs["attributes"] = tuple(kwargs["attributes"])
        return cls(**kwargs)

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise SearchError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.max_depth < 1:
            raise SearchError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.top_k < 1:
            raise SearchError(f"top_k must be >= 1, got {self.top_k}")
        if self.min_coverage < 2:
            raise SearchError(
                f"min_coverage must be >= 2 (subgroup statistics need two rows), "
                f"got {self.min_coverage}"
            )
        if not 0.0 < self.max_coverage_fraction <= 1.0:
            raise SearchError(
                f"max_coverage_fraction must be in (0, 1], got {self.max_coverage_fraction}"
            )
