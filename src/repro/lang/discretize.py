"""Split-point computation for numeric and ordinal attributes.

The paper's search settings (§III): "descriptions on numerical metadata
are based on >= and <= relations with four split points (1/5-4/5
percentiles)". :func:`split_points` implements that default and two
alternatives (equal-width bins, all distinct ordinal levels) used by the
beam-parameter ablation bench.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.schema import AttributeKind, Column
from repro.errors import LanguageError

#: The threshold strategies :func:`split_points` implements.
SPLIT_STRATEGIES = ("levels", "percentile", "width")


def check_split_settings(n_split_points: int, strategy: str) -> None:
    """Raise :class:`LanguageError` unless :func:`split_points` takes these."""
    if n_split_points < 1:
        raise LanguageError(f"n_split_points must be >= 1, got {n_split_points}")
    if strategy not in SPLIT_STRATEGIES:
        raise LanguageError(
            f"unknown split strategy {strategy!r}; "
            f"available: {', '.join(SPLIT_STRATEGIES)}"
        )


def split_points(
    column: Column,
    *,
    n_split_points: int = 4,
    strategy: str = "percentile",
) -> np.ndarray:
    """Candidate thresholds for inequality conditions on ``column``.

    Parameters
    ----------
    column:
        A numeric or ordinal column.
    n_split_points:
        Number of thresholds for the ``percentile``/``width`` strategies
        (the paper uses 4 -> 20/40/60/80th percentiles). Ignored for
        ``levels``.
    strategy:
        - ``percentile``: evenly spaced interior percentiles (default);
        - ``width``: evenly spaced values between min and max;
        - ``levels``: every distinct value (natural for ordinal data).

    Returns
    -------
    numpy.ndarray
        Sorted thresholds, each strictly inside the column's value range
        (thresholds at the extremes would yield conditions that are
        trivially true in one direction), deduplicated by *extension
        equivalence*: two thresholds with no data value between them
        induce the same ``<=`` and the same ``>=`` row sets, so only the
        smallest threshold of each equivalence class is kept (an
        order-preserving, deterministic collapse). On constant or
        low-cardinality columns this is what stops the beam from scoring
        the same subgroup once per redundant threshold.

    Notes
    -----
    Ordinal columns always use their distinct levels regardless of
    ``strategy``: percentiles of a column holding the levels 0/1/3/5
    would fabricate thresholds like 2.6 that no expert coded.
    """
    if not column.kind.is_orderable:
        raise LanguageError(
            f"split points undefined for {column.kind.value} attribute {column.name!r}"
        )
    check_split_settings(n_split_points, strategy)

    values = column.values
    if not np.all(np.isfinite(values)):
        # Column validation normally guarantees this; a loud error beats
        # the silent empty threshold set NaN comparisons would produce.
        raise LanguageError(
            f"column {column.name!r} has NaN/inf values; split points undefined"
        )
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        return np.empty(0)

    if column.kind is AttributeKind.ORDINAL or strategy == "levels":
        candidates = np.unique(values)
    elif strategy == "percentile":
        qs = 100.0 * np.arange(1, n_split_points + 1) / (n_split_points + 1)
        candidates = np.percentile(values, qs)
    else:  # "width"
        candidates = np.linspace(lo, hi, n_split_points + 2)[1:-1]

    unique = np.unique(candidates)
    # Keep thresholds that split the data: strictly above the minimum for
    # "<=" usefulness is not required (x <= lo selects the minimum rows),
    # but thresholds outside (lo, hi] on both sides are useless.
    unique = unique[(unique >= lo) & (unique <= hi)]
    if unique.shape[0] <= 1:
        return unique
    # Extension-equivalence collapse. "x <= t" selects by how many values
    # fall at or below t, "x >= t" by how many fall strictly below — both
    # monotone in t, so thresholds sharing the (count_le, count_lt) pair
    # induce identical masks in *both* directions. Keep the first (the
    # smallest) threshold of each class; order is preserved by re-sorting
    # the surviving indices.
    ordered = np.sort(values)
    count_le = np.searchsorted(ordered, unique, side="right")
    count_lt = np.searchsorted(ordered, unique, side="left")
    keys = np.stack([count_le, count_lt], axis=1)
    _, first = np.unique(keys, axis=0, return_index=True)
    return unique[np.sort(first)]
