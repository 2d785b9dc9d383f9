"""Numeric series behind the paper's distribution plots.

Fig. 1 uses "Gaussian-kernel smoothed estimates" of densities; Figs. 8c
and 9b plot marginal CDFs of data projections against the model's CDF.
These helpers return ``(grid, values)`` pairs ready to print, assert on,
or plot elsewhere. The normal curves are the expressions
``scipy.stats.norm`` evaluates, bit for bit; :mod:`scipy.stats` itself
is imported only by :func:`kde_series`, for ``gaussian_kde``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from repro.errors import ReproError


def _grid_for(values: np.ndarray, grid, n_points: int, pad: float) -> np.ndarray:
    if grid is not None:
        return np.asarray(grid, dtype=float)
    lo, hi = float(values.min()), float(values.max())
    span = max(hi - lo, 1e-12)
    return np.linspace(lo - pad * span, hi + pad * span, n_points)


def kde_series(
    values,
    *,
    grid=None,
    n_points: int = 128,
    pad: float = 0.1,
    weight: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-kernel density estimate over a grid (Fig. 1 style).

    ``weight`` scales the density (Fig. 1 shows the subgroup's share of
    the full data as ``coverage * density``).
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size < 2:
        raise ReproError("kde_series needs at least two values")
    if np.std(values) == 0.0:
        # Degenerate sample: represent as a narrow Gaussian bump.
        grid_arr = _grid_for(values, grid, n_points, pad)
        sd = max(1e-6, 0.01 * (grid_arr[-1] - grid_arr[0]))
        z = (grid_arr - values[0]) / sd
        density = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi) / sd
        return grid_arr, weight * density
    from scipy.stats import gaussian_kde  # the one scipy.stats user: Fig. 1

    grid_arr = _grid_for(values, grid, n_points, pad)
    kde = gaussian_kde(values)
    return grid_arr, weight * kde(grid_arr)


def cdf_series(values, *, grid=None, n_points: int = 128, pad: float = 0.05):
    """Empirical CDF of ``values`` evaluated on a grid (Figs. 8c, 9b)."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ReproError("cdf_series needs at least one value")
    grid_arr = _grid_for(values, grid, n_points, pad)
    sorted_values = np.sort(values)
    cdf = np.searchsorted(sorted_values, grid_arr, side="right") / values.size
    return grid_arr, cdf


def normal_cdf_series(mean: float, sd: float, grid) -> tuple[np.ndarray, np.ndarray]:
    """CDF of N(mean, sd^2) on a given grid (the model curve in Fig. 8c)."""
    if sd <= 0:
        raise ReproError(f"sd must be positive, got {sd}")
    grid_arr = np.asarray(grid, dtype=float)
    return grid_arr, ndtr((grid_arr - mean) / sd)


def mixture_normal_cdf_series(means, sds, weights, grid):
    """CDF of a weighted mixture of normals on a grid.

    The background model is a *product over points* of normals with
    possibly different parameters; the marginal distribution of a
    uniformly chosen subgroup member's projection is this mixture (the
    footnote-5 caveat of the paper's Fig. 8 visualization).
    """
    means = np.asarray(means, dtype=float)
    sds = np.asarray(sds, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not (means.shape == sds.shape == weights.shape):
        raise ReproError("means, sds, weights must have identical shapes")
    if np.any(sds <= 0) or np.any(weights < 0) or weights.sum() <= 0:
        raise ReproError("sds must be positive, weights non-negative and not all 0")
    weights = weights / weights.sum()
    grid_arr = np.asarray(grid, dtype=float)
    cdf = np.zeros_like(grid_arr)
    for mean, sd, weight in zip(means, sds, weights):
        cdf += weight * ndtr((grid_arr - mean) / sd)
    return grid_arr, cdf


def histogram_series(values, *, bins: int = 20, range_=None):
    """Histogram as (bin_centers, counts); convenience for reports."""
    values = np.asarray(values, dtype=float).ravel()
    counts, edges = np.histogram(values, bins=bins, range=range_)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, counts.astype(float)
