"""Unit-sphere manifold primitives for the spread-direction search.

The paper optimizes the spread objective over ``{w : w'w = 1}`` with
Manopt; these are the three operations a projected/Riemannian gradient
method needs — tangent projection, retraction, and random points — plus
a sign canonicalization (the objective is even in ``w``, so ``w`` and
``-w`` describe the same pattern).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SearchError
from repro.utils.rng import as_rng


def random_unit(rng, dim: int) -> np.ndarray:
    """Uniformly random point on the unit sphere in ``R^dim``."""
    if dim < 1:
        raise SearchError(f"dim must be >= 1, got {dim}")
    rng = as_rng(rng)
    while True:
        v = rng.standard_normal(dim)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            return v / norm


def project_tangent(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project ``v`` onto the tangent space of the sphere at ``w``."""
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    return v - w.dot(v) * w


def retract(w: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Metric-projection retraction: move and renormalize."""
    u = np.asarray(w, dtype=float) + np.asarray(step, dtype=float)
    # What np.linalg.norm computes for a 1-D float array, minus its dispatch.
    norm = math.sqrt(u.dot(u))
    if norm <= 1e-300:
        raise SearchError("retraction collapsed to the origin")
    return u / norm


def canonical_sign(w: np.ndarray) -> np.ndarray:
    """Flip ``w`` so its largest-magnitude entry is positive.

    The spread statistic is quadratic in ``w``; fixing the sign makes
    results reproducible and comparable across runs.
    """
    w = np.asarray(w, dtype=float)
    pivot = int(np.argmax(np.abs(w)))
    return -w if w[pivot] < 0 else w.copy()
