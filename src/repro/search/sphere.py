"""Unit-sphere manifold primitives for the spread-direction search.

The paper optimizes the spread objective over ``{w : w'w = 1}`` with
Manopt; these are the three operations a projected/Riemannian gradient
method needs — tangent projection, retraction, and random points — plus
a sign canonicalization (the objective is even in ``w``, so ``w`` and
``-w`` describe the same pattern).
"""

from __future__ import annotations

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


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a . b`` along the last axis, kept as a length-1 axis.

    For ``(K, d)`` stacks this is ``(K, 1)``, and each row holds the bytes
    of that row's 1-D ``a_k.dot(b_k)``: a broadcast matmul of a row by a
    column takes the dot's kernel. ``einsum("kd,kd->k")`` sums in another
    order and would not.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def project_tangent(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project ``v`` onto the tangent space of the sphere at ``w``.

    Row by row for ``(K, d)`` stacks of points and vectors.
    """
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    return v - row_dots(w, v) * w


def retract(w: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Metric-projection retraction: move and renormalize.

    Row by row for ``(K, d)`` stacks of points and steps.
    """
    u = np.asarray(w, dtype=float) + np.asarray(step, dtype=float)
    # What np.linalg.norm computes for each row, minus its dispatch.
    norm = np.sqrt(row_dots(u, u))
    if (norm <= 1e-300).any():
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
