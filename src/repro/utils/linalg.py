"""Linear-algebra helpers used by the Gaussian background model.

The model maintains per-block covariance matrices that are repeatedly
updated by rank-one Sherman–Morrison corrections (Theorem 2 of the paper);
floating-point drift can leave them slightly asymmetric or with tiny
negative eigenvalues, so we centralize symmetrization and PD repair here.
Every fallback taken on singular input is counted in
``sisd_linalg_fallbacks_total{kind}``. The counters are imported where
they are used: ``repro.obs`` sits above this module in the import graph.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(A + A') / 2``."""
    return (a + a.T) / 2.0


def is_positive_definite(a: np.ndarray, *, tol: float = 0.0) -> bool:
    """Cheap PD check via Cholesky (with optional diagonal slack ``tol``)."""
    try:
        np.linalg.cholesky(a + tol * np.eye(a.shape[0]))
        return True
    except np.linalg.LinAlgError:
        return False


def nearest_positive_definite(a: np.ndarray, *, jitter: float = 1e-12) -> np.ndarray:
    """Project a symmetric matrix onto the PD cone.

    Clips negative eigenvalues at ``jitter`` times the largest eigenvalue.
    Used only as a numerical safety net after long chains of rank-one
    updates; in a healthy run the input is already PD and is returned with
    only symmetrization applied.
    """
    sym = symmetrize(np.asarray(a, dtype=float))
    if is_positive_definite(sym):
        return sym
    eigvals, eigvecs = np.linalg.eigh(sym)
    floor = max(jitter, jitter * float(eigvals.max(initial=1.0)))
    clipped = np.clip(eigvals, floor, None)
    return symmetrize((eigvecs * clipped) @ eigvecs.T)


def solve_psd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` for symmetric positive-definite ``A``.

    Tries Cholesky first (fast, and a free PD sanity check); falls back to
    a least-squares solve if the matrix is numerically singular, which can
    happen when a subgroup's pooled covariance is rank-deficient.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    try:
        factor = sla.cho_factor(a, lower=True, check_finite=False)
        return sla.cho_solve(factor, b, check_finite=False)
    except (np.linalg.LinAlgError, sla.LinAlgError, ValueError):
        from repro.obs.instruments import LINALG_FALLBACK_LSTSQ

        LINALG_FALLBACK_LSTSQ.inc()
        return np.linalg.lstsq(a, b, rcond=None)[0]


def log_det_psd(a: np.ndarray) -> float:
    """Log-determinant of a symmetric PD matrix via Cholesky.

    Falls back to eigenvalues (clipped at a tiny floor) for numerically
    semi-definite input so IC computations degrade gracefully instead of
    returning NaN.
    """
    a = np.asarray(a, dtype=float)
    try:
        chol = np.linalg.cholesky(a)
        return 2.0 * float(np.sum(np.log(np.diag(chol))))
    except np.linalg.LinAlgError:
        from repro.obs.instruments import LINALG_FALLBACK_EIG_CLIP

        LINALG_FALLBACK_EIG_CLIP.inc()
        eigvals = np.linalg.eigvalsh(symmetrize(a))
        eigvals = np.clip(eigvals, 1e-300, None)
        return float(np.sum(np.log(eigvals)))
