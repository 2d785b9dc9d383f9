"""Multivariate normal utilities used by the background model.

Plain functions over (mean, covariance) pairs, plus conversions to the
natural parameterization (precision-mean ``h = Sigma^-1 mu`` and
precision ``J = Sigma^-1``). The paper's implementation note (§II-B)
updates natural parameters for numerical stability; we implement the
closed-form moment updates (they are exact) and expose the conversions
for interoperability and for the tests that verify both views agree.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg as sla

from repro.errors import ModelError
from repro.utils.linalg import log_det_psd, symmetrize

LOG_2PI = math.log(2.0 * math.pi)


def validate_covariance(cov: np.ndarray, *, name: str = "cov") -> np.ndarray:
    """Check symmetry and positive-definiteness; return a float64 copy."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ModelError(f"{name} must be square, got shape {cov.shape}")
    if not np.allclose(cov, cov.T, atol=1e-8 * max(1.0, float(np.abs(cov).max()))):
        raise ModelError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ModelError(f"{name} must be positive definite") from None
    return symmetrize(cov)


def mvn_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Log density of a multivariate normal at a single point ``x``."""
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    d = mean.shape[0]
    diff = x - mean
    try:
        factor = sla.cho_factor(cov, lower=True, check_finite=False)
        maha = float(diff @ sla.cho_solve(factor, diff, check_finite=False))
        logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    except (sla.LinAlgError, np.linalg.LinAlgError):
        # Semi-definite fallback: pseudo-inverse Mahalanobis, clipped logdet.
        # Counted (imported here: repro.obs imports this module's package).
        from repro.obs.instruments import LINALG_FALLBACK_PINV

        LINALG_FALLBACK_PINV.inc()
        maha = float(diff @ np.linalg.pinv(cov) @ diff)
        logdet = log_det_psd(cov)
    return -0.5 * (d * LOG_2PI + logdet + maha)


def natural_from_moment(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moment parameters -> natural parameters ``(h, J)``.

    ``J = Sigma^-1`` is the precision matrix and ``h = J mu`` the
    precision-adjusted mean; the density is
    ``p(y) proportional to exp(h'y - y'Jy/2)``.
    """
    cov = validate_covariance(cov)
    mean = np.asarray(mean, dtype=float)
    factor = sla.cho_factor(cov, lower=True, check_finite=False)
    precision = sla.cho_solve(factor, np.eye(cov.shape[0]), check_finite=False)
    precision = symmetrize(precision)
    return precision @ mean, precision


def moment_from_natural(h: np.ndarray, precision: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Natural parameters ``(h, J)`` -> moment parameters ``(mu, Sigma)``."""
    precision = validate_covariance(precision, name="precision")
    factor = sla.cho_factor(precision, lower=True, check_finite=False)
    cov = sla.cho_solve(factor, np.eye(precision.shape[0]), check_finite=False)
    cov = symmetrize(cov)
    return cov @ np.asarray(h, dtype=float), cov


def kl_divergence(
    mean_q: np.ndarray, cov_q: np.ndarray, mean_p: np.ndarray, cov_p: np.ndarray
) -> float:
    """KL(q || p) between two multivariate normals.

    Used by the tests that verify the Theorem 1/2 updates are indeed the
    KL-minimal distributions satisfying their constraints.
    """
    mean_q = np.asarray(mean_q, dtype=float)
    mean_p = np.asarray(mean_p, dtype=float)
    d = mean_q.shape[0]
    factor = sla.cho_factor(cov_p, lower=True, check_finite=False)
    cov_p_inv_cov_q = sla.cho_solve(factor, cov_q, check_finite=False)
    diff = mean_p - mean_q
    maha = float(diff @ sla.cho_solve(factor, diff, check_finite=False))
    return 0.5 * (
        float(np.trace(cov_p_inv_cov_q))
        + maha
        - d
        + log_det_psd(cov_p)
        - log_det_psd(cov_q)
    )
