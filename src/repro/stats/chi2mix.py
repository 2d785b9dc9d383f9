"""Chi-squared mixture approximation (Zhang, JASA 2005; Eq. 18).

Under the background model, the spread statistic is a positive linear
combination of independent chi-squared(1) variables,
``g = sum_i a_i c_i`` with ``a_i = w' Sigma_i w / |I|``. No closed form
exists for its density; Zhang's approximation matches the first three
cumulants with an affine image of a single chi-squared variable:

    g  ~  alpha * chi2(m) + beta,

    alpha = A3 / A2,
    beta  = A1 - A2^2 / A3,
    m     = A2^3 / A3^2,        where  A_k = sum_i a_i^k.

:class:`Chi2Mixture` computes the coefficients from (possibly weighted)
``a_i`` values and exposes the approximate density/distribution. The
cumulant-matching identities — ``E = alpha m + beta = A1``,
``Var = 2 alpha^2 m = 2 A2``, ``kappa_3 = 8 alpha^3 m = 8 A3`` — are
verified by the property-based test suite.

The chi-squared functions are the expressions ``scipy.stats.chi2``
evaluates, written over :mod:`scipy.special`: they give its bytes, and
importing the package does not load :mod:`scipy.stats`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import chdtr, gammaincinv, gammaln, xlogy

from repro.errors import ModelError

#: Lower clamp for the standardized argument ``(x - beta) / alpha``; the
#: approximation's support is ``[beta, inf)`` and values at/below the
#: boundary have zero density (infinite information content), which we cap
#: to keep downstream optimization finite.
_TINY = 1e-12


class Chi2Mixture:
    """Distribution of ``sum_i weight_i * a_i * chi2_1`` via Zhang (2005).

    Parameters
    ----------
    coefficients:
        The distinct mixture coefficients ``a_i > 0``.
    weights:
        Optional multiplicities (the block sizes); defaults to 1 each.
        ``sum_i weights_i * a_i * chi2_1`` is approximated.
    """

    def __init__(self, coefficients: np.ndarray, weights: np.ndarray | None = None) -> None:
        a = np.asarray(coefficients, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ModelError("coefficients must be a non-empty 1-D array")
        if np.any(a <= 0.0):
            raise ModelError("all mixture coefficients must be positive")
        if weights is None:
            w = np.ones_like(a)
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != a.shape:
                raise ModelError("weights must match coefficients in shape")
            if np.any(w <= 0.0):
                raise ModelError("all weights must be positive")
        self.coefficients = a
        self.weights = w
        a1 = float(np.sum(w * a))
        a2 = float(np.sum(w * a**2))
        a3 = float(np.sum(w * a**3))
        self.alpha = a3 / a2
        self.beta = a1 - a2**2 / a3
        self.dof = a2**3 / a3**2
        self._moments = (a1, a2, a3)

    # ------------------------------------------------------------------ #
    # Exact cumulants of the mixture (not of the approximation)
    # ------------------------------------------------------------------ #
    @property
    def mean(self) -> float:
        """Exact mean ``A1`` (matched by the approximation)."""
        return self._moments[0]

    @property
    def variance(self) -> float:
        """Exact variance ``2 A2`` (matched by the approximation)."""
        return 2.0 * self._moments[1]

    @property
    def third_cumulant(self) -> float:
        """Exact third cumulant ``8 A3`` (matched by the approximation)."""
        return 8.0 * self._moments[2]

    # ------------------------------------------------------------------ #
    # Approximate distribution
    # ------------------------------------------------------------------ #
    def _standardize(self, x) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.beta) / self.alpha

    def logpdf(self, x) -> np.ndarray | float:
        """Approximate log density at ``x``.

        Computed as ``chi2(m).logpdf((x - beta)/alpha) - log(alpha)``,
        the change of variables of ``g = alpha * chi2(m) + beta``. The
        paper's Eq. 19 leaves out that ``- log(alpha)``, the log of the
        Jacobian ``1/alpha``, so its negative (the IC) gains
        ``+ log(alpha)`` here. Arguments at or below ``beta`` are
        clamped just inside the support rather than returning ``-inf``.
        """
        t = np.maximum(self._standardize(x), _TINY)
        m = self.dof
        out = (
            xlogy(m / 2.0 - 1, t) - t / 2.0 - gammaln(m / 2.0) - (np.log(2) * m) / 2.0
        )
        # scipy.stats answers a NaN argument with its own (positive) NaN.
        out = np.where(np.isnan(t), np.nan, out) - math.log(self.alpha)
        return float(out) if np.isscalar(x) else out

    def pdf(self, x) -> np.ndarray | float:
        """Approximate density at ``x``."""
        return np.exp(self.logpdf(x))

    def cdf(self, x) -> np.ndarray | float:
        """Approximate distribution function at ``x``."""
        t = np.maximum(self._standardize(x), 0.0)
        out = chdtr(self.dof, t)
        return float(out) if np.isscalar(x) else out

    def ppf(self, q) -> np.ndarray | float:
        """Approximate quantile function (NaN for ``q`` outside ``[0, 1]``)."""
        p = np.asarray(q, dtype=float)
        inside = (p >= 0.0) & (p <= 1.0)
        t = np.where(inside, 2 * gammaincinv(self.dof / 2, p), np.nan)
        out = self.alpha * t + self.beta
        return float(out) if np.isscalar(q) else out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw from the *exact* mixture (for approximation-quality tests).

        Integer multiplicities expand to repeated chi2(1) draws. For
        fractional weights — weighted subgroups produce non-integer block
        weights — ``w`` i.i.d. chi2(1) variables sum to a chi2(w), which
        stays exact for any real ``w > 0``, so each coefficient draws a
        single chi2(weight) instead of being silently floored.
        """
        integral = np.equal(np.floor(self.weights), self.weights)
        if integral.all():
            reps = np.repeat(self.coefficients, self.weights.astype(int))
            draws = rng.chisquare(1.0, size=(size, reps.shape[0]))
            return draws @ reps
        draws = rng.chisquare(self.weights, size=(size, self.weights.shape[0]))
        return draws @ self.coefficients

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Chi2Mixture(alpha={self.alpha:.4g}, beta={self.beta:.4g}, "
            f"dof={self.dof:.4g})"
        )
