"""Pure update math: Theorems 1 and 2 and the Eq. 12 root-finder.

These functions operate on per-block arrays and contain no model state,
so they can be unit-tested against brute-force KL minimization on tiny
instances. The stateful bookkeeping lives in
:class:`repro.model.background.BackgroundModel`.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from repro.errors import ConvergenceError, ModelError
from repro.utils.linalg import solve_psd, symmetrize


def location_multiplier(
    covs: list[np.ndarray] | np.ndarray,
    counts: np.ndarray,
    means: list[np.ndarray] | np.ndarray,
    target_mean: np.ndarray,
) -> np.ndarray:
    """KKT multiplier of the Theorem 1 location update.

    Solves ``(sum_b c_b Sigma_b) lam = sum_b c_b (target - mu_b)``. The
    updated means are ``mu_b + Sigma_b lam``, which makes the expected
    subgroup mean exactly ``target_mean``. When all blocks share one
    covariance this reduces to the paper's printed form
    ``mu_i + mean_b(target - mu_b)``. That form shifts every row by one
    vector; once blocks differ in covariance (after a spread update) the
    minimum-KL update shifts each block along its own covariance,
    ``Sigma_b lam``, so the general form is solved here.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.sum() <= 0:
        raise ModelError("location update needs a non-empty extension")
    d = np.asarray(target_mean, dtype=float).shape[0]
    pooled = np.zeros((d, d))
    residual = np.zeros(d)
    for cov, count, mean in zip(covs, counts, means):
        if count == 0.0:
            continue
        pooled += count * cov
        residual += count * (target_mean - mean)
    return solve_psd(pooled, residual)


def spread_constraint_gap(
    lam: float,
    s: np.ndarray,
    e: np.ndarray,
    counts: np.ndarray,
    size: float,
    variance: float,
) -> float:
    """LHS minus RHS of Eq. 12 at multiplier ``lam``.

    ``s_b = w' Sigma_b w`` and ``e_b = w'(center - mu_b)`` per block;
    ``counts`` are block sizes inside the extension, ``size = |I|``.
    The function is strictly decreasing on the feasible domain
    ``lam > -1 / max(s)``, so its root is unique.
    """
    denom = 1.0 + lam * s
    if np.any(denom <= 0.0):
        raise ModelError(f"multiplier {lam} outside the feasible domain")
    lhs = float(np.sum(counts * (s / denom + (e / denom) ** 2)))
    return lhs - size * variance


def solve_spread_multiplier(
    s: np.ndarray,
    e: np.ndarray,
    counts: np.ndarray,
    size: float,
    variance: float,
    *,
    rtol: float = 1e-14,
    max_expansions: int = 200,
) -> float:
    """Unique root of Eq. 12 (the spread-update multiplier).

    Brackets the root between a point just inside the domain boundary
    ``-1/max(s)`` (where the gap diverges to +inf) and an exponentially
    expanded upper bound (the gap tends to ``-|I| * variance`` < 0), then
    runs Brent's method.
    """
    s = np.asarray(s, dtype=float)
    e = np.asarray(e, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if s.shape != e.shape or s.shape != counts.shape:
        raise ModelError("s, e and counts must have matching shapes")
    if np.any(s <= 0.0):
        raise ModelError("all block variances w'Sigma w must be positive")
    if not variance > 0.0:
        raise ModelError(f"target variance must be positive, got {variance}")

    def gap(lam: float) -> float:
        return spread_constraint_gap(lam, s, e, counts, size, variance)

    s_max = float(s.max())
    lam_min = -1.0 / s_max
    # Walk from just inside the boundary until the gap is positive (it
    # diverges there, but extremely close to the boundary the floating
    # point denominator can underflow, so step back geometrically).
    lo = None
    for back_off in (1e-12, 1e-9, 1e-6, 1e-3):
        candidate = lam_min * (1.0 - back_off) if lam_min != 0.0 else -back_off
        if gap(candidate) > 0.0:
            lo = candidate
            break
    if lo is None:
        # The gap is already non-positive arbitrarily close to the
        # boundary: the root lies at/above lam_min only if gap(0) >= 0.
        lo = lam_min * (1.0 - 1e-3)

    hi = max(1.0, abs(lam_min))
    expansions = 0
    while gap(hi) > 0.0:
        hi *= 4.0
        expansions += 1
        if expansions > max_expansions:
            raise ConvergenceError(
                "could not bracket the spread multiplier",
                iterations=expansions,
            )
    if gap(lo) <= 0.0 and gap(hi) <= 0.0:
        # Degenerate corner: constraint already satisfied at the boundary.
        raise ConvergenceError("spread constraint has no feasible multiplier")
    # The multiplier's natural scale is 1/variance, which can be anywhere
    # from 1e-14 (huge targets) to 1e14 (tiny ones): converge *relative*
    # to lambda's magnitude, with a token absolute tolerance.
    return float(optimize.brentq(gap, lo, hi, xtol=1e-300, rtol=max(rtol, 4e-16)))


def spread_block_update(
    mean: np.ndarray,
    cov: np.ndarray,
    direction: np.ndarray,
    center: np.ndarray,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Theorem 2 update of one block's parameters.

    Exponentially tilting ``N(mu, Sigma)`` by
    ``exp(-lam/2 * ((y - center)'w)^2)`` gives (Sherman-Morrison):

    - ``Sigma' = Sigma - lam * Sigma w w' Sigma / (1 + lam w'Sigma w)``
    - ``mu' = mu + lam * w'(center - mu) * Sigma w / (1 + lam w'Sigma w)``
    """
    sigma_w = cov @ direction
    s = float(direction @ sigma_w)
    denom = 1.0 + lam * s
    if denom <= 0.0:
        raise ModelError(
            f"spread update would destroy positive-definiteness (denom={denom})"
        )
    e = float(direction @ (center - mean))
    new_mean = mean + (lam * e / denom) * sigma_w
    new_cov = symmetrize(cov - (lam / denom) * np.outer(sigma_w, sigma_w))
    return new_mean, new_cov
