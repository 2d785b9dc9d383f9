"""Spread-direction search: maximize Eq. 20 over the unit sphere (§II-D).

For a fixed subgroup the DL is constant, so the problem is to maximize
the IC of the spread statistic over directions ``w``. The objective is
smooth but multimodal; we run Riemannian gradient ascent with an
analytic gradient (chain rule through the Zhang coefficients, including
the digamma term of the Gamma normalizer) from several informed starting
points, plus random restarts. The paper's 2-sparsity variant —
"optimizing it for each pair of target attributes separately and then
selecting the result with the highest SI" — is :func:`find_spread_direction`
with ``sparsity=2``.

The ascent evaluates each distinct trial point once (see
:func:`_ascend`): an accepted point's evaluation also gives its
gradient, and a line search whose move has rounded back to ``w``
re-tests that one evaluation instead of retracting again. Both reuse the
bytes a re-evaluation would give, so the mined directions do not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.special import digamma, gammaln

from repro.engine.executor import Executor, SerialExecutor
from repro.errors import SearchError
from repro.model.background import BackgroundModel
from repro.obs.instruments import SPREAD_ASCENT_ENDS
from repro.search.sphere import canonical_sign, project_tangent, random_unit, retract
from repro.stats.statistics import subgroup_cov, subgroup_mean
from repro.utils.rng import as_rng

#: Floor for the standardized statistic (x - beta)/alpha, as in chi2mix.
_TINY = 1e-12
LN2 = math.log(2.0)


class SpreadObjective:
    """IC of the spread pattern of a fixed subgroup, as a function of w.

    Precomputes the per-block covariances (model side) and the empirical
    subgroup covariance (data side); ``value`` and ``value_and_grad``
    then cost O(B d^2) per call with B the number of blocks touching the
    subgroup.
    """

    def __init__(self, model: BackgroundModel, indices, targets: np.ndarray) -> None:
        targets = np.asarray(targets, dtype=float)
        if targets.ndim == 1:
            targets = targets[:, None]
        counts, _means, covs = model.spread_blocks(indices)
        self.dim = model.dim
        self.size = float(counts.sum())
        if self.size < 2:
            raise SearchError("spread search needs a subgroup with >= 2 rows")
        self.counts = counts
        self.block_covs = np.stack(covs)           # (B, d, d)
        # On weighted models, counts/size above are already weighted; the
        # empirical (data-side) statistics must weight identically.
        self.empirical_cov = subgroup_cov(targets, indices, weights=model.weights)
        self.center = subgroup_mean(targets, indices, weights=model.weights)
        self.pooled_model_cov = (
            np.einsum("b,bde->de", counts, self.block_covs) / self.size
        )

    # ------------------------------------------------------------------ #
    # Core computation
    # ------------------------------------------------------------------ #
    def _pieces(self, w: np.ndarray):
        sigma_w = self.block_covs @ w              # (B, d)
        s = np.einsum("bd,d->b", sigma_w, w)       # w' Sigma_b w per block
        a = s / self.size
        c = self.counts
        a1 = float(np.add.reduce(c * a))
        a2 = float(np.add.reduce(c * a**2))
        a3 = float(np.add.reduce(c * a**3))
        alpha = a3 / a2
        beta = a1 - a2**2 / a3
        dof = a2**3 / a3**2
        v = float(w @ self.empirical_cov @ w)
        return sigma_w, a, (a1, a2, a3), alpha, beta, dof, v

    @staticmethod
    def _ic(alpha: float, beta: float, dof: float, v: float) -> float:
        t = max((v - beta) / alpha, _TINY)
        return (
            math.log(alpha)
            + 0.5 * dof * LN2
            + float(gammaln(0.5 * dof))
            - (0.5 * dof - 1.0) * math.log(t)
            + 0.5 * t
        )

    def _evaluate(self, w: np.ndarray) -> tuple[tuple, float]:
        """The pieces at ``w`` and their IC: one evaluation, for every caller."""
        pieces = self._pieces(w)
        return pieces, self._ic(*pieces[3:])

    def value(self, w: np.ndarray) -> float:
        """IC of the spread pattern along unit direction ``w``."""
        return self._evaluate(np.asarray(w, dtype=float))[1]

    def variance(self, w: np.ndarray) -> float:
        """Empirical subgroup variance along ``w`` (the statistic value)."""
        w = np.asarray(w, dtype=float)
        return float(w @ self.empirical_cov @ w)

    def value_and_grad(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        """IC and its Euclidean gradient with respect to ``w``."""
        w = np.asarray(w, dtype=float)
        pieces, ic = self._evaluate(w)
        return ic, self._gradient(w, pieces)

    def _gradient(self, w: np.ndarray, pieces: tuple) -> np.ndarray:
        """Euclidean gradient of the IC at ``w``, from its evaluated pieces.

        Chain rule through the cumulant sums ``A_k = sum_b c_b a_b^k``
        with ``a_b = w'Sigma_b w / |I|`` and the empirical variance
        ``v = w' S w``; verified against finite differences in the test
        suite.
        """
        sigma_w, a, (a1, a2, a3), alpha, beta, dof, v = pieces
        t_raw = (v - beta) / alpha
        clamped = t_raw <= _TINY
        t = max(t_raw, _TINY)

        # Partials of IC with respect to (alpha, beta, dof, v).
        d_ic_d_t = 0.5 - (0.5 * dof - 1.0) / t
        d_ic_d_alpha = 1.0 / alpha + d_ic_d_t * (-t / alpha)
        d_ic_d_beta = d_ic_d_t * (-1.0 / alpha)
        d_ic_d_v = d_ic_d_t * (1.0 / alpha)
        d_ic_d_dof = 0.5 * (LN2 + float(digamma(0.5 * dof)) - math.log(t))
        if clamped:
            # On the clamp the statistic no longer responds to (v, beta);
            # keep only the smooth alpha/dof dependence to avoid a
            # gradient explosion at the support boundary.
            d_ic_d_v = 0.0
            d_ic_d_beta = 0.0
            d_ic_d_alpha = 1.0 / alpha
        # Partials of (alpha, beta, dof) with respect to (A1, A2, A3).
        d_alpha = np.array([0.0, -a3 / a2**2, 1.0 / a2])
        d_beta = np.array([1.0, -2.0 * a2 / a3, (a2 / a3) ** 2])
        d_dof = np.array([0.0, 3.0 * a2**2 / a3**2, -2.0 * a2**3 / a3**3])
        d_ic_d_ak = (
            d_ic_d_alpha * d_alpha + d_ic_d_beta * d_beta + d_ic_d_dof * d_dof
        )
        # dA_k/dw = sum_b c_b k a_b^(k-1) * (2 Sigma_b w / |I|).
        coef = self.counts * (
            d_ic_d_ak[0]
            + d_ic_d_ak[1] * 2.0 * a
            + d_ic_d_ak[2] * 3.0 * a**2
        )
        grad = (2.0 / self.size) * np.einsum("b,bd->d", coef, sigma_w)
        grad += d_ic_d_v * 2.0 * (self.empirical_cov @ w)
        return grad

    # ------------------------------------------------------------------ #
    # Informed starting points
    # ------------------------------------------------------------------ #
    def suggested_starts(self) -> list[np.ndarray]:
        """Eigen-directions likely to be (near) optimal.

        The extreme eigenvectors of the empirical subgroup covariance,
        of the pooled model covariance, and of their difference (the
        "surprise" matrix) cover both low-variance and high-variance
        spread patterns.
        """
        starts: list[np.ndarray] = []
        for matrix in (
            self.empirical_cov,
            self.pooled_model_cov,
            self.empirical_cov - self.pooled_model_cov,
        ):
            _, vectors = np.linalg.eigh(matrix)
            starts.append(vectors[:, 0])
            starts.append(vectors[:, -1])
        return starts


@dataclass(frozen=True)
class SpreadSearchOutcome:
    """Best direction found, its IC, and the empirical variance along it.

    ``n_capped`` counts the gradient ascents that stopped at the
    iteration cap rather than at a stationary point or a failed line
    search (always 0 for the one-dimensional and 2-sparse searches).
    """

    direction: np.ndarray
    ic: float
    variance: float
    n_starts: int
    n_iterations: int
    n_capped: int = 0


#: Only a shorter move can round back to ``w``: a move of length 1e-12
#: has a coordinate of at least 1e-12 / sqrt(d), more than half an ulp of
#: any |w_i| <= 1 for d < 10^7. The exact test ``w + move == w`` decides;
#: this bound only skips it where it must fail.
_FROZEN_MOVE = 1e-12


def _ascend(
    objective: SpreadObjective,
    start: np.ndarray,
    *,
    max_iterations: int,
    tol: float,
) -> tuple[np.ndarray, float, int, str]:
    """Riemannian gradient ascent with backtracking from one start.

    Returns the end point, its IC, the iterations run and how the ascent
    ended: ``"converged"`` (the Riemannian gradient norm fell under
    ``tol``), ``"stalled"`` (the line search found no Armijo ascent) or
    ``"capped"`` (``max_iterations`` ran out).

    Each distinct trial point is evaluated once:

    - the accepted trial point's evaluation gives its gradient, so the
      pieces are not computed twice on the same ``w``;
    - once a trial move rounds back to ``w`` exactly (``w + move == w``),
      every halved move does too, because round-to-nearest is monotone
      and halving shrinks each coordinate of the move. The retraction of
      ``w`` is the same candidate each time, so the remaining halvings
      test its one IC against their own Armijo thresholds.

    Every IC, threshold and comparison is the same floating-point
    expression on the same bytes as in an ascent that evaluates each
    trial point afresh, so the end point, its IC and the iteration count
    are bit for bit that ascent's.
    """
    # np.linalg.norm, not a dot: it copies a strided start (an eigenvector
    # column) first, and the copy's dot sums in another order.
    w = start / float(np.linalg.norm(start))
    pieces, value = objective._evaluate(w)
    iterations = 0
    step = 1.0
    end = "capped"
    for iterations in range(1, max_iterations + 1):
        riemannian = project_tangent(w, objective._gradient(w, pieces))
        norm = math.sqrt(riemannian.dot(riemannian))
        if norm < tol:
            end = "converged"
            break
        direction = riemannian / norm
        # Backtracking Armijo line search along the retraction curve.
        step = min(max(step * 2.0, 1e-8), 1e6 / max(norm, 1.0))
        frozen = False
        for _ in range(60):
            if not frozen:
                move = step * norm * direction
                candidate = retract(w, move)
                trial = objective._evaluate(candidate)
                frozen = step * norm < _FROZEN_MOVE and bool((w + move == w).all())
            if trial[1] > value + 1e-4 * step * norm * norm:
                break
            step *= 0.5
        else:
            end = "stalled"
            break
        w = candidate
        pieces, value = trial
    return w, value, iterations, end


def _ascend_task(
    context: tuple[SpreadObjective, int, float], start: np.ndarray
) -> tuple[np.ndarray, float, int, str]:
    """Worker entry point: one gradient ascent from one starting point."""
    objective, max_iterations, tol = context
    return _ascend(objective, start, max_iterations=max_iterations, tol=tol)


def find_spread_direction(
    model: BackgroundModel,
    indices,
    targets: np.ndarray,
    *,
    sparsity: int | None = None,
    n_random_starts: int = 4,
    max_iterations: int = 300,
    tol: float = 1e-9,
    seed=0,
    executor: Executor | None = None,
) -> SpreadSearchOutcome:
    """Maximize the spread IC over unit directions (problem 21).

    Parameters
    ----------
    sparsity:
        ``None`` optimizes over the full sphere. ``2`` restricts ``w``
    to coordinate pairs, optimizing the in-plane angle per pair and
        keeping the best (the paper's §III-C interpretability device).
    n_random_starts:
        Random restarts added to the eigenvector starts.
    executor:
        Backend running the independent ascents. Starting points are
        drawn up-front in the caller, and the winner is the first
        highest-IC start in start order, so any parallelism returns the
        serial result.
    """
    objective = SpreadObjective(model, indices, targets)
    dim = objective.dim

    if dim == 1:
        w = np.ones(1)
        return SpreadSearchOutcome(w, objective.value(w), objective.variance(w), 1, 0)

    if sparsity is not None:
        if sparsity != 2:
            raise SearchError(f"only sparsity=2 is supported, got {sparsity}")
        return _best_pair_direction(objective)

    rng = as_rng(seed)
    starts = objective.suggested_starts()
    starts.extend(random_unit(rng, dim) for _ in range(n_random_starts))

    if executor is None:
        executor = SerialExecutor()
    with executor.session((objective, max_iterations, tol)) as session:
        ascents = session.map(_ascend_task, starts)

    best_w: np.ndarray | None = None
    best_value = -math.inf
    total_iterations = 0
    n_capped = 0
    for w, value, iterations, end in ascents:
        # Counted here, in the caller, whichever backend ran the ascent.
        SPREAD_ASCENT_ENDS[end].inc()
        n_capped += end == "capped"
        total_iterations += iterations
        if value > best_value:
            best_value = value
            best_w = w
    assert best_w is not None
    best_w = canonical_sign(best_w)
    return SpreadSearchOutcome(
        direction=best_w,
        ic=float(best_value),
        variance=objective.variance(best_w),
        n_starts=len(starts),
        n_iterations=total_iterations,
        n_capped=n_capped,
    )


def _best_pair_direction(objective: SpreadObjective) -> SpreadSearchOutcome:
    """2-sparse search: best in-plane angle for every coordinate pair.

    For a pair (i, j), ``w = cos(theta) e_i + sin(theta) e_j``; the IC is
    pi-periodic in theta (the statistic is even in w). A coarse grid
    localizes the best basin, then bounded scalar minimization refines it.
    """
    dim = objective.dim
    best: tuple[float, np.ndarray] | None = None
    evaluations = 0

    def embed(i: int, j: int, theta: float) -> np.ndarray:
        w = np.zeros(dim)
        w[i] = math.cos(theta)
        w[j] = math.sin(theta)
        return w

    grid = np.linspace(0.0, math.pi, 64, endpoint=False)
    for i in range(dim):
        for j in range(i + 1, dim):
            values = [objective.value(embed(i, j, theta)) for theta in grid]
            evaluations += len(grid)
            k = int(np.argmax(values))
            lo, hi = grid[k] - math.pi / 64, grid[k] + math.pi / 64
            result = optimize.minimize_scalar(
                lambda theta: -objective.value(embed(i, j, theta)),
                bounds=(lo, hi),
                method="bounded",
                options={"xatol": 1e-10},
            )
            theta = float(result.x)
            value = -float(result.fun)
            if best is None or value > best[0]:
                best = (value, embed(i, j, theta))
    assert best is not None
    w = canonical_sign(best[1])
    return SpreadSearchOutcome(
        direction=w,
        ic=best[0],
        variance=objective.variance(w),
        n_starts=evaluations,
        n_iterations=0,
    )
