"""Spread-direction search: maximize Eq. 20 over the unit sphere (§II-D).

For a fixed subgroup the DL is constant, so the problem is to maximize
the IC of the spread statistic over directions ``w``. The objective is
smooth but multimodal. :func:`find_spread_direction` takes one of four
routes, by the number of targets d:

- ``"line"`` (d = 1): the one direction, ``w = (1,)``.
- ``"circle"`` (d = 2): the sphere is a circle, ``w = (cos t, sin t)``
  with the IC pi-periodic in t. A grid of angles and the informed starts
  are evaluated in one batched call, and bounded Brent refines each
  sampled local maximum between its neighbouring samples.
- ``"pairs"`` (``sparsity=2``, any d >= 2): the paper's 2-sparsity
  variant, "optimizing it for each pair of target attributes separately
  and then selecting the result with the highest SI": the same grid and
  Brent, on every coordinate pair.
- ``"ascent"`` (d >= 3): Riemannian gradient ascent with an analytic
  gradient (chain rule through the Zhang coefficients, including the
  digamma term of the Gamma normalizer) from several informed starting
  points, plus random restarts. Only this route uses an executor.

The ascents from all starts run in lockstep (see
:func:`_ascend_lockstep`). Each round evaluates, in one batched call,
the next ladder of trial points of every start still line-searching:
its next few halvings of the step, not one trial point. The gradients
of the starts that just accepted a point take another batched call, so
numpy's per-call overhead is paid once per round rather than once per
trial point. An accepted point's evaluation also gives its gradient,
and a line search whose move has rounded back to ``w`` re-tests that one
evaluation instead of retracting again.

The mined directions rest on numpy's broadcast matmul and einsum giving
each row of a batch the bytes a one-row call gives it, so every start
ascends exactly as it would alone; a property test holds the lockstep
ascents to a verbatim one-start ascent, bit for bit.
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
from repro.obs.instruments import (
    SPREAD_ASCENT_ENDS,
    SPREAD_CLAMPED,
    SPREAD_ROUNDS,
    SPREAD_ROW_KINDS,
    SPREAD_SEARCH_ROUTES,
)
from repro.search.sphere import (
    canonical_sign,
    project_tangent,
    random_unit,
    retract,
    row_dots,
)
from repro.stats.chi2mix import _TINY
from repro.stats.statistics import subgroup_cov, subgroup_mean
from repro.utils.rng import as_rng

LN2 = math.log(2.0)


class SpreadObjective:
    """IC of the spread pattern of a fixed subgroup, as a function of w.

    Precomputes the per-block covariances (model side) and the empirical
    subgroup covariance (data side). The core methods are batch-first:
    :meth:`_evaluate` and :meth:`_gradient` take a ``(K, d)`` stack of
    directions and cost O(K B d^2) arithmetic, with B the number of blocks
    touching the subgroup, in one set of numpy calls for the whole stack.
    Every row gets the bytes a one-row call gives it: the products are
    broadcast matmuls and einsums that reduce each row in a one-row
    call's order, and each row's IC is computed on Python floats.
    ``value``, ``value_and_grad`` and ``variance`` take one direction.
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
    def _pieces(self, W: np.ndarray) -> list[tuple]:
        """Per row of ``W``: ``(Sigma_b w, a, (A1, A2, A3), alpha, beta, dof, v)``.

        Only forms that give each row the bytes of a one-row call batch
        here. ``block_covs @ W.T`` (one gemm) and ``einsum("kd,kd->k")``
        row dots sum in another order, so they are not used.
        """
        sigma_w = (self.block_covs @ W[:, None, :, None])[..., 0]   # (K, B, d)
        s = np.einsum("kbd,kd->kb", sigma_w, W)    # w' Sigma_b w per block
        a = s / self.size
        c = self.counts
        a1s = np.add.reduce(c * a, axis=-1).tolist()
        a2s = np.add.reduce(c * a**2, axis=-1).tolist()
        a3s = np.add.reduce(c * a**3, axis=-1).tolist()
        vs = ((W[:, None, :] @ self.empirical_cov) @ W[:, :, None]).ravel().tolist()
        rows = []
        for sigma_w_k, a_k, a1, a2, a3, v in zip(sigma_w, a, a1s, a2s, a3s, vs):
            # Python floats, as a one-row call computes them.
            alpha = a3 / a2
            beta = a1 - a2**2 / a3
            dof = a2**3 / a3**2
            rows.append((sigma_w_k, a_k, (a1, a2, a3), alpha, beta, dof, v))
        return rows

    def _evaluate(self, W: np.ndarray) -> list[tuple[tuple, float]]:
        """The pieces at each row of ``W`` and their ICs: one evaluation.

        A row's IC is the negative log of the Zhang density of its
        statistic, at ``t = (v - beta) / alpha`` floored at ``_TINY``.
        """
        rows = self._pieces(W)
        # One gammaln call for the batch: the ufunc gives each element the
        # bits a one-element call gives it.
        log_gammas = gammaln([0.5 * pieces[5] for pieces in rows]).tolist()
        evaluated = []
        for pieces, log_gamma in zip(rows, log_gammas):
            _, _, _, alpha, beta, dof, v = pieces
            t = max((v - beta) / alpha, _TINY)
            ic = (
                math.log(alpha)
                + 0.5 * dof * LN2
                + log_gamma
                - (0.5 * dof - 1.0) * math.log(t)
                + 0.5 * t
            )
            evaluated.append((pieces, ic))
        return evaluated

    def value(self, w: np.ndarray) -> float:
        """IC of the spread pattern along unit direction ``w``."""
        return self._evaluate(np.ascontiguousarray(w, dtype=float)[None])[0][1]

    def variance(self, w: np.ndarray) -> float:
        """Empirical subgroup variance along ``w`` (the statistic value)."""
        w = np.asarray(w, dtype=float)
        return float(w @ self.empirical_cov @ w)

    def standardized(self, w: np.ndarray) -> float:
        """The standardized statistic ``(v - beta) / alpha`` along ``w``.

        At or under ``_TINY`` the IC reads the floor, not the statistic.
        """
        W = np.ascontiguousarray(w, dtype=float)[None]
        [(_, _, _, alpha, beta, _, v)] = self._pieces(W)
        return (v - beta) / alpha

    def value_and_grad(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        """IC and its Euclidean gradient with respect to ``w``."""
        W = np.ascontiguousarray(w, dtype=float)[None]
        [(pieces, ic)] = self._evaluate(W)
        return ic, self._gradient(W, [pieces])[0]

    def _gradient(self, W: np.ndarray, rows: list[tuple]) -> np.ndarray:
        """Euclidean gradients at the rows of ``W``, from their evaluated pieces.

        Chain rule through the cumulant sums ``A_k = sum_b c_b a_b^k``
        with ``a_b = w'Sigma_b w / |I|`` and the empirical variance
        ``v = w' S w``; verified against finite differences in the test
        suite. ``rows[k]`` holds the :meth:`_pieces` of ``W[k]``.
        """
        partials = []
        d_ic_d_vs = []
        # One digamma call for the batch, as _evaluate calls gammaln.
        psis = digamma([0.5 * pieces[5] for pieces in rows]).tolist()
        for (_sigma_w, _a, (a1, a2, a3), alpha, beta, dof, v), psi in zip(rows, psis):
            t_raw = (v - beta) / alpha
            clamped = t_raw <= _TINY
            t = max(t_raw, _TINY)

            # Partials of IC with respect to (alpha, beta, dof, v).
            d_ic_d_t = 0.5 - (0.5 * dof - 1.0) / t
            d_ic_d_alpha = 1.0 / alpha + d_ic_d_t * (-t / alpha)
            d_ic_d_beta = d_ic_d_t * (-1.0 / alpha)
            d_ic_d_v = d_ic_d_t * (1.0 / alpha)
            d_ic_d_dof = 0.5 * (LN2 + psi - math.log(t))
            if clamped:
                # On the clamp the statistic no longer responds to (v, beta);
                # keep only the smooth alpha/dof dependence to avoid a
                # gradient explosion at the support boundary.
                d_ic_d_v = 0.0
                d_ic_d_beta = 0.0
                d_ic_d_alpha = 1.0 / alpha
            # Partials of (alpha, beta, dof) with respect to (A1, A2, A3).
            d_alpha = (0.0, -a3 / a2**2, 1.0 / a2)
            d_beta = (1.0, -2.0 * a2 / a3, (a2 / a3) ** 2)
            d_dof = (0.0, 3.0 * a2**2 / a3**2, -2.0 * a2**3 / a3**3)
            partials.append([
                d_ic_d_alpha * x + d_ic_d_beta * y + d_ic_d_dof * z
                for x, y, z in zip(d_alpha, d_beta, d_dof)
            ])
            d_ic_d_vs.append(d_ic_d_v * 2.0)
        d_ic_d_ak = np.array(partials)             # (K, 3)
        sigma_w = np.array([pieces[0] for pieces in rows])
        a = np.array([pieces[1] for pieces in rows])
        # dA_k/dw = sum_b c_b k a_b^(k-1) * (2 Sigma_b w / |I|).
        coef = self.counts * (
            d_ic_d_ak[:, :1]
            + d_ic_d_ak[:, 1:2] * 2.0 * a
            + d_ic_d_ak[:, 2:] * 3.0 * a**2
        )
        grad = (2.0 / self.size) * np.einsum("kb,kbd->kd", coef, sigma_w)
        grad += np.array(d_ic_d_vs)[:, None] * (self.empirical_cov @ W[:, :, None])[..., 0]
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

    ``route`` names the search that ran: ``"line"``, ``"circle"``,
    ``"pairs"`` or ``"ascent"`` (see the module docstring).
    ``n_capped`` counts the gradient ascents that stopped at the
    iteration cap rather than at a stationary point or a failed line
    search (always 0 off the ascent route).
    ``clamped`` says the IC of ``direction`` reads the floor: its
    standardized statistic ``(v - beta) / alpha`` is at or under
    ``_TINY``, so the IC measures rounding noise, not the subgroup.
    """

    direction: np.ndarray
    ic: float
    variance: float
    n_starts: int
    n_iterations: int
    route: str
    n_capped: int = 0
    clamped: bool = False


#: Only a shorter move can round back to ``w``: a move of length 1e-12
#: has a coordinate of at least 1e-12 / sqrt(d), more than half an ulp of
#: any |w_i| <= 1 for d < 10^7. The exact test ``w + move == w`` decides;
#: this bound only skips it where it must fail.
_FROZEN_MOVE = 1e-12

#: Rungs of a line search's first ladder: its step and the step halved,
#: which is where most line searches accept (the step doubles after
#: each accepted one). A ladder that fails on every rung doubles the next.
_FIRST_RUNGS = 2


def _ascend_lockstep(
    objective: SpreadObjective,
    starts: list[np.ndarray],
    *,
    max_iterations: int,
    tol: float,
    counts: dict[str, int] | None = None,
) -> list[tuple[np.ndarray, float, int, str]]:
    """Riemannian gradient ascents with backtracking, from every start at once.

    Returns, per start, the end point, its IC, the iterations run and how
    the ascent ended: ``"converged"`` (the Riemannian gradient norm fell
    under ``tol``), ``"stalled"`` (the line search found no Armijo ascent)
    or ``"capped"`` (``max_iterations`` ran out). ``counts``, if given,
    gains the rows evaluated (``"value"``), the gradient rows
    (``"gradient"``) and the batched evaluations (``"rounds"``).

    The ascents run in lockstep rounds. A round takes the gradients of
    every ascent that has just accepted a point in one batched
    :meth:`SpreadObjective._gradient`, and then evaluates one ladder of
    trial points for every ascent still line-searching, all ladders in
    one batched :meth:`SpreadObjective._evaluate`. A ladder is the line
    search's next steps, each half the one before: ``_FIRST_RUNGS`` after
    a gradient, then twice as many as the last ladder had. It stops at
    the 60th halving, and at its first rung whose move rounds back to
    ``w`` exactly (``w + move == w``): every halved move does too,
    because round-to-nearest is monotone and halving shrinks each
    coordinate of the move, so the remaining halvings test that rung's
    one IC against their own Armijo thresholds. The ascent then walks its
    ladder in order under the Armijo rule and accepts the first rung that
    passes; the rungs after it are evaluated and dropped. An accepted
    point's evaluation gives its gradient, so the pieces are not
    computed twice on the same ``w``.

    Each ascent takes the decisions it would take alone: every IC,
    threshold and comparison is the same floating-point expression on the
    same bytes as in an ascent from that one start that evaluates each
    trial point afresh, because a batched row has a one-row call's bytes.
    So the results do not depend on which starts share a round.
    """
    # np.linalg.norm, not a dot: it copies a strided start (an eigenvector
    # column) first, and the copy's dot sums in another order.
    points = np.array([start / float(np.linalg.norm(start)) for start in starts])
    pieces, value = (list(column) for column in zip(*objective._evaluate(points)))
    # Per-ascent rows live in lists of row views, not in (n, d) arrays.
    # Gathering them with np.array and splitting batches back into rows
    # avoids fancy indexing and ``take``, which release the GIL even on
    # tiny arrays and so hand it to any other busy thread for a whole
    # switch interval; np.array, like np.stack, copies the rows without
    # releasing it.
    w = list(points)
    n = len(w)
    iterations = [0] * n
    step = [1.0] * n
    norm = [0.0] * n
    halvings = [0] * n
    end: list[str | None] = [None] * n
    direction: list[np.ndarray | None] = [None] * n
    accepted = list(range(n))     # ascents whose new point needs a gradient
    failed: list[int] = []        # line searches whose every rung failed
    value_rows, gradient_rows, rounds = n, 0, 1
    while True:
        iterating = []
        for k in accepted:
            if iterations[k] == max_iterations:
                end[k] = "capped"
            else:
                iterations[k] += 1
                iterating.append(k)
        searching = []
        if iterating:
            at = np.array([w[k] for k in iterating])
            riemannian = project_tangent(
                at, objective._gradient(at, [pieces[k] for k in iterating])
            )
            gradient_rows += len(iterating)
            norms = np.sqrt(row_dots(riemannian, riemannian))
            for row, (k, row_norm) in enumerate(zip(iterating, norms.ravel().tolist())):
                if row_norm < tol:
                    end[k] = "converged"
                    continue
                norm[k] = row_norm
                direction[k] = riemannian[row] / row_norm
                # Backtracking Armijo line search along the retraction curve.
                step[k] = min(max(step[k] * 2.0, 1e-8), 1e6 / max(row_norm, 1.0))
                halvings[k] = 0
                searching.append(k)
        searching += failed
        if not searching:
            break
        ladders = []    # (ascent, rungs laid, whether the last one rounds back)
        scales: list[float] = []
        bases: list[np.ndarray] = []
        directions: list[np.ndarray] = []
        for k in searching:
            # The move of each rung, as the walk below halves the step. A
            # ladder is _FIRST_RUNGS longer than the halvings so far, so
            # each one after a ladder that failed is twice as long.
            ladder = []
            trial_step = step[k]
            for _ in range(min(halvings[k] + _FIRST_RUNGS, 60 - halvings[k])):
                ladder.append(trial_step * norm[k])
                trial_step *= 0.5
            frozen = False
            if ladder[-1] < _FROZEN_MOVE:
                ladder_moves = np.array(ladder)[:, None] * direction[k]
                lost = (w[k] + ladder_moves == w[k]).all(axis=1).tolist()
                if True in lost:
                    del ladder[lost.index(True) + 1:]
                    frozen = True
            ladders.append((k, len(ladder), frozen))
            scales += ladder
            bases += [w[k]] * len(ladder)
            directions += [direction[k]] * len(ladder)
        moves = np.array(scales)[:, None] * np.array(directions)
        candidates = retract(np.array(bases), moves)
        trials = objective._evaluate(candidates)
        rounds += 1
        value_rows += len(trials)
        accepted = []
        failed = []
        row = 0
        for k, laid, frozen in ladders:
            last = row + laid - 1
            for rung in range(row, last + 1):
                trial = trials[rung]
                while not (trial[1] > value[k] + 1e-4 * step[k] * norm[k] * norm[k]):
                    step[k] *= 0.5
                    halvings[k] += 1
                    if halvings[k] == 60:
                        end[k] = "stalled"
                        break
                    # Halvings past a move that rounds back re-test its IC.
                    if not (frozen and rung == last):
                        break
                else:
                    w[k] = candidates[rung]
                    pieces[k], value[k] = trial
                    accepted.append(k)
                    break
                if end[k] is not None:
                    break
            else:
                failed.append(k)
            row = last + 1
    if counts is not None:
        counts["value"] += value_rows
        counts["gradient"] += gradient_rows
        counts["rounds"] += rounds
    return [(w[k], value[k], iterations[k], end[k]) for k in range(n)]


def _ascend_task(
    context: tuple[SpreadObjective, int, float], starts: list[np.ndarray]
) -> tuple[list[tuple[np.ndarray, float, int, str]], dict[str, int]]:
    """Worker entry point: the lockstep ascents from one chunk of starts,
    and what they evaluated."""
    objective, max_iterations, tol = context
    counts = dict.fromkeys(("value", "gradient", "rounds"), 0)
    ascents = _ascend_lockstep(
        objective, starts, max_iterations=max_iterations, tol=tol, counts=counts
    )
    return ascents, counts


def _chunks(items: list, n_chunks: int) -> list[list]:
    """``items`` in ``min(n_chunks, len(items))`` contiguous chunks, the
    first ones a row longer when the split is uneven (10 in 3: 4, 3, 3)."""
    n_chunks = max(1, min(n_chunks, len(items)))
    base, extra = divmod(len(items), n_chunks)
    chunks = []
    start = 0
    for index in range(n_chunks):
        stop = start + base + (index < extra)
        chunks.append(items[start:stop])
        start = stop
    return chunks


def check_sparsity(sparsity: int | None) -> None:
    """Raise :class:`SearchError` unless ``sparsity`` is None or 2."""
    if sparsity is not None and sparsity != 2:
        raise SearchError(f"only sparsity=2 is supported, got {sparsity}")


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

    The route depends on the number of targets d (see the module
    docstring): d = 1 has one direction (``"line"``); ``sparsity=2``
    searches every coordinate pair (``"pairs"``); otherwise d = 2 scans
    the circle of directions (``"circle"``) and d >= 3 runs the
    multi-start gradient ascent (``"ascent"``). The circle and the
    ascent draw the same starts from ``seed``. Only the ascent route
    uses ``executor``; the others run inline in the caller.

    Parameters
    ----------
    sparsity:
        ``None`` optimizes over the full sphere. ``2`` restricts ``w``
        to coordinate pairs, optimizing the in-plane angle per pair and
        keeping the best (the paper's §III-C interpretability device).
    n_random_starts:
        Random restarts added to the eigenvector starts.
    max_iterations, tol:
        The ascent route's iteration cap and gradient-norm tolerance.
    executor:
        Backend running the ascents (d >= 3). Starting points are drawn
        up-front in the caller and shipped as ``executor.parallelism``
        contiguous chunks (one when serial), each ascended in lockstep,
        so the search costs one batched evaluation per round of a chunk,
        not one per trial point. An ascent's result does not depend on
        its chunk, and the winner is the first highest-IC start in start
        order, so any parallelism returns the serial result.
    """
    check_sparsity(sparsity)
    objective = SpreadObjective(model, indices, targets)
    dim = objective.dim

    if dim == 1:
        w = np.ones(1)
        SPREAD_ROW_KINDS["value"].inc()
        return _outcome(objective, w, objective.value(w), 1, 0, "line")

    if sparsity is not None:
        return _best_pair_direction(objective)

    rng = as_rng(seed)
    starts = objective.suggested_starts()
    starts.extend(random_unit(rng, dim) for _ in range(n_random_starts))

    if dim == 2:
        return _circle_direction(objective, starts)

    if executor is None:
        executor = SerialExecutor()
    with executor.session((objective, max_iterations, tol)) as session:
        chunks = session.map(_ascend_task, _chunks(starts, executor.parallelism))

    best_w: np.ndarray | None = None
    best_value = -math.inf
    total_iterations = 0
    n_capped = 0
    for ascents, counts in chunks:
        # Counted here, in the caller, whichever backend ran the ascents.
        SPREAD_ROW_KINDS["value"].inc(counts["value"])
        SPREAD_ROW_KINDS["gradient"].inc(counts["gradient"])
        SPREAD_ROUNDS.inc(counts["rounds"])
        for w, value, iterations, end in ascents:
            SPREAD_ASCENT_ENDS[end].inc()
            n_capped += end == "capped"
            total_iterations += iterations
            if value > best_value:
                best_value = value
                best_w = w
    assert best_w is not None
    return _outcome(
        objective,
        canonical_sign(best_w),
        float(best_value),
        len(starts),
        total_iterations,
        "ascent",
        n_capped,
    )


def _outcome(
    objective: SpreadObjective,
    w: np.ndarray,
    ic: float,
    n_starts: int,
    n_iterations: int,
    route: str,
    n_capped: int = 0,
) -> SpreadSearchOutcome:
    """The search's outcome at its winner ``w``; its route and a clamped
    winner are counted here, in the caller."""
    SPREAD_SEARCH_ROUTES[route].inc()
    clamped = objective.standardized(w) <= _TINY
    if clamped:
        SPREAD_CLAMPED.inc()
    return SpreadSearchOutcome(
        direction=w,
        ic=ic,
        variance=objective.variance(w),
        n_starts=n_starts,
        n_iterations=n_iterations,
        route=route,
        n_capped=n_capped,
        clamped=clamped,
    )


#: The pair and circle searches' grid: 64 angles over one period of the
#: IC in theta, and their cosines and sines as ``_in_plane`` computes
#: them (with math: numpy's may round differently).
_GRID = np.linspace(0.0, math.pi, 64, endpoint=False)
_GRID_COS = [math.cos(theta) for theta in _GRID]
_GRID_SIN = [math.sin(theta) for theta in _GRID]


def _in_plane(dim: int, i: int, j: int, theta: float) -> np.ndarray:
    """The unit direction ``cos(theta) e_i + sin(theta) e_j`` in R^dim."""
    w = np.zeros(dim)
    w[i] = math.cos(theta)
    w[j] = math.sin(theta)
    return w


def _refine(
    objective: SpreadObjective, i: int, j: int, lo: float, hi: float
) -> tuple[float, np.ndarray, int]:
    """Bounded Brent on the IC of ``_in_plane(dim, i, j, theta)`` over
    ``lo <= theta <= hi``: the best IC it saw, its direction, and the
    one-row evaluations it made."""
    dim = objective.dim
    result = optimize.minimize_scalar(
        lambda theta: -objective.value(_in_plane(dim, i, j, theta)),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return -float(result.fun), _in_plane(dim, i, j, float(result.x)), int(result.nfev)


def _circle_direction(
    objective: SpreadObjective, starts: list[np.ndarray]
) -> SpreadSearchOutcome:
    """Two targets: search the circle ``w = (cos theta, sin theta)``.

    The IC is pi-periodic in theta. The 64 grid angles and the
    normalized starts are evaluated in one batched call. Taken in angle
    order, over one period, each sample whose IC is above the one before
    it and not below the one after it is a sampled local maximum, and
    bounded Brent refines it between those two neighbours. The winner is
    the first highest IC seen: the samples in evaluation order, then the
    refinements in angle order.
    """
    points = [np.array([c, s]) for c, s in zip(_GRID_COS, _GRID_SIN)]
    angles = _GRID.tolist()
    for start in starts:
        # Normalized as the ascent normalizes it, so its IC here is the
        # one its ascent would begin from.
        w = start / float(np.linalg.norm(start))
        angle = math.atan2(w[1], w[0]) % math.pi
        points.append(w)
        # A tiny negative angle, modulo pi, rounds up to pi itself.
        angles.append(0.0 if angle == math.pi else angle)
    values = [ic for _, ic in objective._evaluate(np.array(points))]
    evaluations = len(points)
    best = max(range(len(points)), key=values.__getitem__)
    best_value, best_w = values[best], points[best]

    # The samples in angle order, the first of each distinct angle.
    order: list[int] = []
    for k in sorted(range(len(points)), key=angles.__getitem__):
        if not order or angles[k] != angles[order[-1]]:
            order.append(k)
    n = len(order)
    for position, k in enumerate(order):
        before, after = order[position - 1], order[(position + 1) % n]
        if not values[before] < values[k] >= values[after]:
            continue
        lo = angles[before] - (math.pi if position == 0 else 0.0)
        hi = angles[after] + (math.pi if position == n - 1 else 0.0)
        value, w, calls = _refine(objective, 0, 1, lo, hi)
        evaluations += calls
        if value > best_value:
            best_value, best_w = value, w
    SPREAD_ROW_KINDS["value"].inc(evaluations)
    return _outcome(
        objective, canonical_sign(best_w), best_value, len(starts), 0, "circle"
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
    brent_rows = 0
    for i in range(dim):
        for j in range(i + 1, dim):
            # The grid's 64 embedded directions as one batched evaluation.
            points = np.zeros((len(_GRID), dim))
            points[:, i] = _GRID_COS
            points[:, j] = _GRID_SIN
            values = [ic for _, ic in objective._evaluate(points)]
            evaluations += len(_GRID)
            k = int(np.argmax(values))
            value, w, calls = _refine(
                objective, i, j, _GRID[k] - math.pi / 64, _GRID[k] + math.pi / 64
            )
            brent_rows += calls
            if best is None or value > best[0]:
                best = (value, w)
    assert best is not None
    SPREAD_ROW_KINDS["value"].inc(evaluations + brent_rows)
    return _outcome(objective, canonical_sign(best[1]), best[0], evaluations, 0, "pairs")
