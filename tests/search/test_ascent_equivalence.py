"""The lockstep spread ascent against a verbatim one-start ascent.

:func:`repro.search.spread._ascend_lockstep` runs the ascents from all
starts together: one batched evaluation of every start's trial points per
round, and one batched gradient for the starts that just accepted a
point. It evaluates each distinct trial point once. The accepted trial
point's evaluation gives its gradient, and a line search whose move has
rounded back to ``w`` tests that one evaluation against its remaining
Armijo thresholds. The reference below is the ascent from one start as
it was before all of that, copied verbatim together with the objective
methods and sphere operations it called: it pays a one-point ``value``
call for every trial point and a ``value_and_grad`` call for every
accepted one.

On random objectives (1-9 blocks, d = 2-8 or 124, a statistic clamped
at the support boundary or not, 1-12 starts, starts that reach the
frozen tail, caps of 0, 1, 3 and 300) every start must end at the
reference's end-point bytes, with its IC bits, iteration count and end,
whichever starts share its rounds. The lockstep ascent must evaluate
exactly the rows and rounds its ladders give on the reference's trial
points (see :func:`_ladder_counts`). The 2-sparse search's batched
angle grid is held to the reference's one-point ``value`` the same way.

CI runs this file at one and at two BLAS threads: the batched products
give one-row bytes, and the reuse argument holds, at any thread count.
"""

import math

import numpy as np
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.special import digamma, gammaln

from repro.datasets import make_mammals, make_water
from repro.errors import SearchError
from repro.model.background import BackgroundModel
from repro.search.sphere import canonical_sign
from repro.search.spread import (
    _TINY,
    LN2,
    SpreadObjective,
    _ascend_lockstep,
    _best_pair_direction,
    _chunks,
)

# --------------------------------------------------------------------- #
# The reference: the re-evaluating ascent, verbatim
# --------------------------------------------------------------------- #


def project_tangent(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project ``v`` onto the tangent space of the sphere at ``w``."""
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    return v - float(w @ v) * w


def _verbatim_retract(w: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Metric-projection retraction: move and renormalize."""
    u = np.asarray(w, dtype=float) + np.asarray(step, dtype=float)
    norm = float(np.linalg.norm(u))
    if norm <= 1e-300:
        raise SearchError("retraction collapsed to the origin")
    return u / norm


class ReferenceObjective(SpreadObjective):
    """The objective's evaluations as the reference ascent made them."""

    def _pieces(self, w: np.ndarray):
        sigma_w = self.block_covs @ w              # (B, d)
        s = np.einsum("bd,d->b", sigma_w, w)       # w' Sigma_b w per block
        a = s / self.size
        c = self.counts
        a1 = float(np.sum(c * a))
        a2 = float(np.sum(c * a**2))
        a3 = float(np.sum(c * a**3))
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

    def value(self, w: np.ndarray) -> float:
        """IC of the spread pattern along unit direction ``w``."""
        _, _, _, alpha, beta, dof, v = self._pieces(np.asarray(w, dtype=float))
        return self._ic(alpha, beta, dof, v)

    def value_and_grad(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        """IC and its Euclidean gradient with respect to ``w``.

        Chain rule through the cumulant sums ``A_k = sum_b c_b a_b^k``
        with ``a_b = w'Sigma_b w / |I|`` and the empirical variance
        ``v = w' S w``; verified against finite differences in the test
        suite.
        """
        w = np.asarray(w, dtype=float)
        sigma_w, a, (a1, a2, a3), alpha, beta, dof, v = self._pieces(w)
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
        return self._ic(alpha, beta, dof, v), grad


def reference_ascend(
    objective: SpreadObjective,
    start: np.ndarray,
    *,
    max_iterations: int,
    tol: float,
) -> tuple[np.ndarray, float, int]:
    """Riemannian gradient ascent with backtracking from one start."""
    w = start / float(np.linalg.norm(start))
    value, grad = objective.value_and_grad(w)
    iterations = 0
    step = 1.0
    for iterations in range(1, max_iterations + 1):
        riemannian = project_tangent(w, grad)
        norm = float(np.linalg.norm(riemannian))
        if norm < tol:
            break
        direction = riemannian / norm
        # Backtracking Armijo line search along the retraction curve.
        step = min(max(step * 2.0, 1e-8), 1e6 / max(norm, 1.0))
        improved = False
        for _ in range(60):
            candidate = retract(w, step * norm * direction)
            candidate_value = objective.value(candidate)
            if candidate_value > value + 1e-4 * step * norm * norm:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        w = candidate
        value, grad = objective.value_and_grad(w)
    return w, value, iterations


# --------------------------------------------------------------------- #
# Recording what the reference did
# --------------------------------------------------------------------- #

#: The reference ascent's events, in order: ``"grad"`` for a
#: ``value_and_grad`` call (the start, then each accepted trial point),
#: and for each trial point whether its move rounded back to ``w``.
TRACE: list = []
#: Each trial point's ``(w, move)``, in the order of the trace.
MOVES: list = []


def retract(w: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The reference's retraction, recording whether the move is lost."""
    TRACE.append(bool((w + step == w).all()))
    MOVES.append((w, step))
    return _verbatim_retract(w, step)


class RecordedReference(ReferenceObjective):
    def value_and_grad(self, w):
        TRACE.append("grad")
        return super().value_and_grad(w)


def line_searches(trace: list) -> list[list[bool]]:
    """The trace's trial points, one list per line search."""
    searches: list[list[bool]] = []
    for item in trace:
        if item == "grad":
            searches.append([])
        else:
            searches[-1].append(item)
    return [trials for trials in searches if trials]


# --------------------------------------------------------------------- #
# Random objectives
# --------------------------------------------------------------------- #


def _psd(rng, d: int, scale: float) -> np.ndarray:
    factor = rng.standard_normal((d, d + 2))
    return scale * (factor @ factor.T) / (d + 2)


def build(cls, counts, block_covs, empirical_cov):
    """An objective over the given blocks and empirical covariance."""
    objective = cls.__new__(cls)
    objective.dim = block_covs.shape[1]
    objective.counts = counts
    objective.size = float(counts.sum())
    objective.block_covs = block_covs
    objective.empirical_cov = empirical_cov
    return objective


@st.composite
def problems(draw, dims=(2, 3, 4, 5, 6, 7, 8, 124)):
    d = draw(st.sampled_from(dims))
    n_blocks = draw(st.integers(1, 9))
    clamped = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(1, 40, n_blocks).astype(float)
    if draw(st.booleans()):
        counts *= rng.uniform(0.5, 2.0, n_blocks)     # weighted rows
    block_covs = np.stack(
        [_psd(rng, d, 10.0 ** rng.uniform(-1, 1)) for _ in range(n_blocks)]
    )
    # A clamped statistic: the subgroup barely varies, so (v - beta) /
    # alpha falls under the floor.
    scale = 1e-20 if clamped else 10.0 ** rng.uniform(-2, 1)
    empirical_cov = _psd(rng, d, scale)
    starts = []
    for strided in draw(st.lists(st.booleans(), min_size=1, max_size=12)):
        start = rng.standard_normal(d)
        if strided:
            # A strided start, as the eigenvector starts are.
            start = np.repeat(start, 2)[::2]
        starts.append(start)
    return {
        "blocks": (counts, block_covs, empirical_cov),
        "starts": starts,
        "clamped": clamped,
        "max_iterations": draw(st.sampled_from([0, 1, 3, 300, 300])),
        "tol": draw(st.sampled_from([1e-9, 1e-9, 1e-3])),
    }


def _run_reference(blocks, start, *, max_iterations, tol):
    """The reference ascent from one start, and its trace."""
    TRACE.clear()
    MOVES.clear()
    result = reference_ascend(
        build(RecordedReference, *blocks), start, max_iterations=max_iterations, tol=tol
    )
    return result, list(TRACE)


class Counted(SpreadObjective):
    """The objective, counting its batched calls and their rows."""

    def _evaluate(self, W):
        self.evaluations.append(len(W))
        return super()._evaluate(W)

    def _gradient(self, W, rows):
        self.gradients.append(len(W))
        return super()._gradient(W, rows)


def _run_lockstep(blocks, starts, *, max_iterations, tol):
    """The lockstep ascents from all starts, and the counted objective."""
    objective = build(Counted, *blocks)
    objective.evaluations = []
    objective.gradients = []
    outcomes = _ascend_lockstep(objective, starts, max_iterations=max_iterations, tol=tol)
    return outcomes, objective


def _distinct_trials(trace: list) -> int:
    """Trial points a one-evaluation ascent evaluates: those before its
    move rounds back to ``w``, and that one point."""
    return sum(
        trials.count(False) + (True in trials) for trials in line_searches(trace)
    )


def _ladder_counts(trace: list, moves: list) -> tuple[int, int]:
    """Rows and rounds the lockstep ascent evaluates for the trial points
    of one reference trace, with ``moves`` its trial points' ``(w, move)``.

    Each line search lays ladders of 2, 4, 8, ... consecutive trial
    points, one round each, up to the ladder that holds its accepted or
    last trial point. A ladder stops at the 60th trial point and at the
    first whose move rounds back to ``w``. The accepting ladder's rungs
    after the accepted point count too; whether their moves round back
    is tested on the accepted move halved, which is exact.
    """
    rows = rounds = position = 0
    for trials in line_searches(trace):
        position += len(trials)
        w, move = moves[position - 1]
        last = trials.index(True) if True in trials else len(trials) - 1
        first, laid = 0, 2
        while first <= last:
            stop = min(first + laid, 60, last + 1 if trials[last] else 60)
            for rung in range(len(trials), stop):
                if (w + move * 0.5 ** (rung - last) == w).all():
                    stop = rung + 1
                    break
            rows += stop - first
            rounds += 1
            first, laid = stop, 2 * laid
    return rows, rounds


def _assert_same(reference, outcome, trace, max_iterations):
    w, value, iterations = reference
    new_w, new_value, new_iterations, end = outcome
    assert new_w.tobytes() == w.tobytes()
    assert float(new_value).hex() == float(value).hex()
    assert new_iterations == iterations

    for trials in line_searches(trace):
        # Once a move rounds back to w, every halved move does too.
        if True in trials:
            assert all(trials[trials.index(True):])

    # The trace starts with the start point's "grad"; each accepted trial
    # point adds one.
    accepted = trace.count("grad") - 1
    if trace[-1] != "grad":
        expected_end = "stalled"
    elif accepted == max_iterations:
        expected_end = "capped"
    else:
        expected_end = "converged"
    assert end == expected_end
    event(f"end: {end}")


def _check_against_reference(problem, starts):
    """Every lockstep outcome is its start's reference outcome, at the
    rows and rounds of its ladders; returns the traces."""
    blocks = problem["blocks"]
    kwargs = {"max_iterations": problem["max_iterations"], "tol": problem["tol"]}
    outcomes, objective = _run_lockstep(blocks, starts, **kwargs)
    traces = []
    ladders = []
    for start, outcome in zip(starts, outcomes):
        reference, trace = _run_reference(blocks, start, **kwargs)
        _assert_same(reference, outcome, trace, kwargs["max_iterations"])
        traces.append(trace)
        ladders.append(_ladder_counts(trace, list(MOVES)))
    # One row for each start, then one per ladder rung.
    assert sum(objective.evaluations) == len(starts) + sum(rows for rows, _ in ladders)
    # One batched evaluation per round: the starts, then one round per
    # ladder of the ascent that lays the most.
    assert len(objective.evaluations) == 1 + max(rounds for _, rounds in ladders)
    # One gradient row per iteration begun.
    assert sum(objective.gradients) == sum(outcome[2] for outcome in outcomes)
    return outcomes, traces


@settings(max_examples=40, deadline=None)
@given(problems(), st.data())
def test_lockstep_ascents_match_the_reference_bit_for_bit(problem, data):
    starts = problem["starts"]
    if problem["clamped"]:
        objective = build(ReferenceObjective, *problem["blocks"])
        for start in starts:
            _, _, _, alpha, beta, _, v = objective._pieces(start / np.linalg.norm(start))
            assert (v - beta) / alpha <= _TINY
    outcomes, traces = _check_against_reference(problem, starts)
    if any(True in trials for trace in traces for trials in line_searches(trace)):
        event("frozen tail")
    event(f"starts: {'1' if len(starts) == 1 else '2+'}; d: {len(starts[0])}")

    # Any contiguous chunking of the starts, as the executors ship them,
    # gives the same outcomes.
    cuts = data.draw(st.lists(st.booleans(), min_size=len(starts) - 1, max_size=len(starts) - 1))
    chunks, chunk = [], [starts[0]]
    for cut, start in zip(cuts, starts[1:]):
        if cut:
            chunks.append(chunk)
            chunk = []
        chunk.append(start)
    chunks.append(chunk)
    kwargs = {"max_iterations": problem["max_iterations"], "tol": problem["tol"]}
    chunked = [
        outcome
        for chunk in chunks
        for outcome in _run_lockstep(problem["blocks"], chunk, **kwargs)[0]
    ]
    for (w, value, iterations, end), (w2, value2, iterations2, end2) in zip(outcomes, chunked):
        assert w2.tobytes() == w.tobytes()
        assert (float(value2).hex(), iterations2, end2) == (float(value).hex(), iterations, end)


@settings(max_examples=25, deadline=None)
@given(problems(dims=range(2, 9)))
def test_starts_at_stalled_ends_take_the_frozen_path(problem):
    """Restart from where the ascents stalled: each line search fails
    again, its moves shrink until they round back to ``w``, and the
    lockstep ascent stops evaluating there."""
    blocks = problem["blocks"]
    outcomes = _run_lockstep(blocks, problem["starts"], max_iterations=300, tol=1e-9)[0]
    ends = [w for w, _, _, end in outcomes if end == "stalled"]
    assume(ends)
    restart = dict(problem, tol=1e-9)
    traces = [
        _run_reference(blocks, start, max_iterations=problem["max_iterations"], tol=1e-9)[1]
        for start in ends
    ]
    # A frozen tail: halvings left after the move first rounds back.
    assume(any(
        trials.count(True) >= 2 for trace in traces for trials in line_searches(trace)
    ))
    _check_against_reference(restart, ends)
    # The frozen path was taken: fewer evaluations than trial points.
    n_trials = sum(len(trials) for trace in traces for trials in line_searches(trace))
    assert sum(_distinct_trials(trace) for trace in traces) < n_trials


def test_starts_ship_in_contiguous_chunks():
    starts = list(range(10))
    assert [len(chunk) for chunk in _chunks(starts, 3)] == [4, 3, 3]
    assert [len(chunk) for chunk in _chunks(starts, 2)] == [5, 5]
    assert _chunks(starts, 1) == [starts]
    assert _chunks(starts[:2], 4) == [[0], [1]]
    for n in range(1, 13):
        assert [start for chunk in _chunks(starts, n) for start in chunk] == starts


class Plateau:
    """An IC that only the move rounding back to the start can raise.

    The IC is 0 at the start ``w``, ``1e-25`` at ``w / |w|`` (the
    retraction of a move that rounds back to ``w``; a different point when
    ``|w|`` is not exactly 1) and -1 everywhere else, under a constant
    gradient of norm 1e-3. Every real move fails its Armijo test. The
    moves round back to ``w`` near step 1e-14, but the IC gain of 1e-25
    passes the threshold ``1e-4 * step * norm**2`` only near step 1e-15,
    a few halvings later.
    """

    def __init__(self, w: np.ndarray, grad: np.ndarray) -> None:
        self.w = w.tobytes()
        self.w_hat = _verbatim_retract(w, np.zeros_like(w)).tobytes()
        self.grad = grad
        #: How often the line search from ``w`` tested ``w / |w|``.
        self.hat_tests = 0
        self.moved = False

    def _ic(self, x: np.ndarray) -> float:
        if x.tobytes() == self.w:
            return 0.0
        return 1e-25 if x.tobytes() == self.w_hat else -1.0

    def value(self, x):
        self.hat_tests += not self.moved and x.tobytes() == self.w_hat
        return self._ic(x)

    def value_and_grad(self, x):
        self.moved = x.tobytes() != self.w
        return self._ic(x), self.grad

    def _evaluate(self, W):
        return [(None, self._ic(x)) for x in W]

    def _gradient(self, W, rows):
        return np.tile(self.grad, (len(W), 1))


def test_a_frozen_candidate_passes_a_later_threshold():
    """The halvings after the move rounds back keep testing that one
    candidate against their own, smaller thresholds, and accept it when
    one passes, as a re-evaluating line search does."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        start = rng.standard_normal(5)
        w = start / float(np.linalg.norm(start))
        if _verbatim_retract(w, np.zeros(5)).tobytes() != w.tobytes():
            break
    else:
        raise AssertionError("no start whose norm rounds away from 1")
    tangent = project_tangent(w, rng.standard_normal(5))
    grad = 1e-3 * tangent / np.linalg.norm(tangent)
    reference_plateau = Plateau(w, grad)
    w_end, value, iterations = reference_ascend(
        reference_plateau, start, max_iterations=300, tol=1e-9
    )
    # Accepted at a later halving than the first that rounded back.
    assert reference_plateau.hat_tests >= 2
    assert (value, iterations) == (1e-25, 2)
    [(new_w, new_value, new_iterations, end)] = _ascend_lockstep(
        Plateau(w, grad), [start], max_iterations=300, tol=1e-9
    )
    assert new_w.tobytes() == w_end.tobytes() == reference_plateau.w_hat
    assert (new_value, new_iterations, end) == (value, iterations, "stalled")


# --------------------------------------------------------------------- #
# The 2-sparse search's batched angle grid
# --------------------------------------------------------------------- #


def reference_best_pair_direction(objective):
    """The 2-sparse search as it was, one ``value`` call per grid angle."""
    dim = objective.dim
    best = None
    evaluations = 0

    def embed(i, j, theta):
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
            value = -float(result.fun)
            if best is None or value > best[0]:
                best = (value, embed(i, j, float(result.x)))
    return canonical_sign(best[1]), best[0], evaluations


def test_pair_search_matches_the_one_point_loop():
    """All 120 pairs of water's 16 targets: the same direction bytes, IC
    bits and variance as the one-point grid."""
    dataset = make_water(0)
    model = BackgroundModel.from_targets(dataset.targets)
    rows = np.arange(100)
    direction, ic, evaluations = reference_best_pair_direction(
        ReferenceObjective(model, rows, dataset.targets)
    )
    objective = SpreadObjective(model, rows, dataset.targets)
    outcome = _best_pair_direction(objective)
    assert outcome.direction.tobytes() == direction.tobytes()
    assert outcome.ic.hex() == ic.hex()
    assert outcome.variance == objective.variance(direction)
    assert outcome.n_starts == evaluations == 120 * 64


def test_pair_grid_rows_match_one_point_values_on_mammals():
    """60 random pairs of mammals' 124 targets: each of a pair's 64 batched
    grid rows has the reference's one-point IC bits."""
    dataset = make_mammals(0)
    model = BackgroundModel.from_targets(dataset.targets)
    rows = np.flatnonzero(dataset.column("tmp_mar").values <= -1.73595)
    objective = SpreadObjective(model, rows, dataset.targets)
    reference = ReferenceObjective(model, rows, dataset.targets)
    grid = np.linspace(0.0, math.pi, 64, endpoint=False)
    rng = np.random.default_rng(0)
    for _ in range(60):
        i, j = sorted(rng.choice(objective.dim, 2, replace=False).tolist())
        points = np.zeros((64, objective.dim))
        points[:, i] = [math.cos(theta) for theta in grid]
        points[:, j] = [math.sin(theta) for theta in grid]
        batched = [ic for _, ic in objective._evaluate(points)]
        assert [ic.hex() for ic in batched] == [
            reference.value(point).hex() for point in points
        ]
