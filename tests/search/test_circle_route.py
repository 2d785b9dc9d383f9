"""The spread search's circle route (d = 2) against the gradient ascent.

With two targets the sphere of directions is a circle, ``w = (cos t,
sin t)``, and :func:`repro.search.spread.find_spread_direction` scans it:
the 64 grid angles and the ten normalized starts in one batched
evaluation, then bounded Brent around each sampled local maximum. It
draws the starts the ascent would draw, so the two routes can be held
against each other on the same starts:

- on well-conditioned problems (the subgroup's covariance eigenvalue
  ratio at least 1e-8, and the ascent's winner off the clamp) the
  circle's IC is at least the best ascent's, to 1e-9 relative, and at
  least every start's, exactly;
- on synthetic seeds 0-4, 3 spread steps each at paper settings, the
  two routes agree to 1e-9 relative;
- its result does not depend on the executor, and each batched row has
  the bits a one-row evaluation gives it, which CI checks at one and at
  two BLAS threads.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from repro.datasets import make_synthetic
from repro.engine.executor import ProcessExecutor, SerialExecutor
from repro.model.background import BackgroundModel
from repro.model.patterns import LocationConstraint, SpreadConstraint
from repro.search import miner as miner_module
from repro.search.config import SearchConfig
from repro.search.miner import SubgroupDiscovery
from repro.search.sphere import random_unit
from repro.search.spread import (
    _GRID_COS,
    _GRID_SIN,
    _TINY,
    SpreadObjective,
    _ascend_lockstep,
    _circle_direction,
    find_spread_direction,
)

#: The ascent route's settings, as ``find_spread_direction`` defaults them.
ASCENT = {"max_iterations": 300, "tol": 1e-9}


def _starts(objective, rng):
    """The ten starts ``find_spread_direction`` draws at d = 2."""
    return objective.suggested_starts() + [random_unit(rng, 2) for _ in range(4)]


def _best_ascent(objective, starts) -> tuple[np.ndarray, float]:
    """The ascent route's winner: the first highest-IC end, and its IC."""
    ends = _ascend_lockstep(objective, starts, **ASCENT)
    w, value, _, _ = max(ends, key=lambda end: end[1])
    return w, value


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def _eigen_ratio(objective) -> float:
    low, high = np.linalg.eigvalsh(objective.empirical_cov)
    return low / high


# --------------------------------------------------------------------- #
# Random d = 2 problems
# --------------------------------------------------------------------- #


def _psd(rng, scale: float) -> np.ndarray:
    factor = rng.standard_normal((2, 4))
    return scale * (factor @ factor.T) / 4


def _from_blocks(rng) -> SpreadObjective:
    """An objective over 1-9 random blocks and a random subgroup covariance."""
    n_blocks = int(rng.integers(1, 10))
    objective = SpreadObjective.__new__(SpreadObjective)
    objective.dim = 2
    objective.counts = rng.integers(1, 40, n_blocks).astype(float)
    if rng.random() < 0.5:
        objective.counts *= rng.uniform(0.5, 2.0, n_blocks)     # weighted rows
    objective.size = float(objective.counts.sum())
    objective.block_covs = np.stack(
        [_psd(rng, 10.0 ** rng.uniform(-1, 1)) for _ in range(n_blocks)]
    )
    objective.empirical_cov = _psd(rng, 10.0 ** rng.uniform(-1, 1))
    objective.pooled_model_cov = (
        np.einsum("b,bde->de", objective.counts, objective.block_covs) / objective.size
    )
    return objective


def _from_updates(rng) -> SpreadObjective:
    """A subgroup of a model that assimilated 0-3 random location and
    spread patterns, so its blocks are the ones mining makes."""
    n = int(rng.integers(60, 160))
    mixing = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    targets = rng.standard_normal((n, 2)) @ mixing + rng.standard_normal(2)
    model = BackgroundModel.from_targets(targets)
    for _ in range(int(rng.integers(0, 4))):
        rows = np.sort(rng.choice(n, int(rng.integers(6, n // 2)), replace=False))
        center = targets[rows].mean(axis=0)
        model.assimilate(LocationConstraint(rows, center))
        if rng.random() < 0.7:
            w = random_unit(rng, 2)
            variance = float(np.mean(((targets[rows] - center) @ w) ** 2))
            model.assimilate(SpreadConstraint(rows, w, variance, center))
    rows = np.sort(rng.choice(n, int(rng.integers(5, n // 2)), replace=False))
    return SpreadObjective(model, rows, targets)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["blocks", "updates"]))
def test_the_circle_is_at_least_the_ascent_on_well_conditioned_problems(seed, kind):
    """Random blocks often put the subgroup's variance under the Zhang
    shift in some direction, and then the best IC can sit on the clamp
    (see :func:`test_a_peak_on_the_clamp_edge`); such problems are left
    out, as are subgroups with an eigenvalue ratio under 1e-8 (see
    :func:`test_near_collinear_subgroup_reads_rounding_noise`)."""
    rng = np.random.default_rng(seed)
    objective = _from_blocks(rng) if kind == "blocks" else _from_updates(rng)
    assume(_eigen_ratio(objective) >= 1e-8)
    starts = _starts(objective, rng)
    w, ascent = _best_ascent(objective, starts)
    assume(objective.standardized(w) > _TINY)
    outcome = _circle_direction(objective, starts)
    assert outcome.route == "circle"
    assert outcome.ic == objective.value(outcome.direction)
    # Each start is a sample: its IC, exactly as its ascent begins from it.
    for start in starts:
        assert outcome.ic >= objective.value(start / float(np.linalg.norm(start)))
    assert outcome.ic >= ascent - 1e-9 * max(1.0, abs(ascent))
    event(f"{kind}: circle {'above' if outcome.ic > ascent else 'at or under'} the ascent")


# --------------------------------------------------------------------- #
# Mining sessions
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(5))
def test_synthetic_sessions_agree_with_the_ascent(monkeypatch, seed):
    """Each spread step of a 3-step session at paper settings, against the
    ascent from the same ten starts on the same subgroup and model."""
    find = miner_module.find_spread_direction
    checked = []

    def both_routes(model, indices, targets, **kwargs):
        rng = copy.deepcopy(kwargs["seed"])
        outcome = find(model, indices, targets, **kwargs)
        objective = SpreadObjective(model, indices, targets)
        _, ascent = _best_ascent(objective, _starts(objective, rng))
        checked.append((outcome.route, _close(outcome.ic, ascent)))
        return outcome

    monkeypatch.setattr(miner_module, "find_spread_direction", both_routes)
    SubgroupDiscovery(make_synthetic(seed), config=SearchConfig(), seed=seed).run(3, kind="spread")
    assert checked == [("circle", True)] * 3


def test_the_executor_does_not_matter(synthetic_dataset):
    """No executor, the serial one and a process pool: the circle runs in
    the caller, so all three give the same bytes."""
    model = BackgroundModel.from_targets(synthetic_dataset.targets)
    rows = np.arange(40)
    outcomes = [
        find_spread_direction(model, rows, synthetic_dataset.targets, seed=7, executor=executor)
        for executor in (None, SerialExecutor())
    ]
    with ProcessExecutor(2) as pool:
        outcomes.append(
            find_spread_direction(model, rows, synthetic_dataset.targets, seed=7, executor=pool)
        )
    keys = [
        (
            outcome.route,
            outcome.direction.tobytes(),
            outcome.ic.hex(),
            outcome.variance.hex(),
            outcome.n_starts,
            outcome.n_iterations,
        )
        for outcome in outcomes
    ]
    assert keys[0][0] == "circle"
    assert keys[1:] == [keys[0]] * 2


def test_batched_samples_have_one_row_bytes(synthetic_dataset):
    """The grid and start rows of one batched evaluation each carry the
    IC bits of a one-row ``value`` call, on a model with spread-split
    blocks."""
    miner = SubgroupDiscovery(synthetic_dataset, config=SearchConfig(), seed=0)
    miner.run(2, kind="spread")
    rows = np.arange(200)
    objective = SpreadObjective(miner.model, rows, synthetic_dataset.targets)
    assert len(objective.counts) > 1
    starts = _starts(objective, np.random.default_rng(0))
    points = [np.array([c, s]) for c, s in zip(_GRID_COS, _GRID_SIN)]
    points += [start / float(np.linalg.norm(start)) for start in starts]
    batched = [ic for _, ic in objective._evaluate(np.array(points))]
    assert [ic.hex() for ic in batched] == [objective.value(w).hex() for w in points]


# --------------------------------------------------------------------- #
# Where the IC reads the floor or rounding noise
# --------------------------------------------------------------------- #


def test_a_peak_on_the_clamp_edge():
    """A subgroup whose variance falls under the Zhang shift beta along
    some directions: there the statistic t = (v - beta) / alpha is
    clamped at ``_TINY``, and the IC's maximum is the kink where t meets
    the clamp, steep on the unclamped side and sloped on the other.
    Bounded Brent stops within its tolerance, sqrt(eps) * |theta|, of the
    kink, on the clamped side: when this case was written, 4.7e-9 rad
    from the ascent's end, 1.1e-8 relative under its IC (over 400 random
    multi-block problems, at most 1.1e-7). Both routes read the floor,
    not the subgroup. Only the shortfall's bound is asserted, so a
    search that lands closer to the kink still passes.
    """
    rng = np.random.default_rng(168)
    objective = _from_blocks(rng)
    objective.empirical_cov = _psd(rng, 10.0 ** rng.uniform(-2, 1))
    starts = _starts(objective, rng)
    w, ascent = _best_ascent(objective, starts)
    outcome = _circle_direction(objective, starts)
    assert objective.standardized(w) <= _TINY
    assert outcome.clamped
    assert ascent - outcome.ic < 1e-6 * ascent


def _near_collinear(noise: float, seed: int) -> SpreadObjective:
    """60 rows whose second target is twice the first plus ``noise``
    (the subgroup), and 60 rows of independent targets."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(120)
    targets = np.column_stack([base, 2.0 * base + noise * rng.standard_normal(120)])
    targets[60:] = rng.standard_normal((60, 2))
    return SpreadObjective(BackgroundModel.from_targets(targets), np.arange(60), targets)


def test_near_collinear_subgroup_reads_rounding_noise():
    """A subgroup whose two targets are almost collinear.

    Over 400 random problems, the circle route was lower than the ascent
    by more than 1e-9 relative only on subgroups whose covariance
    eigenvalue ratio was at most 4.1e-11, and then by at most 1.6e-4
    relative. There both routes read rounding noise: all ten ascents
    ended on one peak, and their ICs spread over about 7e-5 relative.

    The IC's peak along the low-variance direction is about sqrt(ratio)
    wide. Bounded Brent locates it to sqrt(eps) * |theta|, which costs
    about (dof / 2) * eps * theta^2 / ratio of IC, the same order as the
    rounding error of v itself there, about (dof / 2) * eps / ratio. In
    the family below (noise 1e-4, 1e-5, 1e-6 on 60 rows; seeds 0-5) the
    circle read under the best ascent by 5e-9 to 1e-8 relative at ratios
    near 4e-10, 3e-7 to 9e-7 near 4e-12, and 3e-5 to 9e-5 near 4e-14.
    Steadying such an IC is the spread IC floor's problem, not the
    search's. This case pins the picture at a ratio near 5e-14: the
    ascents that end on the peak agree on its angle to 1e-8 rad but not
    on its IC, and the circle's IC lies within 1e-3 relative of the best
    of theirs (when this case was written, just under it).
    """
    objective = _near_collinear(1e-6, 0)
    assert _eigen_ratio(objective) < 1e-13
    starts = _starts(objective, np.random.default_rng(0))
    outcome = _circle_direction(objective, starts)
    angle = math.atan2(outcome.direction[1], outcome.direction[0]) % math.pi
    on_peak = [
        value
        for w, value, _, _ in _ascend_lockstep(objective, starts, **ASCENT)
        if abs(math.atan2(w[1], w[0]) % math.pi - angle) < 1e-8
    ]
    assert len(on_peak) >= 2
    assert max(on_peak) - min(on_peak) > 1e-7 * max(on_peak)
    assert max(on_peak) - 1e-3 * max(on_peak) < outcome.ic
    assert outcome.ic >= max(objective.value(start / np.linalg.norm(start)) for start in starts)
