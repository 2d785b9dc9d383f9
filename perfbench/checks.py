"""Output checks: what was mined must be what should have been mined.

Each check returns ``(name, ok, detail)``. The runner prints every
check and marks the run incorrect if any fails.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: The seed the recorded reference was mined at.
REFERENCE_SEED = 0
#: Allowed distance from the recorded SI (relative to max(1, |SI|)).
REFERENCE_TOL = 1e-9
#: Allowed relative distance of the from-scratch step-1 SI.
RECOMPUTE_TOL = 1e-6


def iteration_key(iteration) -> tuple:
    """Every number an iteration carries, as exact bytes."""
    loc = iteration.location
    key = [
        iteration.index,
        str(loc.description),
        np.asarray(loc.indices).tobytes(),
        np.asarray(loc.mean, dtype=float).tobytes(),
        float(loc.score.ic).hex(),
        float(loc.score.dl).hex(),
    ]
    spread = iteration.spread
    if spread is not None:
        key += [
            np.asarray(spread.direction, dtype=float).tobytes(),
            float(spread.variance).hex(),
            float(spread.score.ic).hex(),
            float(spread.score.dl).hex(),
        ]
    return tuple(key)


def keys(iterations) -> list[tuple]:
    return [iteration_key(it) for it in iterations]


def same_iterations(name: str, left, right) -> tuple[str, bool, str]:
    """Bit-for-bit equality of two iteration sequences."""
    if len(left) != len(right):
        return name, False, f"{len(left)} vs {len(right)} iterations"
    for a, b in zip(left, right):
        if iteration_key(a) != iteration_key(b):
            return name, False, f"iteration {a.index} differs: {a.location} vs {b.location}"
    return name, True, f"{len(left)} iterations identical"


def step_summary(iteration) -> dict:
    """The recorded form of one mined step."""
    row = {
        "description": str(iteration.location.description),
        "si": iteration.location.score.si,
    }
    if iteration.spread is not None:
        row["spread_si"] = iteration.spread.score.si
    return row


def reference_check(workload: str, iterations) -> tuple[str, bool, str]:
    """Each step's description and SI against the recorded reference."""
    recorded = json.loads(REFERENCE.read_text()).get(workload)
    mined = [step_summary(it) for it in iterations]
    if recorded is None:
        return "reference", False, f"no reference recorded; mined {mined}"
    if len(mined) != len(recorded):
        return "reference", False, f"{len(mined)} steps, reference has {len(recorded)}"
    for i, (got, want) in enumerate(zip(mined, recorded), start=1):
        if got["description"] != want["description"]:
            return "reference", False, f"step {i}: {got['description']!r} != {want['description']!r}"
        for key in ("si", "spread_si"):
            if key not in want:
                continue
            if abs(got[key] - want[key]) > REFERENCE_TOL * max(1.0, abs(want[key])):
                return "reference", False, f"step {i}: {key} {got[key]!r} != {want[key]!r}"
    return "reference", True, f"{len(mined)} steps match to {REFERENCE_TOL:g}"


def _extension(dataset, description) -> np.ndarray:
    """The description's rows, evaluated straight from the columns."""
    mask = np.ones(dataset.n_rows, dtype=bool)
    for condition in description.conditions:
        values = dataset.column(condition.attribute).values
        op = getattr(condition, "op", None)
        if op == "<=":
            mask &= values <= condition.threshold
        elif op == ">=":
            mask &= values >= condition.threshold
        elif isinstance(condition.value, float):
            mask &= values == condition.value
        else:
            mask &= values == str(condition.value)
    return mask


def first_step_check(dataset, iteration, gamma: float, eta: float) -> tuple[str, bool, str]:
    """Recompute step 1 from scratch: extension, then Eq. 13 on a fresh model.

    The fresh model is the empirical prior (mean, covariance with the
    prior's relative diagonal jitter of 1e-9), so every row's mean and
    covariance are shared and the subgroup mean is N(mu, Sigma / |I|).
    """
    loc = iteration.location
    mask = _extension(dataset, loc.description)
    if not np.array_equal(np.flatnonzero(mask), np.asarray(loc.indices)):
        return "recompute", False, f"extension of {loc.description} differs"
    y = np.asarray(dataset.targets, dtype=float)
    y = y[:, None] if y.ndim == 1 else y
    n, d = y.shape
    mu = y.mean(axis=0)
    cov = (y - mu).T @ (y - mu) / n
    cov += 1e-9 * float(np.mean(np.diag(cov))) * np.eye(d)
    size = int(mask.sum())
    diff = y[mask].mean(axis=0) - mu
    _, logdet = np.linalg.slogdet(cov / size)
    maha = size * float(diff @ np.linalg.solve(cov, diff))
    ic = 0.5 * (d * math.log(2 * math.pi) + logdet + maha)
    si = ic / (gamma * len(loc.description.conditions) + eta)
    rel = abs(si - loc.score.si) / max(1.0, abs(si))
    ok = rel <= RECOMPUTE_TOL
    return "recompute", ok, f"step 1 SI {loc.score.si:.6f} vs {si:.6f} (rel {rel:.1e})"


def spread_norm_check(iterations) -> tuple[str, bool, str]:
    """Every spread direction is a unit vector."""
    worst = 0.0
    for it in iterations:
        if it.spread is not None:
            worst = max(worst, abs(float(np.linalg.norm(it.spread.direction)) - 1.0))
    return "spread-unit", worst <= 1e-9, f"max | |w| - 1 | = {worst:.1e}"
