"""Prior belief specifications for the initial MaxEnt background model.

The paper considers a user who expects the overall mean of the targets
to be a vector ``mu`` and their covariance to be ``Sigma`` (§II-B); the
MaxEnt distribution under those expectations is i.i.d. multivariate
normal. In all the paper's experiments the prior is set to the empirical
values of the full data; :func:`empirical_prior` builds that, with a tiny
relative jitter to keep near-singular covariances (e.g. 124 correlated
binary species indicators) safely positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.model.gaussian import validate_covariance
from repro.utils.validation import check_vector


@dataclass(frozen=True)
class Prior:
    """An (expected mean, expected covariance) pair for the targets."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = check_vector(self.mean, "mean")
        cov = validate_covariance(self.cov)
        if cov.shape[0] != mean.shape[0]:
            raise ModelError(
                f"prior mean has dim {mean.shape[0]} but cov is {cov.shape[0]}x{cov.shape[1]}"
            )
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return int(self.mean.shape[0])


def empirical_prior(
    targets: np.ndarray,
    *,
    weights: np.ndarray | None = None,
    jitter: float = 1e-9,
    shrinkage: float = 0.0,
) -> Prior:
    """Prior equal to the empirical mean/covariance of ``targets``.

    Parameters
    ----------
    targets:
        ``(n, d)`` target matrix (a 1-D array is treated as one target).
    weights:
        Optional per-row case weights. The prior becomes the *weighted*
        empirical mean and (1/W-normalized) covariance, matching the
        belief a user would form from the reweighted population; ``None``
        takes the exact unweighted code path.
    jitter:
        Relative diagonal jitter: ``jitter * mean(diag)`` is added to the
        covariance diagonal so downstream Cholesky factorizations cannot
        fail on rank-deficient data.
    shrinkage:
        Optional convex shrinkage toward the diagonal,
        ``(1 - shrinkage) * S + shrinkage * diag(S)`` — useful when
        ``d`` approaches ``n`` and the empirical covariance is noisy.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim == 1:
        targets = targets[:, None]
    if targets.ndim != 2 or targets.shape[0] < 2:
        raise ModelError(f"targets must be (n>=2, d), got shape {targets.shape}")
    if not 0.0 <= shrinkage <= 1.0:
        raise ModelError(f"shrinkage must be in [0, 1], got {shrinkage}")

    if weights is None:
        mean = targets.mean(axis=0)
        centered = targets - mean
        cov = (centered.T @ centered) / targets.shape[0]
    else:
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.shape[0] != targets.shape[0]:
            raise ModelError(
                f"weights must be 1-D of length {targets.shape[0]}, got shape {w.shape}"
            )
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ModelError("weights must be positive finite floats")
        # Premultiplied forms: with unit weights every intermediate is
        # bit-identical to the unweighted branch (w == 1.0 premultiplies
        # and n/W == 1.0 rescales without changing a single bit), which
        # the engine's weighted-determinism contract relies on. The
        # sqrt(w) form keeps the product an x.T @ x of one buffer, the
        # same BLAS syrk call the unweighted branch hits.
        total = float(w.sum())
        mean = (targets * w[:, None]).mean(axis=0) * (targets.shape[0] / total)
        scaled = (targets - mean) * np.sqrt(w)[:, None]
        cov = scaled.T @ scaled / total
    if shrinkage > 0.0:
        cov = (1.0 - shrinkage) * cov + shrinkage * np.diag(np.diag(cov))
    diag_scale = float(np.mean(np.diag(cov)))
    if diag_scale <= 0.0:
        raise ModelError("targets have zero variance; no informative prior exists")
    cov = cov + (jitter * diag_scale) * np.eye(cov.shape[0])
    return Prior(mean, cov)
