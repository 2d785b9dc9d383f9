"""The evolving background distribution (Eq. 4) and its updates.

:class:`BackgroundModel` represents the user's belief state as a product
of per-point multivariate normals whose parameters are shared within the
blocks of a :class:`~repro.model.blocks.BlockPartition`. Assimilating a
pattern (:meth:`assimilate`) performs the KL-minimal update of Theorem 1
(location) or Theorem 2 (spread); :meth:`refit` re-derives the model from
the prior for an arbitrary *set* of patterns by coordinate descent, the
procedure whose runtime the paper's Table II measures.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, ModelError
from repro.model.blocks import BlockPartition
from repro.model.gaussian import mvn_logpdf
from repro.model.patterns import (
    LocationConstraint,
    PatternConstraint,
    SpreadConstraint,
)
from repro.model.priors import Prior, empirical_prior
from repro.model.updates import (
    location_multiplier,
    solve_spread_multiplier,
    spread_block_update,
)


class BackgroundModel:
    """Belief state over an ``(n, d)`` target matrix.

    Parameters
    ----------
    n_rows:
        Number of data points.
    prior:
        Initial expectation: every point starts as ``N(prior.mean,
        prior.cov)`` (the MaxEnt distribution under the user's expected
        mean and covariance).
    weights:
        Optional per-row case weights (frequency semantics: a row with
        weight ``w`` behaves as ``w`` independent copies in every
        sufficient statistic). ``None`` keeps the exact unweighted code
        path, so unit weights stay bit-identical to no weights.
    """

    def __init__(
        self, n_rows: int, prior: Prior, weights: np.ndarray | None = None
    ) -> None:
        if n_rows <= 0:
            raise ModelError(f"n_rows must be positive, got {n_rows}")
        self.prior = prior
        self._n_rows = n_rows
        self._partition = BlockPartition(n_rows)
        self._means: list[np.ndarray] = [prior.mean.copy()]
        self._covs: list[np.ndarray] = [prior.cov.copy()]
        self._constraints: list[PatternConstraint] = []
        self._weights = self._check_weights(weights, n_rows)

    @staticmethod
    def _check_weights(weights, n_rows: int) -> np.ndarray | None:
        if weights is None:
            return None
        arr = np.asarray(weights, dtype=float)
        if arr.ndim != 1 or arr.shape[0] != n_rows:
            raise ModelError(
                f"weights must be a 1-D array of length {n_rows}, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ModelError("weights must be positive finite floats")
        return arr.copy()

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_targets(
        cls,
        targets: np.ndarray,
        weights: np.ndarray | None = None,
        **prior_kwargs,
    ) -> "BackgroundModel":
        """Model with the empirical prior of ``targets`` (paper's setup).

        With ``weights``, the prior is the *weighted* empirical mean and
        covariance — consistent with the duplicated-rows interpretation.
        """
        targets = np.asarray(targets, dtype=float)
        if targets.ndim == 1:
            targets = targets[:, None]
        return cls(
            targets.shape[0],
            empirical_prior(targets, weights=weights, **prior_kwargs),
            weights=weights,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def dim(self) -> int:
        return self.prior.dim

    @property
    def n_blocks(self) -> int:
        return self._partition.n_blocks

    @property
    def labels(self) -> np.ndarray:
        """Per-row block labels (read-only view)."""
        return self._partition.labels

    @property
    def constraints(self) -> tuple[PatternConstraint, ...]:
        """Patterns assimilated so far, in order."""
        return tuple(self._constraints)

    @property
    def weights(self) -> np.ndarray | None:
        """Case weights the model was built with (``None`` = unit)."""
        return self._weights

    def block_mean(self, block: int) -> np.ndarray:
        """Mean parameter of one block (copy)."""
        return self._means[block].copy()

    def block_cov(self, block: int) -> np.ndarray:
        """Covariance parameter of one block (copy)."""
        return self._covs[block].copy()

    def block_sizes(self) -> np.ndarray:
        """Number of rows in each block, indexed by block label."""
        return self._partition.sizes()

    def mean_of(self, i: int) -> np.ndarray:
        """Current mean parameter of data point ``i``."""
        return self._means[int(self.labels[i])].copy()

    def cov_of(self, i: int) -> np.ndarray:
        """Current covariance parameter of data point ``i``."""
        return self._covs[int(self.labels[i])].copy()

    def point_means(self) -> np.ndarray:
        """``(n, d)`` matrix of per-point mean parameters."""
        stacked = np.stack(self._means)
        return stacked[self.labels]

    def copy(self) -> "BackgroundModel":
        """Deep copy; used by searches that score hypothetical updates."""
        clone = BackgroundModel(self._n_rows, self.prior, weights=self._weights)
        clone._partition = BlockPartition(self._n_rows)
        clone._partition._labels[:] = self._partition.labels
        clone._partition._n_blocks = self._partition.n_blocks
        clone._means = [m.copy() for m in self._means]
        clone._covs = [c.copy() for c in self._covs]
        clone._constraints = list(self._constraints)
        return clone

    # ------------------------------------------------------------------ #
    # Subgroup-level expectations
    # ------------------------------------------------------------------ #
    def _as_mask(self, indices) -> np.ndarray:
        arr = np.asarray(indices)
        if arr.dtype == bool:
            if arr.shape != (self._n_rows,):
                raise ModelError(
                    f"mask must have shape ({self._n_rows},), got {arr.shape}"
                )
            mask = arr
        else:
            mask = np.zeros(self._n_rows, dtype=bool)
            mask[arr.astype(np.int64)] = True
        if not mask.any():
            raise ModelError("subgroup extension is empty")
        return mask

    def _block_weights(self, mask: np.ndarray) -> np.ndarray:
        """Weighted row count of each block inside ``mask`` (float array).

        Unweighted models return the exact integer block counts as
        floats, so every statistic built on them is bit-identical to the
        historical count-based arithmetic.
        """
        if self._weights is None:
            return self._partition.counts_in(mask).astype(float)
        return np.bincount(
            self._partition.labels[mask],
            weights=self._weights[mask],
            minlength=self._partition.n_blocks,
        )

    def subgroup_mean_distribution(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """Distribution of the subgroup mean statistic ``f_I(Y)``.

        Under the model, ``f_I(Y) ~ N(mu_I, Sigma_I)`` with
        ``mu_I = sum_{i in I} mu_i / |I|`` and — being a mean of
        independent Gaussians — ``Sigma_I = sum_{i in I} Sigma_i / |I|^2``.
        The divisor is ``|I|^2``: dividing by ``|I|`` would give the
        average per-point covariance (:meth:`pooled_cov`), which does not
        shrink as the subgroup grows. With case weights, counts become
        weighted counts and ``|I|`` the total subgroup weight: a row of
        weight ``w`` contributes like ``w`` independent copies, so the
        covariance stays *linear* in ``w`` (frequency semantics).
        """
        mask = self._as_mask(indices)
        counts = self._block_weights(mask)
        size = float(counts.sum())
        mu = np.zeros(self.dim)
        cov = np.zeros((self.dim, self.dim))
        for block in np.flatnonzero(counts):
            c = float(counts[block])
            mu += c * self._means[block]
            cov += c * self._covs[block]
        return mu / size, cov / size**2

    def expected_subgroup_mean(self, indices) -> np.ndarray:
        """``E[f_I(Y)]`` under the current model."""
        return self.subgroup_mean_distribution(indices)[0]

    def pooled_cov(self, indices) -> np.ndarray:
        """Average per-point covariance over the subgroup (weight-aware)."""
        mask = self._as_mask(indices)
        counts = self._block_weights(mask)
        size = float(counts.sum())
        cov = np.zeros((self.dim, self.dim))
        for block in np.flatnonzero(counts):
            cov += float(counts[block]) * self._covs[block]
        return cov / size

    def spread_blocks(self, indices) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """Per-block data for spread computations over a subgroup.

        Returns ``(counts, means, covs)`` restricted to blocks that
        intersect the subgroup, with ``counts`` the (weighted) number of
        subgroup rows in each.
        """
        mask = self._as_mask(indices)
        counts = self._block_weights(mask)
        inside = np.flatnonzero(counts)
        return (
            counts[inside],
            [self._means[b] for b in inside],
            [self._covs[b] for b in inside],
        )

    def expected_spread(self, indices, direction: np.ndarray, center: np.ndarray) -> float:
        """``E[g_I^w(Y)]`` for the statistic centred at ``center``.

        For each point, ``E[((y - center)'w)^2] = w'Sigma w +
        (w'(mu - center))^2``; the statistic averages these.
        """
        counts, means, covs = self.spread_blocks(indices)
        direction = np.asarray(direction, dtype=float)
        center = np.asarray(center, dtype=float)
        total = 0.0
        for c, mu, cov in zip(counts, means, covs):
            s = float(direction @ cov @ direction)
            e = float(direction @ (mu - center))
            total += c * (s + e**2)
        return total / float(counts.sum())

    def logpdf(self, targets: np.ndarray) -> float:
        """Log density of the full target matrix under the model."""
        targets = np.asarray(targets, dtype=float)
        if targets.ndim == 1:
            targets = targets[:, None]
        if targets.shape != (self._n_rows, self.dim):
            raise ModelError(
                f"targets must have shape ({self._n_rows}, {self.dim}), "
                f"got {targets.shape}"
            )
        total = 0.0
        labels = self.labels
        for block in range(self.n_blocks):
            rows = np.flatnonzero(labels == block)
            if rows.size == 0:
                continue
            mean, cov = self._means[block], self._covs[block]
            for i in rows:
                total += mvn_logpdf(targets[i], mean, cov)
        return total

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def _split_for(self, mask: np.ndarray) -> None:
        created = self._partition.split(mask)
        for old_label in sorted(created, key=created.get):
            new_label = created[old_label]
            if new_label != len(self._means):
                raise ModelError("partition and parameter store out of sync")
            self._means.append(self._means[old_label].copy())
            self._covs.append(self._covs[old_label].copy())

    def _apply_location(self, constraint: LocationConstraint) -> None:
        if constraint.mean.shape[0] != self.dim:
            raise ModelError(
                f"constraint dimension {constraint.mean.shape[0]} != model dim {self.dim}"
            )
        mask = constraint.mask(self._n_rows)
        self._split_for(mask)
        counts = self._block_weights(mask)
        inside = np.flatnonzero(counts)
        lam = location_multiplier(
            [self._covs[b] for b in inside],
            counts[inside],
            [self._means[b] for b in inside],
            constraint.mean,
        )
        for block in inside:
            self._means[block] = self._means[block] + self._covs[block] @ lam

    def _apply_spread(self, constraint: SpreadConstraint) -> None:
        if constraint.direction.shape[0] != self.dim:
            raise ModelError(
                f"constraint dimension {constraint.direction.shape[0]} != model dim {self.dim}"
            )
        mask = constraint.mask(self._n_rows)
        self._split_for(mask)
        counts = self._block_weights(mask)
        inside = np.flatnonzero(counts)
        w = constraint.direction
        s = np.array([float(w @ self._covs[b] @ w) for b in inside])
        e = np.array([float(w @ (constraint.center - self._means[b])) for b in inside])
        # The statistic normalizes by the (weighted) subgroup size; for
        # unit weights counts.sum() equals constraint.size exactly.
        lam = solve_spread_multiplier(
            s, e, counts[inside], float(counts.sum()),
            constraint.variance,
        )
        for block in inside:
            self._means[block], self._covs[block] = spread_block_update(
                self._means[block], self._covs[block], w, constraint.center, lam
            )

    def assimilate(self, constraint: PatternConstraint) -> "BackgroundModel":
        """Update the belief state with one pattern; returns ``self``.

        The update enforces the pattern's statistic in expectation
        *exactly*; previously assimilated constraints with overlapping
        extensions may drift and can be re-tightened with :meth:`refit`.
        """
        if isinstance(constraint, LocationConstraint):
            self._apply_location(constraint)
        elif isinstance(constraint, SpreadConstraint):
            self._apply_spread(constraint)
        else:
            raise ModelError(
                f"cannot assimilate {type(constraint).__name__}"
            )
        self._constraints.append(constraint)
        return self

    # ------------------------------------------------------------------ #
    # Residuals and refitting
    # ------------------------------------------------------------------ #
    def constraint_residual(self, constraint: PatternConstraint) -> float:
        """How far the model is from satisfying one constraint.

        Location: max absolute gap between expected and specified
        subgroup mean, relative to the prior scale. Spread: relative gap
        between expected and specified variance.
        """
        if isinstance(constraint, LocationConstraint):
            expected = self.expected_subgroup_mean(constraint.indices)
            scale = float(np.sqrt(np.diag(self.prior.cov)).max())
            return float(np.abs(expected - constraint.mean).max()) / max(scale, 1e-300)
        if isinstance(constraint, SpreadConstraint):
            expected = self.expected_spread(
                constraint.indices, constraint.direction, constraint.center
            )
            return abs(expected - constraint.variance) / max(constraint.variance, 1e-300)
        raise ModelError(f"unknown constraint type {type(constraint).__name__}")

    def max_residual(self) -> float:
        """Largest residual over all assimilated constraints (0 if none)."""
        if not self._constraints:
            return 0.0
        return max(self.constraint_residual(c) for c in self._constraints)

    def refit(
        self,
        constraints: list[PatternConstraint] | None = None,
        *,
        tol: float = 1e-9,
        max_rounds: int = 100,
    ) -> int:
        """Re-derive the model from the prior under a set of constraints.

        Coordinate descent: reset to the prior, then repeatedly sweep the
        constraint list applying each update in turn until every residual
        falls below ``tol``. The KL objective is convex with linear/
        quadratic expectation constraints, so this converges to the
        global optimum; with non-overlapping extensions one sweep
        suffices (the paper's common case).

        Returns the number of sweeps performed. Raises
        :class:`~repro.errors.ConvergenceError` if ``max_rounds`` sweeps
        leave some residual above ``tol``.
        """
        if constraints is None:
            constraints = list(self._constraints)
        # Reset to the prior.
        self._partition = BlockPartition(self._n_rows)
        self._means = [self.prior.mean.copy()]
        self._covs = [self.prior.cov.copy()]
        self._constraints = []
        if not constraints:
            return 0

        for sweep in range(1, max_rounds + 1):
            for constraint in constraints:
                if isinstance(constraint, LocationConstraint):
                    self._apply_location(constraint)
                elif isinstance(constraint, SpreadConstraint):
                    self._apply_spread(constraint)
                else:
                    raise ModelError(
                        f"cannot refit {type(constraint).__name__}"
                    )
            self._constraints = list(constraints)
            residual = self.max_residual()
            if residual < tol:
                return sweep
        raise ConvergenceError(
            f"refit did not converge in {max_rounds} sweeps",
            iterations=max_rounds,
            residual=residual,
        )


def fitted_model(targets: np.ndarray, **prior_kwargs) -> BackgroundModel:
    """Convenience: :meth:`BackgroundModel.from_targets` as a function."""
    return BackgroundModel.from_targets(targets, **prior_kwargs)
