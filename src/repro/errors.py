"""Exception hierarchy for the SISD library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class DataError(ReproError):
    """Raised when a dataset is malformed or inconsistent.

    Examples: mismatched row counts between description and target blocks,
    a column whose declared kind does not match its values, or an unknown
    attribute name in a condition.
    """


class LanguageError(ReproError):
    """Raised for invalid descriptions or conditions.

    Examples: a numeric condition on a categorical attribute, an empty
    value set for a categorical inclusion condition, or a malformed
    serialized description string.
    """


class ModelError(ReproError):
    """Raised when the background model is used or updated incorrectly.

    Examples: updating with an empty extension, a non-positive-definite
    prior covariance, or querying statistics before the model is fitted.
    """


class NotFittedError(ModelError):
    """Raised when a model/miner method requires :meth:`fit` first."""


class SearchError(ReproError):
    """Raised when pattern search cannot proceed.

    Examples: a beam search with zero admissible refinements at depth one,
    or a spread search on a subgroup with fewer than two rows.
    """


class EngineError(ReproError):
    """Raised by the parallel mining engine (executors, jobs, service).

    Examples: an invalid worker count, a malformed job spec, or querying
    the mining service for an unknown job id.
    """


class DeadlineExpired(EngineError):
    """Raised when a queued job's deadline passed before it could start.

    The scheduler never starts work that can no longer be useful: a
    :class:`~repro.spec.MiningSpec` submitted with an
    ``executor.deadline`` that elapses while the job is still waiting
    for a worker slot is
    moved to the terminal ``EXPIRED`` state, and
    :meth:`~repro.engine.service.MiningService.result` re-raises this.
    """


class AnalysisError(ReproError):
    """Raised by the static-analysis engine (:mod:`repro.analysis`).

    Examples: an unknown lint rule id passed to ``sisd lint --explain``,
    a malformed baseline file, or a ``--changed`` ref that git cannot
    resolve.
    """


class ObsError(ReproError):
    """Raised by the observability layer (:mod:`repro.obs`).

    Examples: registering two instruments under one metric name with
    different kinds or label sets, observing a non-finite value on a
    histogram, or feeding ``sisd top`` a document that is not
    Prometheus text.
    """


class ConvergenceError(ReproError):
    """Raised when an iterative solver fails to converge.

    Carries enough context (``iterations``, ``residual``) for callers to
    decide whether to retry with looser tolerances.
    """

    def __init__(self, message: str, *, iterations: int | None = None,
                 residual: float | None = None) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
