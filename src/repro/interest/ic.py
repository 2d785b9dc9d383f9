"""Information Content of location and spread patterns.

The IC of a pattern is the negative log probability (density) of its
statistic under the background distribution — the number of nats the
user gains by learning it. Location patterns have a Gaussian marginal
(Eq. 13); spread patterns use the chi-squared mixture approximation
(Eq. 19 plus ``log alpha``: the density of ``alpha * chi2(m) + beta``
carries the Jacobian ``1/alpha``, which the printed Eq. 19 leaves out;
see :meth:`repro.stats.Chi2Mixture.logpdf`).

ICs here are in *nats* (natural log), like the paper's Matlab code; the
unit only rescales SI values uniformly, so rankings are unaffected.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.model.background import BackgroundModel
from repro.model.gaussian import mvn_logpdf
from repro.stats.chi2mix import Chi2Mixture
from repro.utils.validation import check_unit_vector, check_vector


def location_ic(
    model: BackgroundModel,
    indices,
    observed_mean: np.ndarray,
) -> float:
    """Eq. 13: IC of a location pattern.

    ``f_I(Y)`` is normal with mean ``mu_I`` and covariance
    ``Sigma_I = sum Sigma_i / |I|^2`` under the model; the IC is its
    negative log density at the observed subgroup mean. It grows both
    with the surprise of the mean displacement and with the subgroup
    size (larger subgroups pin the statistic more sharply).
    """
    observed_mean = check_vector(observed_mean, "observed_mean", size=model.dim)
    mu, cov = model.subgroup_mean_distribution(indices)
    return -mvn_logpdf(observed_mean, mu, cov)


def spread_ic(
    model: BackgroundModel,
    indices,
    direction: np.ndarray,
    observed_variance: float,
    center: np.ndarray,
) -> float:
    """Eq. 19: IC of a spread pattern along unit ``direction``.

    With the location pattern already assimilated, each subgroup point
    contributes ``a_i = w' Sigma_i w / |I|`` times a chi-squared(1)
    variable to ``g_I^w``; the Zhang approximation of that mixture gives
    the density whose negative log is returned.

    If the model means inside the subgroup differ from ``center`` (the
    paper's overlapping-patterns caveat, footnote 3), the chi-squares are
    really non-central; following the paper we approximate with the
    central form regardless.
    """
    direction = check_unit_vector(direction, "direction")
    if direction.shape[0] != model.dim:
        raise ModelError(
            f"direction has dim {direction.shape[0]}, model has {model.dim}"
        )
    if not observed_variance > 0.0:
        raise ModelError(
            f"observed variance must be positive, got {observed_variance}"
        )
    counts, _means, covs = model.spread_blocks(indices)
    size = float(counts.sum())
    coefficients = np.array([float(direction @ cov @ direction) for cov in covs]) / size
    mixture = Chi2Mixture(coefficients, weights=counts)
    return -float(mixture.logpdf(observed_variance))
