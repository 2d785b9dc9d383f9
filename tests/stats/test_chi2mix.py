"""Tests for the Zhang (2005) chi-squared mixture approximation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.errors import ModelError
from repro.stats.chi2mix import _TINY, Chi2Mixture


class TestCoefficients:
    def test_uniform_coefficients_exact(self):
        """All a_i equal: the approximation is EXACT, g = a * chi2(n)."""
        mixture = Chi2Mixture(np.full(7, 0.5))
        assert mixture.alpha == pytest.approx(0.5)
        assert mixture.beta == pytest.approx(0.0, abs=1e-12)
        assert mixture.dof == pytest.approx(7.0)

    def test_weights_equal_repetition(self):
        a = np.array([0.2, 0.7])
        repeated = Chi2Mixture(np.array([0.2, 0.2, 0.2, 0.7]))
        weighted = Chi2Mixture(a, weights=np.array([3.0, 1.0]))
        assert weighted.alpha == pytest.approx(repeated.alpha)
        assert weighted.beta == pytest.approx(repeated.beta)
        assert weighted.dof == pytest.approx(repeated.dof)

    def test_cumulant_matching(self, rng):
        """alpha/beta/m match the mixture's first three cumulants."""
        a = np.abs(rng.standard_normal(6)) + 0.05
        w = rng.integers(1, 10, 6).astype(float)
        mixture = Chi2Mixture(a, weights=w)
        # Approximation side: alpha*chi2(m) + beta.
        assert mixture.alpha * mixture.dof + mixture.beta == pytest.approx(
            mixture.mean
        )
        assert 2 * mixture.alpha**2 * mixture.dof == pytest.approx(mixture.variance)
        assert 8 * mixture.alpha**3 * mixture.dof == pytest.approx(
            mixture.third_cumulant
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ModelError, match="positive"):
            Chi2Mixture(np.array([0.5, 0.0]))

    def test_rejects_empty(self):
        with pytest.raises(ModelError, match="non-empty"):
            Chi2Mixture(np.array([]))

    def test_rejects_bad_weights(self):
        with pytest.raises(ModelError, match="shape"):
            Chi2Mixture(np.array([1.0]), weights=np.array([1.0, 2.0]))


class TestDistribution:
    def test_uniform_matches_scipy_chi2(self):
        a = 0.8
        n = 5
        mixture = Chi2Mixture(np.full(n, a))
        xs = np.linspace(0.1, 10.0, 25)
        expected = sps.chi2.logpdf(xs / a, n) - np.log(a)
        np.testing.assert_allclose(mixture.logpdf(xs), expected, rtol=1e-9)
        np.testing.assert_allclose(
            mixture.cdf(xs), sps.chi2.cdf(xs / a, n), rtol=1e-9
        )

    def test_pdf_integrates_to_one(self, rng):
        a = np.abs(rng.standard_normal(4)) + 0.1
        mixture = Chi2Mixture(a)
        grid = np.linspace(mixture.beta + 1e-9, mixture.mean + 30 * np.sqrt(mixture.variance), 20001)
        integral = np.trapezoid(mixture.pdf(grid), grid)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_ppf_inverts_cdf(self, rng):
        a = np.abs(rng.standard_normal(3)) + 0.2
        mixture = Chi2Mixture(a)
        for q in (0.1, 0.5, 0.9):
            assert mixture.cdf(mixture.ppf(q)) == pytest.approx(q, abs=1e-9)

    def test_below_support_clamped_finite(self):
        mixture = Chi2Mixture(np.array([0.3, 0.9]))
        value = mixture.logpdf(mixture.beta - 1.0)
        assert np.isfinite(value)

    def test_approximation_close_to_monte_carlo(self, rng):
        """KS distance between approx CDF and exact samples is small."""
        a = np.array([0.1, 0.5, 1.0, 2.0])
        w = np.array([5, 10, 3, 2], dtype=float)
        mixture = Chi2Mixture(a, weights=w)
        samples = mixture.sample(rng, 4000)
        grid = np.quantile(samples, np.linspace(0.02, 0.98, 49))
        empirical = np.searchsorted(np.sort(samples), grid) / samples.size
        approx = mixture.cdf(grid)
        assert np.abs(empirical - approx).max() < 0.03

    def test_scalar_in_scalar_out(self):
        mixture = Chi2Mixture(np.array([1.0, 2.0]))
        assert isinstance(mixture.logpdf(3.0), float)
        assert isinstance(mixture.cdf(3.0), float)


class TestFractionalWeightSampling:
    """Regression: ``sample()`` used to floor fractional weights via
    ``astype(int)``, silently truncating the weighted block counts a
    case-weighted subgroup produces (weight 2.9 sampled as 2)."""

    def test_fractional_weight_moments(self):
        rng = np.random.default_rng(7)
        mixture = Chi2Mixture(np.array([1.0]), weights=np.array([2.5]))
        samples = mixture.sample(rng, 60_000)
        # sum of w i.i.d. chi2(1) = chi2(w): mean w, variance 2w — exact
        # for any real w > 0, not just integers.
        assert samples.mean() == pytest.approx(2.5, rel=0.02)
        assert samples.var() == pytest.approx(5.0, rel=0.05)

    def test_fractional_weights_match_mixture_moments(self):
        rng = np.random.default_rng(3)
        a = np.array([0.4, 1.3])
        w = np.array([2.7, 5.2])
        mixture = Chi2Mixture(a, weights=w)
        samples = mixture.sample(rng, 80_000)
        assert samples.mean() == pytest.approx(mixture.mean, rel=0.02)
        assert samples.var() == pytest.approx(mixture.variance, rel=0.05)

    def test_sub_unit_weight_not_floored_to_nothing(self):
        """weight 0.9 used to floor to 0 repetitions — a zero sample."""
        rng = np.random.default_rng(11)
        mixture = Chi2Mixture(np.array([1.0]), weights=np.array([0.9]))
        samples = mixture.sample(rng, 20_000)
        assert samples.mean() == pytest.approx(0.9, rel=0.05)

    def test_integral_weights_keep_exact_repeat_path(self):
        """Integer weights must reproduce the historical draw bit-for-bit."""
        a = np.array([0.2, 0.7])
        w = np.array([3.0, 2.0])
        mixture = Chi2Mixture(a, weights=w)
        sampled = mixture.sample(np.random.default_rng(5), 50)
        reps = np.repeat(a, w.astype(int))
        rng = np.random.default_rng(5)
        expected = rng.chisquare(1.0, size=(50, reps.shape[0])) @ reps
        np.testing.assert_array_equal(sampled, expected)


def _scipy_oracle(mixture: Chi2Mixture, method: str, x):
    """What ``Chi2Mixture`` returned when it called ``scipy.stats.chi2``."""
    if method == "ppf":
        out = mixture.alpha * sps.chi2.ppf(x, mixture.dof) + mixture.beta
    else:
        t = (np.asarray(x, dtype=float) - mixture.beta) / mixture.alpha
        if method == "logpdf":
            out = sps.chi2.logpdf(np.maximum(t, _TINY), mixture.dof)
            out = out - math.log(mixture.alpha)
        else:
            out = sps.chi2.cdf(np.maximum(t, 0.0), mixture.dof)
    return float(out) if np.isscalar(x) else out


def _same_bytes(got, expected) -> None:
    assert type(got) is type(expected)
    assert np.shape(got) == np.shape(expected)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def _mixture(coefficients, weights) -> Chi2Mixture:
    return Chi2Mixture(
        np.asarray(coefficients), None if weights is None else np.asarray(weights)
    )


#: Mixtures of 1-6 coefficients, unweighted or with block weights.
_mixtures = st.integers(1, 6).flatmap(
    lambda n: st.builds(
        _mixture,
        st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
        st.one_of(
            st.none(), st.lists(st.floats(0.1, 50.0), min_size=n, max_size=n)
        ),
    )
)
#: Standardized arguments: inside the support, below it (under the
#: ``_TINY`` floor), at the edge, and the non-finite ones.
_standardized = st.one_of(
    st.floats(-10.0, 1e4),
    st.floats(-1e-11, 1e-11),
    st.sampled_from([0.0, _TINY, -1.0, math.inf, -math.inf, math.nan, -math.nan]),
)
#: Probabilities: inside [0, 1], its ends, outside it and NaN.
_probabilities = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, -0.0, 1.0, -0.5, 1.5, -1e-300, math.nan, -math.nan]),
)


def _argument(values, shape):
    """One drawn value as a Python float, a 0-d array or a 1-D array."""
    if shape == "scalar":
        return values[0]
    if shape == "0-d":
        return np.asarray(values[0])
    return np.asarray(values)


class TestScipyBytes:
    """``Chi2Mixture`` gives ``scipy.stats.chi2``'s bytes without importing it."""

    @settings(max_examples=200, deadline=None)
    @given(
        _mixtures,
        st.lists(_standardized, min_size=1, max_size=8),
        st.sampled_from(["scalar", "0-d", "array"]),
    )
    def test_logpdf_and_cdf(self, mixture, standardized, shape):
        x = [mixture.beta + mixture.alpha * t for t in standardized]
        argument = _argument(x, shape)
        with np.errstate(invalid="ignore"):
            for method in ("logpdf", "cdf"):
                _same_bytes(
                    getattr(mixture, method)(argument),
                    _scipy_oracle(mixture, method, argument),
                )

    @settings(max_examples=200, deadline=None)
    @given(
        _mixtures,
        st.lists(_probabilities, min_size=1, max_size=8),
        st.sampled_from(["scalar", "0-d", "array"]),
    )
    def test_ppf(self, mixture, q, shape):
        argument = _argument(q, shape)
        _same_bytes(mixture.ppf(argument), _scipy_oracle(mixture, "ppf", argument))

    def test_a_list_argument(self):
        mixture = Chi2Mixture(np.array([0.4, 1.3]), weights=np.array([3.0, 2.0]))
        for method, values in (
            ("logpdf", [0.5, 2.0]), ("cdf", [0.5, 2.0]), ("ppf", [0.1, 0.9])
        ):
            _same_bytes(
                getattr(mixture, method)(values),
                _scipy_oracle(mixture, method, values),
            )
