"""Tests for unit-sphere manifold primitives."""

import math

import numpy as np
import pytest

from repro.errors import SearchError
from repro.search.sphere import canonical_sign, project_tangent, random_unit, retract


class TestRandomUnit:
    def test_unit_norm(self, rng):
        for d in (1, 2, 7):
            assert np.linalg.norm(random_unit(rng, d)) == pytest.approx(1.0)

    def test_invalid_dim(self, rng):
        with pytest.raises(SearchError):
            random_unit(rng, 0)

    def test_reproducible(self):
        a = random_unit(np.random.default_rng(0), 4)
        b = random_unit(np.random.default_rng(0), 4)
        np.testing.assert_array_equal(a, b)


class TestProjectTangent:
    def test_orthogonal_to_point(self, rng):
        w = random_unit(rng, 5)
        v = rng.standard_normal(5)
        tangent = project_tangent(w, v)
        assert float(w @ tangent) == pytest.approx(0.0, abs=1e-12)

    def test_tangent_fixed_point(self, rng):
        w = random_unit(rng, 4)
        v = rng.standard_normal(4)
        tangent = project_tangent(w, v)
        np.testing.assert_allclose(project_tangent(w, tangent), tangent, atol=1e-12)


class TestRetract:
    def test_unit_norm(self, rng):
        w = random_unit(rng, 3)
        step = 0.3 * project_tangent(w, rng.standard_normal(3))
        assert np.linalg.norm(retract(w, step)) == pytest.approx(1.0)

    def test_zero_step_identity(self, rng):
        w = random_unit(rng, 3)
        np.testing.assert_allclose(retract(w, np.zeros(3)), w)

    def test_collapse_rejected(self):
        w = np.array([1.0, 0.0])
        with pytest.raises(SearchError, match="collapsed"):
            retract(w, -w)


class TestStacks:
    @pytest.mark.parametrize("d", [2, 5, 16, 124, 200])
    def test_rows_have_the_bytes_of_one_row_dots(self, rng, d):
        """A (K, d) stack's rows project and retract to the bytes of the
        1-D formulas with ``.dot``, which the spread ascent relies on."""
        points = rng.standard_normal((9, d))
        points /= np.linalg.norm(points, axis=1)[:, None]
        vectors = rng.standard_normal((9, d))
        tangents = project_tangent(points, vectors)
        moved = retract(points, 0.3 * vectors)
        for w, v, tangent, point in zip(points, vectors, tangents, moved):
            assert tangent.tobytes() == (v - w.dot(v) * w).tobytes()
            u = w + 0.3 * v
            assert point.tobytes() == (u / math.sqrt(u.dot(u))).tobytes()

    def test_collapse_of_any_row_rejected(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(SearchError, match="collapsed"):
            retract(points, np.array([[0.1, 0.0], [0.0, -1.0]]))


class TestCanonicalSign:
    def test_largest_entry_positive(self):
        w = np.array([0.3, -0.9, 0.2])
        out = canonical_sign(w)
        assert out[1] > 0

    def test_idempotent(self, rng):
        w = random_unit(rng, 6)
        once = canonical_sign(w)
        np.testing.assert_array_equal(canonical_sign(once), once)

    def test_positive_unchanged(self):
        w = np.array([0.6, 0.8])
        np.testing.assert_array_equal(canonical_sign(w), w)
