"""Oracle-first tests for the boundary group."""

import math

import numpy as np
import pytest

from siegelpw import heisenberg as hg
from siegelpw import quadrature as q
from siegelpw.errors import InvalidParameterError

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAS_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAS_HYPOTHESIS = False


def el(z, t=0.0):
    return hg.HeisenbergElement(np.atleast_1d(np.asarray(z, dtype=complex)), t)


def box_sampler(bounds):
    """Uniform Monte Carlo sampler on a finite box [(lo, hi), ...]."""
    volume = math.prod(hi - lo for lo, hi in bounds)

    def sample(rng, count):
        return [rng.uniform(lo, hi, size=count) for lo, hi in bounds], np.full(count, 1.0 / volume)

    return sample


class TestGroupLaw:
    def test_frozen_product(self):
        # [1,0]·[i,0] = [1+i, 1/2]: twist = -Im(1·conj(i))/2 = +1/2.
        c = hg.mul(el(1.0), el(1j))
        assert np.allclose(c.z, [1.0 + 1.0j])
        assert c.t == pytest.approx(0.5, abs=1e-15)

    def test_frozen_norm(self):
        # |[z, 0]| = |z|/2
        assert hg.homogeneous_norm(el(3.0 + 4.0j)) == pytest.approx(2.5, abs=1e-14)
        assert hg.homogeneous_norm(el([1.0, 2.0j], 0.0)) == pytest.approx(
            math.sqrt(5.0) / 2.0, abs=1e-14
        )

    def test_norm_pure_t(self):
        assert hg.homogeneous_norm(el(0.0, 4.0)) == pytest.approx(2.0, abs=1e-15)

    def test_distance_is_right_quotient(self):
        # a·c^{-1} = [0.1 - 0.1i, 0] has gauge |z|/2, while the left quotient
        # c^{-1}·a = [0.1 - 0.1i, 0.2] does not.
        a, c = el(1.0 + 1.0j, 0.3), el(0.9 + 1.1j, 0.2)
        assert hg.distance(a, c) == pytest.approx(math.sqrt(0.02) / 2.0, rel=1e-12)
        assert hg.homogeneous_norm(hg.mul(hg.inv(c), a)) > 1.5 * hg.distance(a, c)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            hg.mul(el([1.0, 0.0]), el(1.0))


if HAS_HYPOTHESIS:
    finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)

    def _element(draw, n):
        re = [draw(finite) for _ in range(n)]
        im = [draw(finite) for _ in range(n)]
        t = draw(finite)
        return el([complex(a, b) for a, b in zip(re, im)], t)

    @st.composite
    def elements(draw, n=1):
        return _element(draw, n)

    class TestGroupAxioms:
        @given(a=elements(2), b=elements(2), c=elements(2))
        @settings(max_examples=80, deadline=None)
        def test_associativity(self, a, b, c):
            left = hg.mul(hg.mul(a, b), c)
            right = hg.mul(a, hg.mul(b, c))
            assert np.allclose(left.z, right.z, atol=1e-14)
            assert abs(left.t - right.t) < 1e-13

        @given(a=elements(2))
        @settings(max_examples=50, deadline=None)
        def test_identity_and_inverse(self, a):
            e = hg.identity(2)
            assert hg.mul(a, e) == a and hg.mul(e, a) == a
            prod = hg.mul(a, hg.inv(a))
            assert np.allclose(prod.z, 0.0, atol=1e-14)
            assert abs(prod.t) < 1e-14

        @given(a=elements(1), d=st.floats(min_value=0.1, max_value=4.0))
        @settings(max_examples=50, deadline=None)
        def test_dilation_homogeneity(self, a, d):
            # |δ·a| = δ|a| to 1e-14 relative.
            lhs = hg.homogeneous_norm(hg.dilate(d, a))
            rhs = d * hg.homogeneous_norm(a)
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, rhs)

        @given(a=elements(1), b=elements(1))
        @settings(max_examples=50, deadline=None)
        def test_dilation_is_automorphism(self, a, b):
            d = 1.7
            lhs = hg.dilate(d, hg.mul(a, b))
            rhs = hg.mul(hg.dilate(d, a), hg.dilate(d, b))
            assert np.allclose(lhs.z, rhs.z, atol=1e-13)
            assert abs(lhs.t - rhs.t) < 1e-12

        @given(a=elements(1), b=elements(1), c=elements(1))
        @settings(max_examples=50, deadline=None)
        def test_distance_right_invariance(self, a, b, c):
            # d(a·c, b·c) = d(a, b).  The absolute floor covers the quartic
            # root's amplification of ~eps products when the distance is ~0.
            lhs = hg.distance(hg.mul(a, c), hg.mul(b, c))
            rhs = hg.distance(a, b)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs) + 1e-7


class TestHaarMeasure:
    def test_translation_invariant_bump_integral(self):
        # ∫ f(x) dx = ∫ f(x·g) dx for Lebesgue measure on C×R (n=1): compare
        # a Gaussian bump's integral with its right-translate by quadrature.
        g = el(0.7 - 0.3j, 0.9)

        def bump(x, y, t):
            return np.exp(-(x**2) - y**2 - t**2)

        def translated(x, y, t):
            # evaluate bump at [z,t]·g
            moved = x + 1j * y + g.z[0]
            twist = 0.5 * np.imag((x + 1j * y) * np.conj(g.z[0]))
            return np.exp(-moved.real**2 - moved.imag**2 - (t + g.t - twist) ** 2)

        rule = q.BoxRule(
            axes=(q.tan_axis(1.0, 6, 16), q.tan_axis(1.0, 6, 16), q.tan_axis(1.0, 6, 16))
        )
        weights = [axis.weights for axis in rule.axes]
        base = np.einsum("ijk,i,j,k->", bump(*rule.grids()), *weights)
        moved = np.einsum("ijk,i,j,k->", translated(*rule.grids()), *weights)
        assert abs(base - math.pi ** 1.5) < 1e-8
        assert abs(moved - base) / abs(base) < 1e-6

    def test_ball_volume_dilation_scaling(self):
        # |B(0, r)| = r^{2n+2} |B(0, 1)| via Monte Carlo containment counts.
        n, r = 1, 1.5
        sampler = box_sampler([(-2.0, 2.0), (-2.0, 2.0), (-1.2, 1.2)])

        def indicator(rad):
            def f(x, y, t):
                zsq = x**2 + y**2
                return (zsq**2 / 16.0 + t**2 < rad**4).astype(float)

            return f

        est_r, err_r = q.monte_carlo(sampler, indicator(1.0), 200_000, seed=5)
        # scaled ball, scaled box: reuse via dilation change of variables
        est_1 = est_r * r ** (2 * n + 2)
        sampler2 = box_sampler([(-3.0, 3.0), (-3.0, 3.0), (-2.7, 2.7)])
        est_2, err_2 = q.monte_carlo(sampler2, indicator(r), 200_000, seed=6)
        sigma = (r ** (2 * n + 2)) * err_r + err_2
        assert abs(est_1 - est_2) < 3.0 * sigma
