"""Oracle-first tests for the quadrature module.

Frozen reference values were computed from closed forms (Gamma/Beta
integrals) independently of the implementation; scipy's Gauss rule
generators serve as independent oracles for nodes and weights.
"""

import math

import numpy as np
import pytest
from scipy import special

from siegelpw import quadrature as q
from siegelpw.errors import DivergentIntegralError, InvalidParameterError

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAS_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAS_HYPOTHESIS = False


def integrate_halfline(rule, f):
    """``∫_0^∞ f(x) x^a e^{-c x} dx`` by the rule."""
    return complex(np.sum(rule.weights * f(rule.nodes)))


def halfline_moment_error(rule, k):
    """Relative error of the rule on ``x^k`` against ``Γ(k+a+1)/c^(k+a+1)``
    (log-space reference)."""
    approx = float(np.sum(rule.weights * rule.nodes**k))
    power = k + rule.exponent + 1.0
    exact = math.exp(math.lgamma(power) - power * math.log(rule.scale))
    return abs(approx - exact) / exact


def box_sampler(bounds):
    """Uniform Monte Carlo sampler on a finite box [(lo, hi), ...]."""
    volume = math.prod(hi - lo for lo, hi in bounds)

    def sample(rng, count):
        return [rng.uniform(lo, hi, size=count) for lo, hi in bounds], np.full(count, 1.0 / volume)

    return sample


class TestHalfLineRule:
    def test_unit_mass_20_nodes(self):
        rule = q.gauss_laguerre(0.0, 1.0, 20)
        assert abs(integrate_halfline(rule, lambda x: np.ones_like(x)) - 1.0) < 1e-13

    def test_fractional_exponent_mass(self):
        # ∫_0^∞ x^2.5 e^{-2x} dx = Γ(3.5)/2^3.5
        rule = q.gauss_laguerre(2.5, 2.0, 30)
        exact = math.gamma(3.5) / 2.0**3.5
        got = integrate_halfline(rule, lambda x: np.ones_like(x))
        assert abs(got - exact) / exact < 1e-12

    def test_degree_nine_with_five_nodes(self):
        # 5-node Gauss is exact through degree 9: ∫ x^9 e^{-x} dx = 9!
        rule = q.gauss_laguerre(0.0, 1.0, 5)
        got = integrate_halfline(rule, lambda x: x**9)
        assert abs(got - math.factorial(9)) / math.factorial(9) < 1e-10

    def test_scale_two_mass(self):
        rule = q.gauss_laguerre(0.0, 2.0, 12)
        assert abs(integrate_halfline(rule, lambda x: np.ones_like(x)) - 0.5) < 1e-13

    def test_spectral_weight_shape(self):
        # Weight x^{n-ν-1} e^{-2hx} with n=1, ν=-0.5, h=0.7 has total mass
        # Γ(n-ν)/(2h)^{n-ν}.
        n, nu, h = 1, -0.5, 0.7
        rule = q.gauss_laguerre(n - nu - 1.0, 2.0 * h, 24)
        exact = math.gamma(n - nu) / (2.0 * h) ** (n - nu)
        got = integrate_halfline(rule, lambda x: np.ones_like(x))
        assert abs(got - exact) / exact < 1e-12

    def test_nodes_weights_match_scipy_oracle(self):
        # scipy.special.roots_genlaguerre is an independent construction.
        for a, count in [(0.0, 8), (1.75, 15), (3.0, 25)]:
            rule = q.gauss_laguerre(a, 1.0, count)
            ox, ow = special.roots_genlaguerre(count, a)
            np.testing.assert_allclose(rule.nodes, ox, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(rule.weights, ow, rtol=1e-10, atol=1e-14)

    def test_plain_weights_integrate_bare_function(self):
        # Σ plain_w e^{-3x} = 1/3 once the rule's own density is divided out.
        # The bare integrand must share the rule's algebraic factor (here x^0)
        # for the division to leave a smooth function.
        rule = q.gauss_laguerre(0.0, 1.0, 40)
        got = float(np.sum(rule.plain_weights() * np.exp(-3.0 * rule.nodes)))
        assert abs(got - 1.0 / 3.0) < 1e-10

    def test_plain_weights_matched_fractional_exponent(self):
        # ∫ x^{0.5} e^{-3x} dx = Γ(1.5)/3^{1.5} via an exponent-matched rule.
        rule = q.gauss_laguerre(0.5, 1.0, 40)
        got = float(
            np.sum(rule.plain_weights() * rule.nodes**0.5 * np.exp(-3.0 * rule.nodes))
        )
        exact = math.gamma(1.5) / 3.0**1.5
        assert abs(got - exact) / exact < 1e-10

    @pytest.mark.parametrize(
        "bad",
        [dict(exponent=-1.0), dict(scale=0.0), dict(scale=-2.0), dict(node_count=0)],
    )
    def test_invalid_parameters_rejected(self, bad):
        kwargs = dict(exponent=0.0, scale=1.0, node_count=5)
        kwargs.update(bad)
        with pytest.raises(InvalidParameterError):
            q.gauss_laguerre(**kwargs)

    if HAS_HYPOTHESIS:

        @given(
            a=st.floats(min_value=-0.9, max_value=5.0),
            c=st.floats(min_value=0.1, max_value=8.0),
            count=st.integers(min_value=1, max_value=30),
            data=st.data(),
        )
        @settings(max_examples=60, deadline=None)
        def test_moment_invariant(self, a, c, count, data):
            # Gauss exactness: relative moment error < 1e-12 for k ≤ 2N-1.
            k = data.draw(st.integers(min_value=0, max_value=2 * count - 1))
            rule = q.gauss_laguerre(a, c, count)
            assert halfline_moment_error(rule, k) < 1e-12


class TestRuleCaches:
    """The standard Gauss–Laguerre rule is built once per (exponent,
    node_count) and rescaled per call; Gauss–Jacobi rules are cached too."""

    def test_scales_share_one_standard_build(self):
        q._standard_laguerre.cache_clear()
        for c in (0.3, 1.0, 2.5, 7.0, 11.0):
            q.gauss_laguerre(1.25, c, 30)
        info = q._standard_laguerre.cache_info()
        assert (info.misses, info.hits) == (1, 4)

    @pytest.mark.parametrize("count", [1, 40, 151, 400])
    def test_scaled_rule_is_the_rescaled_standard_rule(self, count):
        # 1 node, the polished branch (≤ 150) and the eigenvector branch.
        a, c = 0.75, 3.2
        standard = q.gauss_laguerre(a, 1.0, count)
        cold_nodes, cold_weights = q._standard_laguerre.__wrapped__(a, count)
        assert np.array_equal(standard.nodes, cold_nodes)
        assert np.array_equal(standard.weights, cold_weights)
        rule = q.gauss_laguerre(a, c, count)
        assert np.array_equal(rule.nodes, standard.nodes / c)
        assert np.array_equal(rule.weights, standard.weights * c ** (-(a + 1.0)))

    def test_cached_arrays_are_read_only_and_returned_ones_fresh(self):
        nodes, weights = q._standard_laguerre(0.5, 12)
        assert not nodes.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        rule = q.gauss_laguerre(0.5, 1.0, 12)
        expected = rule.nodes.copy()
        rule.nodes[:] = -1.0
        rule.weights[:] = -1.0
        again = q.gauss_laguerre(0.5, 1.0, 12)
        assert np.array_equal(again.nodes, expected)
        assert np.all(again.weights > 0.0)

    def test_jacobi_rule_is_cached_and_read_only(self):
        first = q._gauss_jacobi_unit(1.5, 17)
        hits = q._gauss_jacobi_unit.cache_info().hits
        second = q._gauss_jacobi_unit(1.5, 17)
        assert q._gauss_jacobi_unit.cache_info().hits == hits + 1
        assert second[0] is first[0] and second[1] is first[1]
        assert not first[0].flags.writeable and not first[1].flags.writeable

    def test_caches_are_bounded(self):
        for cached in (q._standard_laguerre, q._gauss_jacobi_unit):
            assert cached.cache_info().maxsize is not None


class TestGaussianRule:
    def test_total_mass_r2(self):
        # ∫_{R^2} e^{-|x|^2/2} dx = 2π
        rule = q.gaussian_rule(1.0, 24, 2)
        got = q.integrate_gaussian(rule, lambda x, y: np.ones(np.broadcast(x, y).shape))
        assert abs(got - 2.0 * math.pi) / (2.0 * math.pi) < 1e-12

    def test_second_moment_with_scale(self):
        # ∫ x^2 e^{-x^2/(2 s^2)} dx = s^3 sqrt(2π) with s = 0.5
        rule = q.gaussian_rule(0.5, 20, 1)
        got = q.integrate_gaussian(rule, lambda x: x**2)
        exact = 0.5**3 * math.sqrt(2.0 * math.pi)
        assert abs(got - exact) / exact < 1e-12

    def test_hermite_nodes_match_scipy_oracle(self):
        nodes, weights = q.gauss_hermite_nodes(18)
        ox, ow = special.roots_hermite(18)
        np.testing.assert_allclose(nodes, ox, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(weights, ow, rtol=1e-10, atol=1e-14)

    def test_entire_integrand(self):
        # ∫ e^{ix} e^{-x^2/2} dx = sqrt(2π) e^{-1/2}
        rule = q.gaussian_rule(1.0, 40, 1)
        got = q.integrate_gaussian(rule, lambda x: np.exp(1j * x))
        exact = math.sqrt(2.0 * math.pi) * math.exp(-0.5)
        assert abs(got - exact) < 1e-12


NAN = float("nan")


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: q.gauss_laguerre(NAN, 1.0, 5), InvalidParameterError),
        (lambda: q.gauss_laguerre(0.0, NAN, 5), InvalidParameterError),
        (lambda: q.gaussian_rule(NAN, 5, 1), InvalidParameterError),
        (lambda: q.power_ratio_integral(NAN, 3.0), DivergentIntegralError),
        (lambda: q.power_ratio_integral(0.5, NAN), DivergentIntegralError),
    ],
    ids=["laguerre-exponent", "laguerre-scale", "gaussian-scale", "power-beta", "power-q"],
)
def test_nan_arguments_rejected(build, error):
    with pytest.raises(error):
        build()


def integrate(rule, f):
    """Contract ``f`` on the rule's sparse grids against each axis's weights."""
    values = np.broadcast_to(f(*rule.grids()), tuple(ax.node_count for ax in rule.axes))
    for axis in reversed(rule.axes):
        values = values @ axis.weights
    return complex(values)


class TestBoxRule:
    def test_tan_axis_lorentzian(self):
        axis = q.tan_axis(scale=1.0, panels=6, order=20)
        rule = q.BoxRule(axes=(axis,))
        got = integrate(rule, lambda x: 1.0 / (1.0 + x**2))
        assert abs(got - math.pi) < 1e-12

    def test_tan_half_axis_lorentzian(self):
        axis = q.tan_half_axis(scale=1.0, panels=6, order=20)
        rule = q.BoxRule(axes=(axis,))
        got = integrate(rule, lambda x: 1.0 / (1.0 + x**2))
        assert abs(got - math.pi / 2.0) < 1e-12

    def test_power_tail_axis_beta_integral(self):
        # ∫_0^∞ x^0.5 (1+x)^{-4} dx = B(1.5, 2.5)
        axis = q.power_tail_axis(beta=0.5, split=1.0, panels=8, order=20)
        rule = q.BoxRule(axes=(axis,))
        got = integrate(rule, lambda x: (1.0 + x) ** -4.0)
        exact = special.beta(1.5, 2.5)
        assert abs(got - exact) / exact < 1e-10

    def test_jacobi_nodes_match_scipy_oracle(self):
        # Internal Gauss-Jacobi (weight u^beta on [0,1]) vs scipy's rule on
        # [-1,1] with weight (1-x)^0 (1+x)^beta, mapped.
        from siegelpw.quadrature import _gauss_jacobi_unit

        for beta, count in [(0.0, 9), (0.5, 14), (2.25, 20)]:
            u, w = _gauss_jacobi_unit(beta, count)
            ox, ow = special.roots_jacobi(count, 0.0, beta)
            np.testing.assert_allclose(u, (1.0 + ox) / 2.0, rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(w, ow * 2.0 ** (-beta - 1.0), rtol=1e-10)

    def test_power_tail_axis_gamma_integral(self):
        # ∫_0^∞ x^{1.25} e^{-x} dx = Γ(2.25)
        axis = q.power_tail_axis(beta=1.25, split=2.0, panels=10, order=24)
        rule = q.BoxRule(axes=(axis,))
        got = integrate(rule, lambda x: np.exp(-x))
        assert abs(got - math.gamma(2.25)) / math.gamma(2.25) < 1e-9

    def test_angle_axis_bessel(self):
        # (2π)^{-1} ∫_0^{2π} e^{cos θ} dθ = I_0(1); trapezoid is spectral here.
        axis = q.angle_axis(count=24)
        rule = q.BoxRule(axes=(axis,))
        got = integrate(rule, lambda t: np.exp(np.cos(t))) / (2.0 * math.pi)
        assert abs(got - special.i0(1.0)) < 1e-13

    def test_two_dimensional_gaussian(self):
        rule = q.BoxRule(axes=(q.tan_axis(1.0, 8, 20), q.tan_axis(1.0, 8, 20)))
        got = integrate(rule, lambda x, y: np.exp(-(x**2) - y**2))
        assert abs(got - math.pi) / math.pi < 1e-6

    def test_polar_disc_area(self):
        # ∫_0^1 ∫_0^{2π} r dθ dr = π via Gauss–Legendre × angle axes.
        x, w = np.polynomial.legendre.leggauss(12)
        r_axis = q.Axis1D("legendre", {}, 0.5 * (x + 1.0), 0.5 * w)
        rule = q.BoxRule(axes=(r_axis, q.angle_axis(8)))
        got = integrate(rule, lambda r, t: r * np.ones_like(t))
        assert abs(got - math.pi) < 1e-12


class TestMonteCarlo:
    def test_reproducible_by_seed(self):
        sampler = box_sampler([(-3.0, 3.0)])
        f = lambda x: 1.0 / (1.0 + x**4)
        a1 = q.monte_carlo(sampler, f, 5_000, seed=7)
        a2 = q.monte_carlo(sampler, f, 5_000, seed=7)
        b = q.monte_carlo(sampler, f, 5_000, seed=8)
        assert a1 == a2
        assert a1 != b

    def test_box_sampler_volume(self):
        est, err = q.monte_carlo(
            box_sampler([(0.0, 2.0), (-1.0, 1.0)]),
            lambda x, y: np.ones_like(x),
            1_000,
            seed=1,
        )
        assert abs(est - 4.0) < 1e-12 and err < 1e-12
