"""Tests for frequency-side fields: weighted spectral norms, pairings,
synthesis back to the domain, and chart-quadrature space norms.

Reference values are recomputed here from scratch (gamma/Frullani integrals,
chart pairings, matrix-coefficient rows) so both sides of every identity come
from independent code paths.
"""

import cmath
import json
import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import siegelpw.bargmann as bg
import siegelpw.cli as cli
import siegelpw.fock as fk
import siegelpw.heisenberg as hg
import siegelpw.kernels as kr
import siegelpw.quadrature as quad
import siegelpw.spectral as sp
from siegelpw.errors import DivergentIntegralError, InvalidParameterError
from siegelpw.gammaexpr import GammaExpression, paley_wiener_constant
from siegelpw.siegel import (
    Composition,
    Dilation,
    HeisenbergTranslation,
    HorocyclicCoordinates,
    Unitary,
    apply,
    base_point,
    psi_inv,
)

TWO_PI = 2.0 * math.pi


def chart(z_entries, t, h):
    return HorocyclicCoordinates(
        z=np.asarray(z_entries, dtype=complex), t=float(t), h=float(h)
    )


def point(z_entries, t, h):
    return psi_inv(chart(z_entries, t, h))


def pairing2(c1, c2):
    """Twice the Hermitian chart pairing, recomputed from the raw formula."""
    cross = complex(np.sum(c1.z * np.conj(c2.z)))
    return complex(
        (c1.h + c2.h)
        + 0.25 * float(np.sum(np.abs(c1.z - c2.z) ** 2))
        - 1j * ((c1.t - c2.t) + 0.5 * cross.imag)
    )


def kernel_amplitude(n, nu, m):
    """Normalization carried by the weight-nu / order-m kernel field."""
    if abs(2 * m + nu + 1) < 1e-12:
        return 1.0
    return 2.0 ** (2 * m + nu + 1) / math.gamma(2 * m + nu + 1)


def kernel_value(n, nu, m, at, base):
    """Chart value of the kernel slice through ``base``: the gamma integral
    of mu^(n+nu+1) e^(-mu * pairing) collapses to Gamma(s) pairing^-s."""
    s = n + 2.0 + nu
    c = kernel_amplitude(n, nu, m)
    return c * math.gamma(s) / TWO_PI ** (n + 1) * pairing2(at, base) ** (-s)


def dotted_log_amplitude(n, m):
    return 2.0 ** (2 * m - n - 1) / math.gamma(2 * m - n - 1)


def dotted_log_value(n, m, at, base):
    """Center-subtracted logarithmic-kernel slice, via the Frullani integral
    of mu^-1 (e^(-A mu) - e^(-B mu)) = log B - log A (principal logs)."""
    center = chart([0.0] * n, 0.0, 1.0)
    amp = dotted_log_amplitude(n, m) / TWO_PI ** (n + 1)
    return amp * (
        cmath.log(pairing2(at, center))
        - cmath.log(pairing2(at, base))
        + cmath.log(pairing2(center, base))
        - math.log(2.0)
    )


def finite_value(profile, at):
    """Chart value of a finite field: each slot contributes a gamma integral
    Gamma(s) D^-s against the conjugated slot coefficient and monomial."""
    n = profile.n
    total = 0.0 + 0.0j
    for term in profile.terms:
        deg = term.alpha.degree
        s = n + 1.0 + term.power + 0.5 * deg
        monomial = complex(np.prod(at.z ** np.asarray(tuple(term.alpha))))
        factorial = math.prod(math.factorial(a) for a in term.alpha)
        denom = (at.h + term.decay + 0.25 * float(np.sum(np.abs(at.z) ** 2))) - 1j * at.t
        total += (
            np.conj(term.coefficient)
            * monomial
            / math.sqrt(factorial)
            * 2.0 ** (-0.5 * deg)
            * math.gamma(s)
            / TWO_PI ** (n + 1)
            * denom ** (-s)
        )
    return total


def trace_values(profile, mu, z_components, t):
    """Trace of a field at frequency ``-mu`` against the adjoint of the
    translated representation operator at chart position ``(z, t)``: for a
    kernel field ``e^(-mu * 2q((z, t, 0), base))`` times the radial factor.
    The point-by-point reference of the closed forms."""
    if isinstance(profile, sp.DerivedProfile):
        return profile._sign * mu**profile.order * trace_values(profile.base, mu, z_components, t)
    if isinstance(profile, sp.KernelProfile):
        two_q = sp._pairing_form(z_components, t, 0.0, profile.base)
        return profile.normalization * mu ** (profile.nu + 1.0) * np.exp(-mu * two_q)
    if isinstance(profile, sp.DirichletKernelProfile):
        base_part = np.exp(-mu * sp._pairing_form(z_components, t, 0.0, profile.base))
        center_part = np.exp(-mu * sp._pairing_form(z_components, t, 0.0, base_point(profile.n)))
        return profile.normalization * mu ** (-profile.n - 1.0) * (base_part - center_part)
    common = np.exp(-mu * sp._pairing_form(z_components, t, 0.0, sp._axis_point(profile.n, 0.0)))
    total = 0.0
    for term in profile.terms:
        amp = np.conj(term.coefficient) * sp._slot_amplitude(term.alpha)
        radial = mu ** (term.power + 0.5 * term.alpha.degree) * np.exp(-term.decay * mu)
        total = total + amp * radial * sp._monomial(z_components, term.alpha)
    return total * common


def quadrature_chart_values(profile, z_components, t, h, node_count):
    """Chart values of a synthesized field by Gauss–Laguerre quadrature of its
    frequency integral, point by point in frequency: the reference the
    closed forms are checked against.  The logarithmic-kernel family is
    center-subtracted, since its plain integral diverges at frequency 0."""
    n = profile.n
    base = profile.base if isinstance(profile, sp.DerivedProfile) else profile
    subtracted = isinstance(base, sp.DirichletKernelProfile)
    # The slowest decay of the integrand at height 0.
    if isinstance(base, sp.FiniteProfile):
        scale = min((term.decay for term in base.terms), default=1.0)
    else:
        scale = min(base.base.h, 1.0) if subtracted else base.base.h
    exponent = 0.0 if subtracted else max(n + profile.trace_mu_power, 0.0)
    rule = quad.gauss_laguerre(exponent, scale, node_count)
    total = 0.0
    for w, mu in zip(rule.plain_weights(), rule.nodes):
        mu = float(mu)
        term = mu**n * np.exp(-h * mu) * trace_values(profile, mu, z_components, t)
        if subtracted:
            term = term - mu**n * math.exp(-mu) * complex(trace_values(profile, mu, [0.0j] * n, 0.0))
        total = total + w * term
    return total / TWO_PI ** (n + 1)


class QuadratureFunction:
    """A synthesized field evaluated on the chart by :func:`quadrature_chart_values`."""

    def __init__(self, profile, node_count):
        self.profile, self.node_count, self.n = profile, node_count, profile.n

    def chart_values(self, z_components, t, h):
        return quadrature_chart_values(self.profile, z_components, t, h, self.node_count)


GENERIC_BASE_1 = point([0.3 + 0.1j], -0.2, 0.8)
GENERIC_BASE_2 = point([0.2 - 0.1j, -0.15j], 0.3, 1.1)


def finite_two_slot():
    return sp.FiniteProfile(
        1,
        (
            sp.FiniteTerm((0,), 1.0, 0.0, 1.0),
            sp.FiniteTerm((2,), -0.2 + 0.5j, 0.5, 0.7),
        ),
    )


def pairing_diagonal_density(profile, mu):
    """The node-wise pairing of a field with itself, from the pieces the
    pairing integrates (or the logarithmic family's four-exponential
    bracket), evaluated at the frequencies ``mu``."""
    base, order = sp._unwrap_derived(profile)
    if isinstance(base, sp.DirichletKernelProfile):
        bracket = sum(c * np.exp(-rate * mu) for c, rate in zip(sp._BRACKET_SIGNS, sp._log_pair_rates(base, base)))
        values = base.normalization**2 * mu ** (-2.0 * base.n - 2.0) * bracket
    else:
        values = sum(
            piece.amp * mu**piece.power * np.exp(-piece.rate * mu)
            for piece in sp._cross_pieces(base, base)
        )
    return mu ** (2 * order) * values.real


class TestClosedFormPieces:
    @pytest.mark.parametrize("power", [-0.5, 0.0, 2.5])
    @pytest.mark.parametrize("ratio", [0.0, 1.0, -2.5, 5.0])
    def test_piece_matches_gauss_laguerre(self, power, ratio):
        # An oscillating piece amp * mu^p * e^(-r mu) against a Gauss rule
        # for mu^p e^(-Re(r) mu) with many nodes and the phase as integrand.
        # The rule's rounding scales with its mass |amp| * sum(w), which
        # exceeds the oscillating value by up to 300 times here, so the
        # bound is relative to that mass.
        rate = 0.7 * complex(1.0, ratio)
        amp = 0.3 - 1.1j
        rule = quad.gauss_laguerre(power, rate.real, 1200)
        reference = amp * complex(np.sum(rule.weights * np.exp(-1j * rate.imag * rule.nodes)))
        value = sp._laplace_sum([sp._Piece(power, rate, amp)])
        assert abs(value - reference) <= 1e-12 * abs(amp) * float(np.sum(rule.weights))

    def test_divergent_pieces_are_rejected(self):
        with pytest.raises(DivergentIntegralError):
            sp._laplace_sum([sp._Piece(-1.0, 1.0 + 0.0j, 1.0 + 0.0j)])
        with pytest.raises(DivergentIntegralError):
            sp._laplace_sum([sp._Piece(0.5, 0.0 + 2.0j, 1.0 + 0.0j)])


class TestSpectralNorm:
    def test_single_slot_exponential_matches_gamma_values(self):
        # One slot with radial part e^(-mu): the weighted norm collapses to
        # Gamma(n - nu) / ((2 pi)^(n+1) 2^(n - nu)).
        profile = sp.FiniteProfile(1, (sp.FiniteTerm((0,), 1.0, 0.0, 1.0),))
        expected = math.gamma(2.0) / (TWO_PI**2 * 2.0**2)
        assert abs(sp.l2nu_norm_sq(profile, -1.0) - expected) < 1e-12 * expected

        profile2 = sp.FiniteProfile(2, (sp.FiniteTerm((0, 0), 1.0, 0.0, 1.0),))
        expected2 = math.gamma(3.5) / (TWO_PI**3 * 2.0**3.5)
        assert abs(sp.l2nu_norm_sq(profile2, -1.5) - expected2) < 1e-12 * expected2

    def test_empty_and_center_based_fields_vanish(self):
        assert sp.l2nu_norm_sq(sp.FiniteProfile(1, ()), 0.0) == 0.0
        centered = sp.DirichletKernelProfile(1, 2, base_point(1))
        assert centered.is_zero
        assert sp.l2nu_norm_sq(centered, -3.0) == 0.0
        assert sp.l2nu_norm_sq(sp.spectral_derivative(centered, 1), -1.0) == 0.0

    @pytest.mark.parametrize(
        "n, nu, m",
        [(1, 0.0, 0), (1, -1.5, 1), (1, -1.0, 0), (2, 0.5, 0), (2, -2.5, 2)],
    )
    def test_kernel_norm_closed_value_and_height_power_law(self, n, nu, m):
        closed = lambda h0: (
            kernel_amplitude(n, nu, m) ** 2
            * math.gamma(n + nu + 2.0)
            / (TWO_PI ** (n + 1) * (2.0 * h0) ** (n + nu + 2.0))
        )
        for h0 in (1.0, 2.0):
            base = point([0.0] * n, 0.0, h0)
            value = sp.l2nu_norm_sq(sp.KernelProfile(n, nu, base, m), nu)
            assert abs(value - closed(h0)) < 1e-13 * closed(h0)
        ratio = closed(2.0) / closed(1.0)
        assert abs(ratio - 2.0 ** -(n + nu + 2.0)) < 1e-12

    def test_norm_ignores_base_boundary_position(self):
        # Translating the base along the boundary directions only rotates the
        # field's phases, so the weighted norm depends on the height alone.
        centered = sp.KernelProfile(1, 0.0, point([0.0], 0.0, 0.8))
        moved = sp.KernelProfile(1, 0.0, point([0.7 - 0.4j], 1.3, 0.8))
        a = sp.l2nu_norm_sq(centered, 0.0)
        b = sp.l2nu_norm_sq(moved, 0.0)
        assert abs(a - b) < 1e-13 * a

    def test_boundary_limit_normalization_is_one(self):
        for n in (1, 2):
            profile = sp.KernelProfile(n, -1.0, base_point(n))
            assert profile.normalization == 1.0
            assert profile.normalization_expression().value == 1.0

    def test_normalization_inverts_norm_identity_constant(self):
        profile = sp.KernelProfile(1, 0.0, base_point(1))
        expected = 1.0 / paley_wiener_constant(1, 0, 0.0).value
        assert abs(profile.normalization - expected) < 1e-15 * expected
        assert abs(profile.normalization - 2.0) < 1e-15

    def test_weight_shift_of_derived_field_is_exact(self):
        # Multiplying the field by mu^k and shifting the weight by 2k feeds
        # the identical piece powers to the closed form, so the norms agree
        # bitwise, not merely to rounding.
        base = sp.KernelProfile(1, -1.5, point([0.4 - 0.2j], 0.6, 1.25), 1)
        reference = sp.l2nu_norm_sq(base, -1.5)
        for k in (1, 2):
            shifted = sp.l2nu_norm_sq(sp.spectral_derivative(base, k), -1.5 + 2.0 * k)
            assert shifted == reference

    def test_divergent_weights_are_rejected(self):
        kernel = sp.KernelProfile(1, 0.0, base_point(1))
        with pytest.raises(DivergentIntegralError):
            sp.l2nu_norm_sq(kernel, 5.0)
        slow = sp.FiniteProfile(1, (sp.FiniteTerm((0,), 1.0, -1.0, 1.0),))
        with pytest.raises(DivergentIntegralError):
            sp.l2nu_norm_sq(slow, 0.0)
        with pytest.raises(InvalidParameterError):
            sp.FiniteTerm((0,), 1.0, 0.0, -1.0)

    def test_log_field_weight_window(self):
        generic = sp.DirichletKernelProfile(1, 2, point([0.3], 0.5, 1.2))
        with pytest.raises(DivergentIntegralError):
            sp.l2nu_norm_sq(generic, -1.0)
        transverse = sp.DirichletKernelProfile(1, 2, point([0.0], 0.0, 1.7))
        assert sp.l2nu_norm_sq(transverse, -2.0) > 0.0

    @pytest.mark.parametrize("z0, t0, h0", [([0.3], 0.5, 1.2), ([0.0], 0.4, 0.7)])
    def test_log_field_norm_matches_frullani_value(self, z0, t0, h0):
        # The endpoint-weight norm of the log field reduces to two Frullani
        # integrals: C^2 (2 pi)^-(n+1) log((beta^2 + t0^2) / (4 h0)), with
        # beta = h0 + 1 + |z0|^2 / 4.
        n, m = 1, 2
        profile = sp.DirichletKernelProfile(n, m, point(z0, t0, h0))
        beta = h0 + 1.0 + 0.25 * float(np.sum(np.abs(np.asarray(z0)) ** 2))
        expected = (
            dotted_log_amplitude(n, m) ** 2
            / TWO_PI ** (n + 1)
            * math.log((beta**2 + t0**2) / (4.0 * h0))
        )
        value = sp.l2nu_norm_sq(profile, -(n + 2.0))
        assert abs(value - expected) < 1e-9 * abs(expected)


class TestCoefficientRows:
    @pytest.mark.parametrize(
        "profile",
        [
            sp.KernelProfile(1, 0.0, GENERIC_BASE_1),
            sp.KernelProfile(1, -1.5, GENERIC_BASE_1, 1),
            sp.DirichletKernelProfile(1, 2, point([0.3], 0.5, 1.2)),
            finite_two_slot(),
            sp.DerivedProfile(sp.KernelProfile(1, 0.0, GENERIC_BASE_1), 1),
        ],
    )
    def test_squared_row_sums_match_stated_norm_density(self, profile):
        trunc = fk.FockTruncation(n=1, max_degree=30)
        mu = np.array([0.3, 1.0, 3.7])
        rows = profile.coefficient_values(trunc, mu)
        stacked = np.sum(np.abs(rows) ** 2, axis=0)
        expected = pairing_diagonal_density(profile, mu)
        # Truncation at degree 30 leaves a tail below machine precision for
        # these base offsets, so the row sums must reproduce the density.
        assert np.max(np.abs(stacked - expected)) < 1e-10 * np.max(expected)

    @pytest.mark.parametrize(
        "profile",
        [
            sp.KernelProfile(1, 0.0, GENERIC_BASE_1),
            sp.DirichletKernelProfile(1, 2, point([0.3], 0.5, 1.2)),
            finite_two_slot(),
        ],
    )
    def test_trace_matches_independent_row_pairing(self, profile):
        # Pair the stored rows against the closed matrix-coefficient row
        # computed by the representation module (an independent code path).
        trunc = fk.FockTruncation(n=1, max_degree=26)
        z, t = np.asarray([0.25 - 0.15j]), 0.7
        element = hg.HeisenbergElement(z=z, t=t)
        for mu in (0.4, 1.3, 2.9):
            rows = profile.coefficient_values(trunc, np.asarray(mu))
            row = np.conj(bg.p0_row(-mu, element, trunc).coeffs)
            paired = complex(np.sum(np.conj(rows[:, ...].reshape(trunc.dim)) * row))
            direct = complex(trace_values(profile, mu, list(z), t))
            assert abs(paired - direct) <= 1e-10 * max(abs(direct), 1e-6)

    def test_finite_rows_reject_overflowing_degree(self):
        trunc = fk.FockTruncation(n=1, max_degree=1)
        with pytest.raises(InvalidParameterError):
            finite_two_slot().coefficient_values(trunc, np.asarray([1.0]))


class TestSynthesis:
    @pytest.mark.parametrize("nu, m", [(0.0, 0), (-1.5, 1), (-1.0, 0)])
    def test_kernel_synthesis_matches_closed_value(self, nu, m):
        profile = sp.KernelProfile(1, nu, GENERIC_BASE_1, m)
        base = GENERIC_BASE_1
        for target in (
            chart([0.5 - 0.2j], 0.7, 0.5),
            chart([-0.1 + 0.4j], -1.3, 2.2),
            chart([0.2], 6.0, 1.0),
        ):
            value = sp.synthesize(profile, target)
            expected = kernel_value(1, nu, m, target, base)
            assert abs(value - expected) < 1e-7 * abs(expected)

    def test_kernel_synthesis_dimension_two(self):
        profile = sp.KernelProfile(2, 0.0, GENERIC_BASE_2)
        target = chart([0.1 + 0.1j, 0.2], -0.4, 0.9)
        value = sp.synthesize(profile, target)
        expected = kernel_value(2, 0.0, 0, target, GENERIC_BASE_2)
        assert abs(value - expected) < 1e-7 * abs(expected)

    def test_point_and_chart_arguments_agree(self):
        profile = sp.KernelProfile(1, 0.0, GENERIC_BASE_1)
        coords = chart([0.5 - 0.2j], 0.7, 0.5)
        a = sp.synthesize(profile, coords)
        b = sp.synthesize(profile, psi_inv(coords))
        assert abs(a - b) < 1e-13 * abs(a)

    def test_finite_synthesis_matches_closed_value(self):
        profile = finite_two_slot()
        for target in (
            chart([0.5 - 0.2j], 0.7, 0.5),
            chart([-0.3 + 0.1j], -2.0, 1.4),
        ):
            value = sp.synthesize(profile, target)
            expected = finite_value(profile, target)
            assert abs(value - expected) < 1e-8 * abs(expected)

    def test_synthesis_is_antilinear_in_the_slot_coefficients(self):
        scale = 0.3 + 0.4j
        base_profile = finite_two_slot()
        scaled = sp.FiniteProfile(
            1,
            tuple(
                sp.FiniteTerm(tuple(term.alpha), scale * term.coefficient, term.power, term.decay)
                for term in base_profile.terms
            ),
        )
        target = chart([0.4 - 0.1j], 0.9, 0.8)
        a = sp.synthesize(base_profile, target)
        b = sp.synthesize(scaled, target)
        assert abs(b - np.conj(scale) * a) < 1e-10 * abs(b)

    def test_derived_synthesis_matches_analytic_height_derivatives(self):
        nu = 0.0
        profile = sp.KernelProfile(1, nu, GENERIC_BASE_1)
        base = GENERIC_BASE_1
        target = chart([0.2 + 0.3j], -0.6, 0.9)
        s = 1.0 + 2.0 + nu
        two_q = pairing2(target, base)
        c = kernel_amplitude(1, nu, 0)
        for order in (1, 2):
            value = sp.synthesize(sp.spectral_derivative(profile, order), target)
            expected = (
                (-1.0) ** order
                * c
                * math.gamma(s + order)
                / TWO_PI**2
                * two_q ** -(s + order)
            )
            assert abs(value - expected) < 1e-8 * abs(expected)

    def test_derived_synthesis_matches_height_differences(self):
        profile = sp.KernelProfile(1, -1.5, GENERIC_BASE_1, 1)
        target = chart([0.1 - 0.2j], 0.4, 1.1)
        value = sp.synthesize(sp.spectral_derivative(profile, 1), target)
        step = 1e-3

        def at_height(h):
            return sp.synthesize(profile, chart([0.1 - 0.2j], 0.4, h))

        def central(s):
            return (at_height(1.1 + s) - at_height(1.1 - s)) / (2.0 * s)

        refined = (4.0 * central(0.5 * step) - central(step)) / 3.0
        assert abs(value - refined) < 1e-7 * abs(value)

    def test_synthesis_rejects_boundary_points(self):
        profile = sp.KernelProfile(1, 0.0, GENERIC_BASE_1)
        with pytest.raises(InvalidParameterError):
            sp.synthesize(profile, chart([0.5], 0.3, 0.0))
        with pytest.raises(InvalidParameterError):
            sp.synthesize(profile, psi_inv(chart([0.5], 0.3, 0.0)))

    def test_synthesis_divergence_at_zero_frequency(self):
        log_field = sp.DirichletKernelProfile(1, 2, point([0.3], 0.5, 1.2))
        with pytest.raises(DivergentIntegralError):
            sp.synthesize(log_field, chart([0.1], 0.0, 1.0))
        heavy = sp.FiniteProfile(1, (sp.FiniteTerm((0,), 1.0, -2.5, 1.0),))
        with pytest.raises(DivergentIntegralError):
            sp.synthesize(heavy, chart([0.1], 0.0, 1.0))

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("base, target", [
        (GENERIC_BASE_1, point([0.1], 0.0, 1.0)), (GENERIC_BASE_2, point([0.1, -0.2j], 0.4, 0.7)),
    ])
    def test_height_derivatives_of_a_log_field_synthesize(self, base, target, order):
        # The field itself diverges at frequency 0; its height derivatives
        # integrate piece by piece and match the closed chart values.  The two
        # pieces (base and center) cancel in part, so the rounding is measured
        # against their sizes.
        field = sp.spectral_derivative(sp.DirichletKernelProfile(base.n, 2, base), order)
        got = sp.synthesize(field, target)
        want = complex(sp.ProfileFunction(field).chart_values(list(target.z), target.t, target.h))
        pieces = field.synthesis_pieces(target)
        scale = sp._plancherel(base.n) * sum(abs(sp._laplace_sum([piece])) for piece in pieces)
        assert abs(got - want) <= 8e-16 * scale

    @pytest.mark.parametrize("separation", [12.0, 200.0])
    def test_far_separated_points_match_the_kernel(self, separation):
        # The frequency integrand oscillates ever faster as the points move
        # apart in t; the closed-form pieces do not care.
        kid = kr.Bergman(0.0)
        far = point([0.3 + 0.1j], -0.2 + separation, 0.8)
        expected = kr.kernel_eval(kid, far, GENERIC_BASE_1)
        value = sp.synthesize(kr.kernel_profile(kid, GENERIC_BASE_1), far)
        assert abs(value - expected) <= 1e-13 * abs(expected)
        assert kr.reproducing_check(kid, far, GENERIC_BASE_1, method="spectral") <= 1e-13


class TestPairings:
    @pytest.mark.parametrize("nu, m", [(0.0, 0), (-1.5, 1)])
    def test_kernel_pair_reproduces_kernel_values(self, nu, m):
        # The space pairing of two kernel slices is the kernel evaluated at
        # the two bases; the spectral side must reproduce it after applying
        # the norm-identity constant.
        first = point([0.3 + 0.1j], -0.2, 0.8)
        second = point([-0.2 + 0.25j], 0.6, 1.3)
        f = sp.KernelProfile(1, nu, first, m)
        g = sp.KernelProfile(1, nu, second, m)
        constant = paley_wiener_constant(1, m, nu).value
        value = constant * sp.l2nu_inner_product(f, g, nu)
        expected = kernel_value(1, nu, m, second, first)
        assert abs(value - expected) < 1e-9 * abs(expected)
        forward = sp.l2nu_inner_product(f, g, nu)
        backward = sp.l2nu_inner_product(g, f, nu)
        assert abs(backward - np.conj(forward)) < 1e-12 * abs(forward)
        diagonal = sp.l2nu_inner_product(f, f, nu)
        norm = sp.l2nu_norm_sq(f, nu)
        assert abs(diagonal.real - norm) < 1e-12 * norm
        assert abs(diagonal.imag) < 1e-14 * norm

    @pytest.mark.parametrize("nu, m", [(0.0, 0), (-1.5, 1)])
    def test_finite_against_kernel_reproduces_synthesis(self, nu, m):
        # Pairing any field against the kernel slice at a point evaluates the
        # synthesized function there.
        field = finite_two_slot()
        where = point([0.25 - 0.2j], 0.5, 1.1)
        slice_profile = sp.KernelProfile(1, nu, where, m)
        constant = paley_wiener_constant(1, m, nu).value
        value = constant * sp.l2nu_inner_product(field, slice_profile, nu)
        expected = sp.synthesize(field, where)
        assert abs(value - expected) < 1e-9 * abs(expected)

    @pytest.mark.parametrize("nu", [-2.9, -2.5, -2.2, -2.05])
    def test_log_norm_below_the_endpoint_weight(self, nu):
        # Above the endpoint weight the integrand behaves like mu^p at 0 with
        # -1 < p < 0; the closed form continues Gamma analytically there.
        # Reference: QUADPACK's algebraic-weight rule on (0, 1] and plain
        # adaptive quadrature beyond, with expm1 in the four-term bracket.
        profile = sp.DirichletKernelProfile(1, 2, point([0.3], 0.5, 1.2))
        center = chart([0.0], 0.0, 1.0)
        base = profile.base
        rates = [(1.0, pairing2(base, base)), (-1.0, pairing2(base, center)),
                 (-1.0, pairing2(center, base)), (1.0, pairing2(center, center))]
        # The weight power n - nu - 1, less the 2n + 2 of the two fields,
        # plus the bracket's first-order zero (the bases' lateral product is
        # not 0).
        p = (1.0 - nu - 1.0) - 4.0 + 1.0

        def expm1(x):
            # e^x - 1 for complex x without cancellation near 0.
            return complex(
                math.expm1(x.real) * math.cos(x.imag) - 2.0 * math.sin(0.5 * x.imag) ** 2,
                math.exp(x.real) * math.sin(x.imag),
            )

        def smooth(mu):
            # The integrand over mu^p: the bracket (its signs sum to 0) over mu.
            mu = max(mu, 1e-300)
            bracket = sum(sign * expm1(-mu * rate) for sign, rate in rates)
            return profile.normalization**2 * (bracket / mu).real

        near = integrate.quad(smooth, 0.0, 1.0, weight="alg", wvar=(p, 0.0), epsabs=0.0, epsrel=1e-13, limit=200)[0]
        far = integrate.quad(lambda mu: smooth(mu) * mu**p, 1.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        expected = (near + far) / TWO_PI**2
        assert abs(sp.l2nu_norm_sq(profile, nu) - expected) < 1e-8 * expected

    def test_log_pair_reproduces_dotted_values(self):
        n, m = 1, 2
        first = point([0.3], 0.5, 1.2)
        second = point([-0.2 + 0.1j], -0.4, 0.9)
        f = sp.DirichletKernelProfile(n, m, first)
        g = sp.DirichletKernelProfile(n, m, second)
        constant = paley_wiener_constant(n, m, -(n + 2.0)).value
        value = constant * sp.l2nu_inner_product(f, g, -(n + 2.0))
        expected = dotted_log_value(n, m, second, first)
        assert abs(value - expected) < 1e-8 * abs(expected)
        diagonal = constant * sp.l2nu_inner_product(f, f, -(n + 2.0))
        self_value = dotted_log_value(n, m, first, first)
        assert abs(diagonal - self_value) < 1e-8 * abs(self_value)

    def test_log_pair_weight_shift_is_exact(self):
        f = sp.DirichletKernelProfile(1, 2, point([0.3], 0.5, 1.2))
        g = sp.DirichletKernelProfile(1, 2, point([-0.2 + 0.1j], -0.4, 0.9))
        plain = sp.l2nu_inner_product(f, g, -3.0)
        shifted = sp.l2nu_inner_product(
            sp.spectral_derivative(f, 1), sp.spectral_derivative(g, 1), -1.0
        )
        assert shifted == plain

    def test_axis_base_log_pair_below_the_generic_window(self):
        # Bases without a lateral part make the bracket vanish to second
        # order at frequency 0, so weight -2 converges (n = 1) for the pair
        # as it does for each norm.
        f = sp.DirichletKernelProfile(1, 2, point([0.0], 0.0, 1.7))
        g = sp.DirichletKernelProfile(1, 2, point([0.0], 0.8, 0.6))
        fg = sp.l2nu_inner_product(f, g, -2.0)
        gf = sp.l2nu_inner_product(g, f, -2.0)
        ff = sp.l2nu_inner_product(f, f, -2.0)
        gg = sp.l2nu_inner_product(g, g, -2.0)
        assert abs(ff - sp.l2nu_norm_sq(f, -2.0)) <= 1e-12 * abs(ff)
        assert abs(gg - sp.l2nu_norm_sq(g, -2.0)) <= 1e-12 * abs(gg)
        assert abs(gf - np.conj(fg)) <= 1e-12 * abs(fg)
        assert abs(fg) ** 2 <= ff.real * gg.real

    def test_log_pair_against_centered_field_vanishes(self):
        f = sp.DirichletKernelProfile(1, 2, point([0.3], 0.5, 1.2))
        g = sp.DirichletKernelProfile(1, 2, base_point(1))
        assert sp.l2nu_inner_product(f, g, -3.0) == 0.0

    def test_pairing_rejects_unsupported_combinations(self):
        log_field = sp.DirichletKernelProfile(1, 2, point([0.3], 0.5, 1.2))
        kernel = sp.KernelProfile(1, 0.0, base_point(1))
        with pytest.raises(InvalidParameterError):
            sp.l2nu_inner_product(log_field, kernel, 0.0)
        other = sp.KernelProfile(2, 0.0, base_point(2))
        with pytest.raises(InvalidParameterError):
            sp.l2nu_inner_product(kernel, other, 0.0)

    def test_matched_slots_only_contribute(self):
        # Slots with different indices are orthogonal, so the pairing of two
        # finite fields only sees the shared slot.
        f = sp.FiniteProfile(
            1, (sp.FiniteTerm((0,), 2.0, 0.0, 1.0), sp.FiniteTerm((1,), 1.0, 0.0, 1.0))
        )
        g = sp.FiniteProfile(
            1, (sp.FiniteTerm((1,), 3.0, 0.0, 1.0), sp.FiniteTerm((2,), 1.0, 0.0, 1.0))
        )
        value = sp.l2nu_inner_product(f, g, -1.0)
        # shared slot (1,): integral of 3 * 1 * mu^(n - nu - 1) e^(-2 mu)
        expected = 3.0 * math.gamma(2.0) / (TWO_PI**2 * 2.0**2)
        assert abs(value - expected) < 1e-12 * expected


class TestCenterSubtractedSynthesis:
    def test_center_value_is_the_constant_exactly(self):
        profile = sp.DirichletKernelProfile(1, 2, point([0.3 - 0.2j], 0.4, 1.3))
        offset = 0.7 + 0.2j
        assert sp.synthesize_dirichlet(profile, base_point(1), offset) == offset

    @pytest.mark.parametrize("m", [2, 3])
    def test_values_match_frullani_logs(self, m):
        base = point([0.3 - 0.2j], 0.4, 1.3)
        profile = sp.DirichletKernelProfile(1, m, base)
        for target in (
            chart([0.5 + 0.1j], -0.7, 0.6),
            chart([-0.4], 1.1, 1.8),
        ):
            value = sp.synthesize_dirichlet(profile, target)
            expected = dotted_log_value(1, m, target, base)
            assert abs(value - expected) < 1e-8 * abs(expected)

    def test_values_match_in_dimension_two(self):
        base = point([0.2, -0.1j], 0.3, 1.1)
        profile = sp.DirichletKernelProfile(2, 2, base)
        target = chart([0.1 - 0.1j, 0.25], -0.4, 0.8)
        value = sp.synthesize_dirichlet(profile, target)
        expected = dotted_log_value(2, 2, target, base)
        assert abs(value - expected) < 1e-7 * abs(expected)

    def test_affine_constant_is_added(self):
        base = point([0.3 - 0.2j], 0.4, 1.3)
        profile = sp.DirichletKernelProfile(1, 2, base)
        target = chart([0.5 + 0.1j], -0.7, 0.6)
        plain = sp.synthesize_dirichlet(profile, target)
        offset = sp.synthesize_dirichlet(profile, target, 1.5 - 0.5j)
        assert abs(offset - plain - (1.5 - 0.5j)) < 1e-12

    def test_rejects_boundary_points(self):
        profile = sp.DirichletKernelProfile(1, 2, point([0.3], 0.5, 1.2))
        with pytest.raises(InvalidParameterError):
            sp.synthesize_dirichlet(profile, chart([0.2], 0.1, 0.0))


BRACKET_SIGNS = (1.0, -1.0, -1.0, 1.0)
CENTER_1 = chart([0.0], 0.0, 1.0)


def bracket_reference(power, rates, vanish):
    """The integral over (0, ∞) of mu^power sum_k c_k e^(-r_k mu), c = (1,
    -1, -1, 1), by QUADPACK.  The bracket vanishes at 0 to order ``vanish``,
    so the bracket over mu^vanish is smooth: below mu = 1/4 it is summed from
    its Taylor series without the vanishing coefficients, so nothing cancels
    there.  The algebraic-weight rule takes mu^(power + vanish) on (0, 1]
    and plain adaptive quadrature the rest."""
    moments = [sum(c * r**j for c, r in zip(BRACKET_SIGNS, rates)) for j in range(60)]

    def smooth(mu):
        if mu < 0.25:
            return sum((-1) ** j * mu ** (j - vanish) / math.factorial(j) * moments[j] for j in range(vanish, 60))
        return sum(c * cmath.exp(-r * mu) for c, r in zip(BRACKET_SIGNS, rates)) / mu**vanish

    weight = power + vanish
    parts = []
    for part in (lambda v: v.real, lambda v: v.imag):
        near = integrate.quad(
            lambda mu: part(smooth(mu)), 0.0, 1.0, weight="alg", wvar=(weight, 0.0), epsabs=0.0, epsrel=1e-13, limit=200
        )[0]
        far = integrate.quad(lambda mu: part(smooth(mu)) * mu**weight, 1.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        parts.append(near + far)
    return complex(*parts)


def log_pair_reference(f_base, g_base, nu, f_order=0, g_order=0):
    """The spectral pairing of two order-2 logarithmic fields at n = 1 (after
    the given frequency powers) from test-side rates and amplitudes."""
    rates = [
        pairing2(g_base, f_base), pairing2(g_base, CENTER_1), pairing2(CENTER_1, f_base), pairing2(CENTER_1, CENTER_1)
    ]
    extra = f_order + g_order
    vanish = 2 if complex(f_base.z[0] * np.conj(g_base.z[0])) == 0.0 else 1
    power = (1.0 - nu - 1.0) + extra - 4.0
    amp = (-1.0) ** extra * dotted_log_amplitude(1, 2) ** 2 / TWO_PI**2
    return amp * bracket_reference(power, rates, vanish)


class TestLogClosedForms:
    """The logarithmic family's frequency integrals in closed form, against
    QUADPACK on the same integrands."""

    GENERIC_F = point([0.3], 0.5, 1.2)
    GENERIC_G = point([-0.2 + 0.1j], -0.4, 0.9)

    @pytest.mark.parametrize(
        "f_base, g_base, nu, f_order, g_order",
        [
            pytest.param(GENERIC_F, GENERIC_G, -3.0, 0, 0, id="power-minus-1"),
            pytest.param(point([0.0], 0.0, 1.7), point([0.0], 0.8, 0.6), -2.0, 0, 0, id="power-minus-2-axis-bases"),
            pytest.param(GENERIC_F, GENERIC_G, -2.5, 0, 0, id="power-minus-1.5"),
            pytest.param(GENERIC_F, GENERIC_G, -2.1, 0, 0, id="power-minus-1.9"),
            pytest.param(GENERIC_F, GENERIC_G, -3.0, 2, 1, id="power-plus-2-derived"),
        ],
    )
    def test_pairing_matches_quadpack(self, f_base, g_base, nu, f_order, g_order):
        f = sp.spectral_derivative(sp.DirichletKernelProfile(1, 2, f_base), f_order)
        g = sp.spectral_derivative(sp.DirichletKernelProfile(1, 2, g_base), g_order)
        expected = log_pair_reference(f_base, g_base, nu, f_order, g_order)
        assert abs(sp.l2nu_inner_product(f, g, nu) - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_derived_synthesis_matches_quadpack(self, order):
        # The order-k synthesis integrates mu^(k-1) times the bracket of the
        # target and the center against the base and the center.
        base = point([0.3 - 0.2j], 0.4, 1.3)
        target = chart([0.5 + 0.1j], -0.7, 0.6)
        profile = sp.spectral_derivative(sp.DirichletKernelProfile(1, 2, base), order)
        rates = [
            pairing2(target, base), pairing2(target, CENTER_1), pairing2(CENTER_1, base), pairing2(CENTER_1, CENTER_1)
        ]
        amp = (-1.0) ** order * dotted_log_amplitude(1, 2) / TWO_PI**2
        expected = amp * bracket_reference(order - 1.0, rates, 1)
        assert abs(sp.synthesize_dirichlet(profile, target) - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("n", [1, 2])
    def test_center_gives_the_constant_for_any_base(self, n):
        # At the center the four rates agree in pairs, so every base and
        # every derivative order returns the constant bit for bit.
        rng = np.random.default_rng(40 + n)
        for _ in range(40):
            z = rng.normal(0.0, 0.7, n) + 1j * rng.normal(0.0, 0.7, n)
            base = point(z, rng.normal(0.0, 0.7), rng.uniform(0.3, 2.0))
            offset = complex(*rng.normal(size=2))
            for order in (0, 1, 2):
                profile = sp.spectral_derivative(sp.DirichletKernelProfile(n, 2, base), order)
                assert sp.synthesize_dirichlet(profile, base_point(n), offset) == offset

    @pytest.mark.parametrize("offset", [1e-2, 1e-4, 1e-6])
    def test_base_near_the_center(self, offset):
        kid = kr.DirichletLog(2, dotted=True)
        near = point([offset * (0.6 - 0.3j)], 0.5 * offset, 1.0 + 0.8 * offset)
        other = point([0.3 - 0.2j], 0.4, 1.3)
        assert kr.reproducing_check(kid, other, near, method="spectral") <= 1e-8
        assert kr.reproducing_check(kid, near, other, method="spectral") <= 1e-8
        for at, base in ((other, near), (near, other)):
            expected = kr.kernel_eval(kid, at, base)
            value = sp.synthesize_dirichlet(sp.DirichletKernelProfile(1, 2, base), at)
            assert abs(value - expected) <= 1e-8 * abs(expected)

    def test_bases_close_to_each_other(self):
        kid = kr.DirichletLog(2, dotted=True)
        first = point([0.3 - 0.2j], 0.4, 1.3)
        second = point([0.3 - 0.2j + 1e-6 * (0.6 + 0.8j)], 0.4 + 0.5e-6, 1.3 - 0.3e-6)
        assert kr.reproducing_check(kid, first, second, method="spectral") <= 1e-8
        assert kr.reproducing_check(kid, second, first, method="spectral") <= 1e-8
        expected = kr.kernel_eval(kid, second, first)
        value = sp.synthesize_dirichlet(sp.DirichletKernelProfile(1, 2, first), second)
        assert abs(value - expected) <= 1e-8 * abs(expected)

    @pytest.mark.parametrize(
        "profile",
        [
            sp.KernelProfile(1, 0.0, GENERIC_BASE_1),
            sp.KernelProfile(1, -1.5, GENERIC_BASE_1, 1),
            finite_two_slot(),
            sp.FiniteProfile(1, ()),
            sp.DirichletKernelProfile(1, 2, GENERIC_BASE_1),
            sp.DirichletKernelProfile(2, 2, GENERIC_BASE_2),
            sp.DerivedProfile(sp.KernelProfile(1, 0.0, GENERIC_BASE_1), 1),
            sp.DerivedProfile(finite_two_slot(), 2),
            sp.DerivedProfile(sp.DirichletKernelProfile(1, 2, GENERIC_BASE_1), 1),
        ],
        ids=["kernel", "kernel-m1", "finite", "finite-empty", "log", "log-n2", "derived-kernel", "derived-finite", "derived-log"],
    )
    def test_synthesis_accepts_every_family(self, profile):
        # The center-subtracted synthesis is the closed-form chart value at
        # the target less the one at the center, plus the constant.
        n = profile.n
        target = chart([0.5 + 0.1j, -0.2j][:n], -0.7, 0.6)
        closed = sp.ProfileFunction(profile)
        center = [np.asarray(0.0j)] * n
        expected = (
            complex(closed.chart_values(list(target.z), target.t, target.h))
            - complex(closed.chart_values(center, 0.0, 1.0))
            + (0.3 - 0.1j)
        )
        value = sp.synthesize_dirichlet(profile, target, 0.3 - 0.1j)
        assert abs(value - expected) <= 1e-12 * max(abs(expected), 1.0)


class TestProfileFunction:
    def test_quadrature_path_matches_closed_path(self):
        targets = [
            ([np.asarray(0.4 - 0.1j)], 0.3, 0.7),
            ([np.asarray(-0.2 + 0.3j)], -0.9, 1.4),
        ]
        for profile in (
            sp.KernelProfile(1, 0.0, GENERIC_BASE_1),
            sp.KernelProfile(1, -1.5, GENERIC_BASE_1, 1),
            finite_two_slot(),
            sp.DerivedProfile(sp.KernelProfile(1, 0.0, GENERIC_BASE_1), 1),
        ):
            closed = sp.ProfileFunction(profile)
            for z, t, h in targets:
                a = complex(closed.chart_values(z, t, h))
                b = complex(quadrature_chart_values(profile, z, t, h, 240))
                assert abs(a - b) < 1e-8 * abs(a)

    def test_log_quadrature_path_is_center_subtracted(self):
        base = point([0.3 - 0.2j], 0.4, 1.3)
        profile = sp.DirichletKernelProfile(1, 2, base)
        closed = sp.ProfileFunction(profile)
        z, t, h = [np.asarray(0.5 + 0.1j)], -0.7, 0.6
        a = complex(closed.chart_values(z, t, h))
        b = complex(quadrature_chart_values(profile, z, t, h, 280))
        expected = dotted_log_value(1, 2, chart([0.5 + 0.1j], t, h), base)
        assert abs(a - expected) < 1e-12 * abs(expected)
        assert abs(b - expected) < 1e-7 * abs(expected)

    def test_constant_shifts_values_but_not_derivatives(self):
        profile = sp.DirichletKernelProfile(1, 2, point([0.3], 0.5, 1.2))
        offset = sp.ProfileFunction(profile, constant=0.6 - 0.3j)
        plain = sp.ProfileFunction(profile)
        z, t, h = [np.asarray(0.2)], 0.4, 0.9
        assert complex(offset.chart_values(z, t, h)) == pytest.approx(
            complex(plain.chart_values(z, t, h)) + (0.6 - 0.3j)
        )
        d_offset = offset.height_derivative(2)
        d_plain = plain.height_derivative(2)
        assert complex(d_offset.chart_values(z, t, h)) == pytest.approx(
            complex(d_plain.chart_values(z, t, h))
        )

    # "auto": the field as built with default arguments; "closed": the same
    # closed form carrying an additive constant, which must not bypass the
    # closed-form lookup.
    @pytest.mark.parametrize("constant", [0.0, 0.6 - 0.3j], ids=["auto", "closed"])
    def test_foreign_profile_has_no_closed_form(self, constant):
        z, t, h = [np.array([0.2 + 0.1j])], np.array([0.3]), np.array([0.8])
        foreign = sp.ProfileFunction(SimpleNamespace(n=1), constant=constant)
        with pytest.raises(InvalidParameterError, match="no closed form"):
            foreign.chart_values(z, t, h)

    def test_holomorphy_residuals_are_small_for_synthesized_fields(self):
        where = point([0.3 + 0.2j], 0.4, 0.9)
        closed = sp.ProfileFunction(sp.KernelProfile(1, 0.0, GENERIC_BASE_1))
        assert sp.holomorphy_residuals(closed, where) < 1e-7
        log_closed = sp.ProfileFunction(
            sp.DirichletKernelProfile(1, 2, point([0.3], 0.5, 1.2))
        )
        assert sp.holomorphy_residuals(log_closed, where) < 1e-7
        numeric = QuadratureFunction(finite_two_slot(), 200)
        assert sp.holomorphy_residuals(numeric, where) < 1e-6

    def test_holomorphy_residuals_flag_non_holomorphic_functions(self):
        detector = sp.PointwiseFunction(1, lambda p: complex(p.zeta_last.real))
        assert sp.holomorphy_residuals(detector, point([0.3], 0.4, 0.9)) > 1e-3

    def test_holomorphy_residuals_rank_nan_as_the_largest(self):
        # Constant, so holomorphic, while z stays at the point and NaN once
        # it moves: the height residual is 0 and the tangential one NaN.
        where = point([0.3 + 0.2j], 0.4, 0.9)
        jumpy = sp.PointwiseFunction(1, lambda p: 1.0 + 0.0j if p.z[0] == where.z[0] else complex(math.nan))
        assert math.isnan(sp.holomorphy_residuals(jumpy, where))


TINY_RULES = sp.ChartNormRules(
    radial_panels=1,
    radial_order=5,
    angle_count=6,
    t_panels=1,
    t_order=6,
    h_panels=1,
    h_order=6,
    h_tail_panels=1,
    h_tail_order=5,
    check_tails=False,
)


class TestPointwiseAdapter:
    def test_matches_profile_function_on_a_small_rule(self):
        base = GENERIC_BASE_1
        direct = sp.ProfileFunction(sp.KernelProfile(1, 0.0, GENERIC_BASE_1))
        wrapped = sp.PointwiseFunction(
            1, lambda p: kernel_value(1, 0.0, 0, p, base)
        )
        a = sp.space_norm_sq(Unanchored(direct), sp.Bergman(0.0), TINY_RULES)
        b = sp.space_norm_sq(wrapped, sp.Bergman(0.0), TINY_RULES)
        assert abs(a - b) < 1e-10 * a

    def test_supplied_height_derivative_is_used(self):
        nu, m = -1.5, 1
        base = GENERIC_BASE_1
        s = 1.0 + 2.0 + nu
        c = kernel_amplitude(1, nu, m)

        def derivative(p):
            return -c * math.gamma(s + 1.0) / TWO_PI**2 * pairing2(p, base) ** -(
                s + 1.0
            )

        wrapped = sp.PointwiseFunction(
            1,
            lambda p: kernel_value(1, nu, m, p, base),
            height_derivatives={1: derivative},
        )
        direct = sp.ProfileFunction(sp.KernelProfile(1, nu, GENERIC_BASE_1, m))
        tag = sp.WeightedDirichlet(nu, m)
        a = sp.space_norm_sq(Unanchored(direct), tag, TINY_RULES)
        b = sp.space_norm_sq(wrapped, tag, TINY_RULES)
        assert abs(a - b) < 1e-10 * a

    def test_missing_height_derivative_rejected(self):
        wrapped = sp.PointwiseFunction(1, lambda p: 0.0)
        with pytest.raises(InvalidParameterError):
            sp.space_norm_sq(wrapped, sp.WeightedDirichlet(-1.5, 1), TINY_RULES)

    def test_space_norm_requires_chart_evaluable_input(self):
        with pytest.raises(InvalidParameterError):
            sp.space_norm_sq(object(), sp.Bergman(0.0), TINY_RULES)


class TestSpaceTags:
    def test_constants_and_weights(self):
        assert sp.norm_identity_constant(sp.Hardy(), 1).value == 1.0
        assert sp.norm_identity_constant(sp.Bergman(0.0), 1).value == pytest.approx(0.5)
        assert sp.norm_identity_constant(
            sp.WeightedDirichlet(-1.5, 1), 1
        ).value == pytest.approx(math.gamma(1.5) / 2.0**1.5)
        assert sp.norm_identity_constant(sp.DruryArveson(1), 1).value == pytest.approx(0.5)
        assert sp.norm_identity_constant(sp.Dirichlet(2), 1).value == pytest.approx(0.25)
        assert sp.spectral_weight(sp.Hardy(), 1) == -1.0
        assert sp.spectral_weight(sp.Bergman(0.7), 1) == 0.7
        assert sp.spectral_weight(sp.WeightedDirichlet(-1.5, 2), 1) == -1.5
        assert sp.spectral_weight(sp.DruryArveson(1), 1) == -2.0
        assert sp.spectral_weight(sp.Dirichlet(2), 1) == -3.0

    def test_invalid_tags_rejected(self):
        cases = [
            (lambda: sp.Bergman(-1.0), 1),
            (lambda: sp.WeightedDirichlet(-0.5, 1), 1),
            (lambda: sp.WeightedDirichlet(-3.2, 2), 1),
            (lambda: sp.WeightedDirichlet(-1.5, 0), 1),
            (lambda: sp.DruryArveson(1), 2),
            (lambda: sp.Dirichlet(1), 1),
            (lambda: "not a tag", 1),
        ]
        for make, n in cases:
            with pytest.raises(InvalidParameterError):
                sp.spectral_weight(make(), n)


class TestChartNorms:
    def test_boundary_slices_match_power_law_and_extrapolate(self):
        # Slice norms of the boundary-limit kernel slice depend only on the
        # heights: n! / (4 pi)^(n+1) (h + h0)^-(n+1).
        profile = sp.KernelProfile(1, -1.0, base_point(1))
        F = sp.ProfileFunction(profile)
        slices = sp.hardy_slice_norms(F)
        for height, value in slices:
            expected = 1.0 / (4.0 * math.pi) ** 2 / (height + 1.0) ** 2
            assert abs(value - expected) < 1e-5 * expected
        values = [value for _, value in slices]
        assert all(b > a for a, b in zip(values, values[1:]))
        limit = sp.space_norm_sq(F, sp.Hardy())
        expected_limit = 1.0 / (16.0 * math.pi**2)
        assert abs(limit - expected_limit) < 1e-4 * expected_limit

    def test_boundary_norm_generic_base_matches_spectral_side(self):
        profile = sp.KernelProfile(1, -1.0, point([0.25 - 0.1j], 0.3, 0.9))
        F = sp.ProfileFunction(profile)
        for height, value in sp.hardy_slice_norms(F):
            expected = 1.0 / (4.0 * math.pi) ** 2 / (height + 0.9) ** 2
            assert abs(value - expected) < 1e-5 * expected
        limit = sp.space_norm_sq(F, sp.Hardy())
        spectral = sp.l2nu_norm_sq(profile, -1.0)
        assert abs(limit - spectral) < 2e-4 * spectral

    def test_slice_ladder_limit_is_the_boundary_norm(self):
        # Extrapolating the real slice norms gives the boundary norm to the
        # bit, as extrapolating the slices' Gram matrices does.
        F = sp.ProfileFunction(sp.KernelProfile(1, -1.0, point([0.25 - 0.1j], 0.3, 0.9)))
        values = [value for _, value in sp.hardy_slice_norms(F, TINY_RULES)]
        assert sp._richardson_limit(values) == sp.space_norm_sq(F, sp.Hardy(), TINY_RULES)

    def test_volume_norm_identity_at_weight_zero(self):
        # Three independent values: chart quadrature of |F|^2, the constant
        # times the weighted spectral norm, and the diagonal kernel value.
        profile = sp.KernelProfile(1, 0.0, base_point(1))
        F = sp.ProfileFunction(profile)
        volume = sp.space_norm_sq(F, sp.Bergman(0.0))
        spectral = paley_wiener_constant(1, 0, 0.0).value * sp.l2nu_norm_sq(profile, 0.0)
        diagonal = 1.0 / (8.0 * math.pi**2)
        assert abs(spectral - diagonal) < 1e-13 * diagonal
        assert abs(volume - diagonal) < 2e-4 * diagonal

    @pytest.mark.parametrize(
        "tag, nu, m",
        [
            (sp.WeightedDirichlet(-1.5, 1), -1.5, 1),
            (sp.WeightedDirichlet(-1.5, 2), -1.5, 2),
            (sp.DruryArveson(1), -2.0, 1),
        ],
    )
    def test_derivative_norm_identities(self, tag, nu, m):
        base = point([0.3], 0.1, 1.1)
        profile = sp.KernelProfile(1, nu, base, m)
        F = sp.ProfileFunction(profile)
        volume = sp.space_norm_sq(F, tag)
        constant = sp.norm_identity_constant(tag, 1).value
        spectral = constant * sp.l2nu_norm_sq(profile, nu)
        assert abs(volume - spectral) < 1e-3 * spectral

    def test_derivative_order_does_not_change_the_spectral_side(self):
        # The same function measured at two admissible derivative orders:
        # both chart norms must match their own constant times the one
        # spectral norm.
        nu = -1.5
        base = point([0.3], 0.1, 1.1)
        profile = sp.KernelProfile(1, nu, base, 1)
        F = sp.ProfileFunction(profile)
        spectral = sp.l2nu_norm_sq(profile, nu)
        for m in (1, 2):
            volume = sp.space_norm_sq(F, sp.WeightedDirichlet(nu, m))
            constant = paley_wiener_constant(1, m, nu).value
            assert abs(volume - constant * spectral) < 1e-3 * constant * spectral

    def test_endpoint_norm_identity_with_center_value(self):
        n, m = 1, 2
        base = point([0.3 + 0.2j], -0.4, 1.2)
        profile = sp.DirichletKernelProfile(n, m, base)
        F = sp.ProfileFunction(profile)
        volume = sp.space_norm_sq(F, sp.Dirichlet(m))
        constant = paley_wiener_constant(n, m, -(n + 2.0)).value
        spectral = constant * sp.l2nu_norm_sq(profile, -(n + 2.0))
        assert abs(volume - spectral) < 1e-3 * spectral
        # An affine constant adds exactly its squared modulus at the center.
        G = sp.ProfileFunction(profile, constant=0.6 - 0.3j)
        offset = sp.space_norm_sq(G, sp.Dirichlet(m))
        assert abs((offset - volume) - abs(0.6 - 0.3j) ** 2) < 1e-8

    def test_divergent_volume_norm_detected(self):
        profile = sp.KernelProfile(1, -1.0, base_point(1))
        F = sp.ProfileFunction(profile)
        with pytest.raises(DivergentIntegralError):
            sp.space_norm_sq(F, sp.Bergman(3.0))

    def test_rule_size_guard(self):
        rules = sp.ChartNormRules(max_points=1000)
        F = sp.ProfileFunction(sp.KernelProfile(1, 0.0, base_point(1)))
        with pytest.raises(InvalidParameterError):
            sp.space_norm_sq(F, sp.Bergman(0.0), rules)

    def test_slice_ladder_needs_two_levels(self):
        F = sp.ProfileFunction(sp.KernelProfile(1, -1.0, base_point(1)))
        with pytest.raises(InvalidParameterError):
            sp.hardy_slice_norms(F, sp.ChartNormRules(hardy_levels=1))


class HeightOnly:
    """Chart function of the height alone: its values broadcast along the
    other axes instead of filling the grid."""

    def __init__(self, n: int = 1):
        self.n = n

    def chart_values(self, z_components, t, h):
        return np.asarray(np.exp(-np.asarray(h)) + 0.5j)


class Unanchored:
    """A chart function with its anchors hidden, so a pass over it runs on the
    chart's own grid."""

    def __init__(self, function):
        self.function, self.n = function, function.n

    def chart_values(self, z_components, t, h):
        return self.function.chart_values(z_components, t, h)

    def height_derivative(self, order):
        return Unanchored(self.function.height_derivative(order))


class Unshared:
    """A chart function evaluated on its own, keeping its anchors but not the
    pass's shared center power: the per-function reference of a pass."""

    def __init__(self, function):
        self.function, self.n = function, function.n
        self.chart_anchors = function.chart_anchors

    def chart_values(self, z_components, t, h):
        return self.function.chart_values(z_components, t, h)


def full_grid_gram(functions, n, height_beta, rules, fixed_height=None):
    """One-shot reference: evaluate every function on the whole tensor grid
    and contract each product f_j conj(f_k) one axis at a time."""
    axes = sp._volume_axes(n, height_beta, rules)
    grids = quad.BoxRule(tuple(axes)).grids()
    z = [grids[j] * np.exp(1j * grids[n + j]) for j in range(n)]
    h = grids[2 * n + 1] if height_beta is not None else fixed_height
    shape = tuple(axis.node_count for axis in axes)
    values = [np.broadcast_to(F.chart_values(z, grids[2 * n], h), shape) for F in functions]
    out = np.empty((len(functions), len(functions)), dtype=complex)
    for j, a in enumerate(values):
        for k, b in enumerate(values):
            total = a * np.conj(b)
            for axis in reversed(axes):
                total = np.tensordot(total, axis.weights, axes=([-1], [0]))
            out[j, k] = complex(total)
    return out


#: A coarser layout for the 6-D grids of n = 2 (6,750 points with a height
#: axis); no axis has a multiple of 4 nodes, so chunks of 4 leave a remainder.
TINY_RULES_2 = sp.ChartNormRules(
    radial_panels=1,
    radial_order=3,
    angle_count=5,
    t_panels=1,
    t_order=5,
    h_panels=1,
    h_order=3,
    h_tail_panels=1,
    h_tail_order=3,
    check_tails=False,
)


def streamed_functions(n):
    base = GENERIC_BASE_1 if n == 1 else GENERIC_BASE_2
    other = point([-0.2 + 0.4j] + [0.1j] * (n - 1), 0.5, 1.3)
    return (
        sp.ProfileFunction(sp.KernelProfile(n, 0.0, base)),
        sp.ProfileFunction(sp.KernelProfile(n, 0.0, other)),
        sp.ProfileFunction(sp.FiniteProfile(n, ()), 0.75 - 0.4j),
        HeightOnly(n),
    )


class TestStreamedGram:
    # The bare ids count the radial nodes of one block on TINY_RULES: pairs
    # leave a remainder of one, and 5 is the whole grid.  The other cases cut
    # the first angle axis into chunks of 4 with a remainder, or the last axis,
    # in blocks smaller than one node of every other axis.
    @pytest.mark.parametrize(
        "n, rules, chunked, step",
        [
            pytest.param(1, TINY_RULES, 0, 1, id="1"),
            pytest.param(1, TINY_RULES, 0, 2, id="2"),
            pytest.param(1, TINY_RULES, 0, 5, id="5"),
            pytest.param(1, TINY_RULES, "angle", 4, id="n1-angle-4"),
            pytest.param(1, TINY_RULES, "last", 4, id="n1-last-4"),
            pytest.param(2, TINY_RULES_2, 0, 3, id="n2-whole"),
            pytest.param(2, TINY_RULES_2, 1, 2, id="n2-radial-2"),
            pytest.param(2, TINY_RULES_2, "angle", 4, id="n2-angle-4"),
            pytest.param(2, TINY_RULES_2, "last", 4, id="n2-last-4"),
        ],
    )
    @pytest.mark.parametrize("height_beta, fixed_height", [(0.0, None), (1.5, None), (None, 0.4)])
    def test_matches_full_grid_contraction(
        self, monkeypatch, n, rules, chunked, step, height_beta, fixed_height
    ):
        sizes = [axis.node_count for axis in sp._volume_axes(n, height_beta, rules)]
        axis = {"angle": n, "last": len(sizes) - 1}.get(chunked, chunked)
        monkeypatch.setattr(sp, "_BLOCK_POINTS", step * math.prod(sizes[axis + 1 :]))
        functions = streamed_functions(n)
        got = sp._chart_gram(functions, n, height_beta, rules, fixed_height)
        expected = full_grid_gram(functions, n, height_beta, rules, fixed_height)
        scale = np.sqrt(np.outer(np.diag(expected).real, np.diag(expected).real))
        assert np.all(np.abs(got - expected) <= 1e-12 * scale)
        assert np.all(np.diag(got).imag == 0.0)
        assert np.array_equal(got, got.conj().T)

    def test_each_function_is_evaluated_once_per_block(self, monkeypatch):
        calls = []

        class Counted(HeightOnly):
            def chart_values(self, z_components, t, h):
                calls.append(np.broadcast(*z_components, t, h).size)
                return super().chart_values(z_components, t, h)

        # Chunks of 4 of the 6 angles: blocks of 4 and 2 angles times the
        # whole t x h tail, for each of the 5 radial nodes.
        sizes = [axis.node_count for axis in sp._volume_axes(1, 0.0, TINY_RULES)]
        tail = sizes[2] * sizes[3]
        monkeypatch.setattr(sp, "_BLOCK_POINTS", 4 * tail)
        sp._chart_gram([Counted(), Counted()], 1, 0.0, TINY_RULES)
        assert calls == [4 * tail, 4 * tail, 2 * tail, 2 * tail] * sizes[0]
        assert max(calls) <= sp._BLOCK_POINTS
        assert sum(calls[::2]) == math.prod(sizes)

    @staticmethod
    def log_slice_pass(monkeypatch, functions):
        """Gram of a pass in the endpoint space's weight on TINY_RULES, in
        blocks of 500 points, with the pairing powers and blocks it makes."""
        powers, blocks = [], []
        power, chart_points = sp._pairing_power, sp._ChartLayout.chart_points
        monkeypatch.setattr(sp, "_pairing_power", lambda *a: powers.append(a[2]) or power(*a))
        monkeypatch.setattr(sp._ChartLayout, "chart_points", lambda *a: blocks.append(1) or chart_points(*a))
        monkeypatch.setattr(sp, "_BLOCK_POINTS", 500)
        gram = sp._chart_gram(functions, 1, sp._tag_data(sp.Dirichlet(2), 1)[0], TINY_RULES)
        monkeypatch.undo()
        return gram, len(powers), len(blocks)

    def test_slices_share_the_center_power_of_a_block(self, monkeypatch):
        # Two full logarithmic slices make their own powers and share the
        # center's, 3 per block instead of 4, and the Gram keeps every bit.
        slices = [
            sp.ProfileFunction(sp.DirichletKernelProfile(1, 2, base), 1.0).height_derivative(2)
            for base in (GENERIC_BASE_1, point([-0.2 + 0.4j], 0.5, 1.3))
        ]
        shared, powers, blocks = self.log_slice_pass(monkeypatch, slices)
        reference, reference_powers, reference_blocks = self.log_slice_pass(
            monkeypatch, [Unshared(F) for F in slices]
        )
        assert blocks == reference_blocks > 1
        assert (powers, reference_powers) == (3 * blocks, 4 * blocks)
        assert np.array_equal(shared, reference)

    @pytest.mark.parametrize("n", [1, 2])
    def test_total_pass_is_the_sum_of_the_gram(self, n):
        rules = TINY_RULES if n == 1 else TINY_RULES_2
        log = sp.ProfileFunction(sp.DirichletKernelProfile(n, n + 1, GENERIC_BASE_1 if n == 1 else GENERIC_BASE_2))
        for functions in (streamed_functions(n), streamed_functions(n)[:2] + (log.height_derivative(1),)):
            stretched = rules.stretched()
            full = sp._chart_gram(functions, n, 0.5, stretched).sum()
            total = sp._chart_gram(functions, n, 0.5, stretched, total=True)
            assert total.shape == (1, 1) and total[0, 0].imag == 0.0
            assert abs(total[0, 0] - full) <= 1e-13 * abs(full)

    def test_norm_is_the_gram_diagonal(self):
        # The constant adds no anchor, so the pair runs on the slice's grid.
        F, _, G = streamed_functions(1)[:3]
        gram = sp.space_gram([F, G], sp.Bergman(0.0), TINY_RULES)
        assert gram[0, 0] == sp.space_norm_sq(F, sp.Bergman(0.0), TINY_RULES)
        F, G = Unanchored(F), Unanchored(streamed_functions(1)[1])
        gram = sp.space_gram([F, G], sp.Bergman(0.0), TINY_RULES)
        assert gram[0, 0] == sp.space_norm_sq(F, sp.Bergman(0.0), TINY_RULES)
        assert gram[1, 1] == sp.space_norm_sq(G, sp.Bergman(0.0), TINY_RULES)

    @staticmethod
    def traced_peak(functions, n, rules):
        tracemalloc.start()
        try:
            sp._chart_gram(functions, n, 0.0, rules)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_block_memory_does_not_grow_with_the_rule(self):
        # The peak traced allocation of a 14 M-point pass of two kernel
        # slices stays within a few blocks' temporaries (10.1 MB measured),
        # far below one complex value per grid point.
        rules = sp.ChartNormRules(
            radial_panels=4, radial_order=16, t_panels=7, t_order=16,
            h_tail_panels=5, h_tail_order=16, check_tails=False,
        )
        points = math.prod(axis.node_count for axis in sp._volume_axes(1, 0.0, rules))
        assert points > 10_000_000
        assert self.traced_peak(streamed_functions(1)[:2], 1, rules) < 16e6 < 16 * points

    def test_block_memory_of_a_six_dimensional_pass(self):
        # One kernel slice on the 12.6 M-point smoke layout at n = 2 (4.7 MB
        # measured); its anchor is hidden, so the grid stays 6-D.
        rules = replace(sp.ChartNormRules.smoke(), check_tails=False)
        points = math.prod(axis.node_count for axis in sp._volume_axes(2, 0.0, rules))
        assert points > 10_000_000
        functions = [Unanchored(streamed_functions(2)[0])]
        assert len(sp._chart_layout(functions, 2, 0.0, rules).axes) == 6
        assert self.traced_peak(functions, 2, rules) < 8e6 < 16 * points


#: Radial axes fine enough that the merged radial axis of two slots and the
#: product of two radial axes agree to rounding; the integrands below do not
#: depend on the angles, which one node of weight 2π integrates exactly.
CONVERGED_RADIAL_RULES = sp.ChartNormRules(
    radial_panels=6,
    radial_order=20,
    angle_count=1,
    t_panels=1,
    t_order=5,
    h_panels=1,
    h_order=3,
    h_tail_panels=1,
    h_tail_order=3,
    check_tails=False,
)


def finite_field(n):
    terms = (
        sp.FiniteTerm((0,) * n, 1.0, 0.0, 1.0),
        sp.FiniteTerm((2,) + (0,) * (n - 1), -0.2 + 0.5j, 0.5, 0.7),
    )
    return sp.ProfileFunction(sp.FiniteProfile(n, terms))


def gram_gap(got, expected):
    scale = np.sqrt(np.outer(np.diag(expected).real, np.diag(expected).real))
    return float(np.max(np.abs(got - expected) / scale))


def rand_point(rng, n):
    z = rng.normal(0.0, 0.5, n) + 1j * rng.normal(0.0, 0.5, n)
    return point(z, rng.normal(0.0, 0.5), rng.uniform(0.5, 1.5))


def kernel_slices(n, *bases):
    return [sp.ProfileFunction(sp.KernelProfile(n, 0.0, base)) for base in bases]


class TestAnchorFrame:
    """The chart engine integrates in the anchors' frame on a reduced grid."""

    def test_anchors_of_each_family(self):
        base = point([0.3 - 0.2j, 0.1j], 0.4, 0.9)
        center = ((0j, 0j), 0.0)
        at_base = ((0.3 - 0.2j, 0.1j), 0.4)
        kernel = sp.ProfileFunction(sp.KernelProfile(2, 0.0, base)).chart_anchors
        assert kernel == sp.ChartAnchors(frozenset({at_base}), (0, 0))
        log = sp.ProfileFunction(sp.DirichletKernelProfile(2, 2, base), 1.0).height_derivative(2)
        assert log.chart_anchors.positions == {center, at_base}
        assert finite_field(2).chart_anchors == sp.ChartAnchors(frozenset({center}), (2, 0))
        empty = sp.ProfileFunction(sp.FiniteProfile(2, ()), 1.0).chart_anchors
        assert empty == sp.ChartAnchors(frozenset(), (0, 0))
        combo = kr.FunctionCombination(((1.0, finite_field(2)), (2.0, kernel_slices(2, base)[0])))
        assert combo.chart_anchors == sp.ChartAnchors(frozenset({center, at_base}), (2, 0))
        assert kr.FunctionCombination(((1.0, HeightOnly(2)), (1.0, combo))).chart_anchors is None

    @pytest.mark.parametrize(
        "n, functions, sizes",
        [
            (1, lambda: kernel_slices(1, GENERIC_BASE_1), [5, 6, 11]),
            (2, lambda: kernel_slices(2, GENERIC_BASE_2), [5, 6, 11]),
            (1, lambda: kernel_slices(1, GENERIC_BASE_1, point([-0.2j], 0.5, 1.3)), [5, 6, 6, 11]),
            (2, lambda: kernel_slices(2, GENERIC_BASE_2, point([-0.2j, 0.1], 0.5, 1.3)), [5, 5, 6, 6, 11]),
            (1, lambda: [finite_field(1)], [5, 3, 6, 11]),
            (2, lambda: [finite_field(2)], [5, 5, 3, 6, 11]),
            (2, lambda: kernel_slices(2, GENERIC_BASE_2, point([-0.2j, 0.1], 0.5, 1.3), base_point(2)),
             [5, 5, 6, 6, 6, 11]),
            (2, lambda: [HeightOnly(2)], [5, 5, 6, 6, 6, 11]),
        ],
        ids=["n1-one", "n2-one", "n1-two", "n2-two", "n1-finite", "n2-finite", "n2-three", "n2-unanchored"],
    )
    def test_reduced_grid_sizes(self, n, functions, sizes):
        layout = sp._chart_layout(functions(), n, 0.0, TINY_RULES)
        assert [axis.node_count for axis in layout.axes] == sizes

    @pytest.mark.parametrize(
        "n, functions, rules",
        [
            (1, lambda: kernel_slices(1, point([0.0], 0.0, 0.9)), TINY_RULES),
            (2, lambda: kernel_slices(2, point([0.0, 0.0], 0.0, 0.9)), CONVERGED_RADIAL_RULES),
            (2, lambda: kernel_slices(2, point([0.3, 0.0], 0.2, 0.8), point([-0.3, 0.0], -0.2, 1.3)), TINY_RULES_2),
            (1, lambda: [finite_field(1)], TINY_RULES),
            (2, lambda: [finite_field(2)], TINY_RULES_2),
        ],
        ids=["n1-axis", "n2-axis", "n2-slot-1-pair", "n1-finite", "n2-finite"],
    )
    @pytest.mark.parametrize("height_beta, fixed_height", [(0.0, None), (None, 0.4)])
    def test_reduced_gram_matches_the_full_grid(self, n, functions, rules, height_beta, fixed_height):
        # Anchors already in frame position: the reduced grid integrates the
        # same sums as the full tensor grid, exactly in the dropped angles.
        functions = functions()
        got = sp._chart_gram(functions, n, height_beta, rules, fixed_height)
        expected = full_grid_gram(functions, n, height_beta, rules, fixed_height)
        reduced = sp._chart_layout(functions, n, height_beta, rules).axes
        full = sp._volume_axes(n, height_beta, rules)
        assert math.prod(a.node_count for a in reduced) < math.prod(a.node_count for a in full)
        assert gram_gap(got, expected) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_moving_all_anchors_leaves_the_gram_unchanged(self, n):
        rng = np.random.default_rng(40)
        bases = [rand_point(rng, n), rand_point(rng, n)]
        element = hg.HeisenbergElement(rng.normal(size=n) + 1j * rng.normal(size=n), float(rng.normal()))
        rotation = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        phi = Composition((HeisenbergTranslation(element), Unitary(rotation)))
        for count in (1, 2):
            grams = [
                sp._chart_gram(kernel_slices(n, *points[:count]), n, 0.0, TINY_RULES if n == 1 else TINY_RULES_2)
                for points in (bases, [apply(phi, b) for b in bases])
            ]
            assert gram_gap(grams[1], grams[0]) < 1e-12

    def test_three_anchors_and_unanchored_functions_keep_the_chart_grid(self):
        points = [GENERIC_BASE_1, point([-0.2 + 0.4j], 0.5, 1.3), point([0.1j], -0.3, 0.7)]
        slices = [kr.kernel_slice(kr.DirichletLog(2, dotted=True), p) for p in points]
        combo = kr.FunctionCombination(tuple(zip([1.0, -0.5 + 0.3j, 0.25j], slices))).height_derivative(2)
        for functions in ([combo], [HeightOnly(1)]):
            layout = sp._chart_layout(functions, 1, 1.0, TINY_RULES)
            assert layout.frame is None and layout.polar == (0,) and not layout.merged
            got = sp._chart_gram(functions, 1, 1.0, TINY_RULES)
            assert np.array_equal(got, sp._chart_gram([Unanchored(F) for F in functions], 1, 1.0, TINY_RULES))
        assert layout.label == "chart radial 1x5, angles 6, t 1x6, h-tail 1x5"
        assert sp._chart_layout([combo], 1, 1.0, TINY_RULES).label == (
            "chart frame none (4 anchors): radial 1x5, angles 6, t 1x6, h-tail 1x5"
        )

    def test_labels_name_the_axes_used(self):
        one = sp._chart_layout(kernel_slices(2, GENERIC_BASE_2), 2, 0.0, kr.KERNEL_QUADRATURE_RULES)
        assert one.label == "chart frame 1 anchor: radial 4x16 merged, t 7x16, h-tail 5x16"
        two = sp._chart_layout(kernel_slices(2, GENERIC_BASE_2, base_point(2)), 2, 0.0, TINY_RULES_2)
        assert two.label == "chart frame 2 anchors: radial 1x3, angles 5, radial 1x3 merged, t 1x5, h-tail 1x3"
        finite = sp._chart_layout([finite_field(2)], 2, 0.0, TINY_RULES_2)
        assert finite.label == "chart frame 1 anchor: radial 1x3, angles 3, radial 1x3 merged, t 1x5, h-tail 1x3"


class TestAccumulate:
    """The block contraction against ``sum(w * a * conj(b))``."""

    def test_mixed_value_shapes(self):
        rng = np.random.default_rng(31)
        shape = (1, 3, 5, 7)
        full = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        values = [
            full,
            rng.normal(size=(1, 1, 1, 7)) + 1j * rng.normal(size=(1, 1, 1, 7)),  # height-only
            np.asarray(0.4 - 1.3j),  # a center product
            full,  # a repeated function in an off-diagonal slot
        ]
        weights = rng.uniform(0.1, 2.0, size=shape[1:])
        gram = np.zeros((4, 4), dtype=complex)
        sp._accumulate(gram, weights, values)
        for j, a in enumerate(values):
            for k, b in enumerate(values):
                assert gram[j, k] == pytest.approx(np.sum(weights * a * np.conj(b)), rel=1e-13)
        assert np.all(np.diag(gram).imag == 0.0)
        assert gram[0, 3].imag == 0.0 and gram[3, 0].imag == 0.0
        assert np.array_equal(gram, gram.conj().T)

    def test_center_products_with_a_unit_weight(self):
        # space_gram adds the values at the center this way.
        values = [np.asarray(0.4 - 1.3j), np.asarray(-2.0 + 0.5j)]
        gram = np.full((2, 2), 1.0 + 0.0j)
        sp._accumulate(gram, 1.0, values)
        expected = 1.0 + np.outer(values, np.conj(values))
        np.testing.assert_allclose(gram, expected, rtol=1e-15)
        assert np.all(np.diag(gram).imag == 0.0)
        assert np.array_equal(gram, gram.conj().T)


class TestPairingPower:
    """Pairing powers in real arithmetic against NumPy's complex power."""

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 0.5, 1.5, 2.5, 3.5, 0.7, 2.3])
    def test_matches_numpy_power(self, s):
        rng = np.random.default_rng(11)
        re = np.geomspace(1e-3, 10.0, 37).reshape(-1, 1)
        im = np.concatenate(
            [[0.0], rng.uniform(-1e3, 1e3, 40), np.geomspace(1e-3, 1e3, 7), -np.geomspace(1e-3, 1e3, 7)]
        ).reshape(1, -1)
        got = sp._pairing_power(re, im, s)
        expected = np.power(re + 1j * im, -s)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected) / np.abs(expected)) <= 1e-13
        assert complex(sp._pairing_power(0.6, -0.8, s)) == pytest.approx((0.6 - 0.8j) ** -s, rel=1e-13)

    def test_gram_matches_numpy_power_reference(self, monkeypatch):
        # Height derivatives of order 1 raise the pairing to the powers 2.5
        # (nu = -1.5) and 4 (nu = 0); the finite terms to 3 and 4.5.
        terms = (sp.FiniteTerm((0,), 1.0, 0.0, 1.0), sp.FiniteTerm((2,), -0.2 + 0.5j, 0.5, 0.7))
        functions = [
            sp.ProfileFunction(sp.KernelProfile(1, -1.5, GENERIC_BASE_1, 1)),
            sp.ProfileFunction(sp.KernelProfile(1, 0.0, point([-0.2 + 0.4j], 0.5, 1.3))),
            sp.ProfileFunction(sp.FiniteProfile(1, terms)),
        ]
        tag = sp.WeightedDirichlet(-1.5, 1)
        got = sp.space_gram(functions, tag, TINY_RULES)
        monkeypatch.setattr(sp, "_pairing_power", lambda re, im, s: np.power(re + 1j * im, -s))
        expected = sp.space_gram(functions, tag, TINY_RULES)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestScalingAndGrowth:
    @settings(max_examples=20, deadline=None)
    @given(delta=st.floats(0.5, 2.0), nu=st.sampled_from([0.0, -1.0, -1.5]))
    def test_anisotropic_scaling_power_law(self, delta, nu):
        # Composing with the anisotropic scaling multiplies the squared space
        # norm by delta^-(2n + 4 + 2 nu); on the spectral side the composed
        # function is delta^(-2s) times the kernel slice at the moved base.
        n, m = 1, (1 if nu < -1.0 else 0)
        base = point([0.4 - 0.2j], 0.6, 1.3)
        moved = apply(Dilation(1.0 / delta), base)
        s = n + 2.0 + nu
        lhs = delta ** (-4.0 * s) * sp.l2nu_norm_sq(
            sp.KernelProfile(n, nu, moved, m), nu
        )
        rhs = delta ** -(2.0 * n + 4.0 + 2.0 * nu) * sp.l2nu_norm_sq(
            sp.KernelProfile(n, nu, base, m), nu
        )
        assert abs(lhs - rhs) < 1e-10 * rhs

    def test_growth_envelope_near_the_boundary(self):
        # |F(p)| is bounded by the geometric mean of the diagonal kernel
        # values, uniformly as the height shrinks.
        nu = 0.0
        profile = sp.KernelProfile(1, nu, GENERIC_BASE_1)
        base = GENERIC_BASE_1
        for k in range(7):
            target = chart([0.3 - 0.2j], 1.7, 0.4 * 2.0**-k)
            value = abs(sp.synthesize(profile, target))
            envelope = math.sqrt(
                kernel_value(1, nu, 0, target, target).real
                * kernel_value(1, nu, 0, base, base).real
            )
            assert value <= envelope * (1.0 + 1e-9)

    @settings(max_examples=20, deadline=None)
    @given(
        re=st.floats(-2.0, 2.0),
        im=st.floats(-2.0, 2.0),
    )
    def test_norm_scales_quadratically_in_the_coefficients(self, re, im):
        q = complex(re, im)
        base_profile = sp.FiniteProfile(
            1, (sp.FiniteTerm((1,), 1.0 - 0.5j, 0.5, 0.9),)
        )
        scaled = sp.FiniteProfile(
            1, (sp.FiniteTerm((1,), q * (1.0 - 0.5j), 0.5, 0.9),)
        )
        norm = sp.l2nu_norm_sq(base_profile, -1.0)
        assert abs(sp.l2nu_norm_sq(scaled, -1.0) - abs(q) ** 2 * norm) <= 1e-12 * norm

    def test_derivative_composition_collapses(self):
        profile = finite_two_slot()
        twice = sp.spectral_derivative(sp.spectral_derivative(profile, 2), 3)
        assert isinstance(twice, sp.DerivedProfile)
        assert twice.order == 5 and twice.base is profile
        assert sp.spectral_derivative(profile, 0) is profile
        with pytest.raises(InvalidParameterError):
            sp.spectral_derivative(profile, -1)


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "profile",
        [
            sp.KernelProfile(1, -1.5, GENERIC_BASE_1, 1),
            sp.DirichletKernelProfile(1, 2, point([0.3], 0.5, 1.2)),
            finite_two_slot(),
            sp.DerivedProfile(sp.KernelProfile(2, 0.0, GENERIC_BASE_2), 2),
        ],
    )
    def test_round_trip_through_serialized_text(self, profile):
        text = json.dumps(sp.profile_to_json(profile))
        recovered = sp.profile_from_json(json.loads(text))
        assert recovered == profile

    def test_unknown_and_malformed_documents_rejected(self):
        with pytest.raises(InvalidParameterError):
            sp.profile_from_json({"family": "nope"})
        with pytest.raises(InvalidParameterError):
            sp.profile_from_json({})
        with pytest.raises(InvalidParameterError):
            sp.profile_to_json(object())


class TestProfileValidation:
    def test_kernel_profile_parameter_checks(self):
        with pytest.raises(InvalidParameterError):
            sp.KernelProfile(0, 0.0, base_point(1))
        with pytest.raises(InvalidParameterError):
            sp.KernelProfile(1, 0.0, base_point(2))
        with pytest.raises(InvalidParameterError):
            sp.KernelProfile(1, -3.0, base_point(1))
        with pytest.raises(InvalidParameterError):
            sp.KernelProfile(1, -1.5, base_point(1), 0)
        with pytest.raises(InvalidParameterError):
            sp.KernelProfile(1, 0.0, psi_inv(chart([2.0], 0.0, 0.0)))

    def test_log_profile_parameter_checks(self):
        with pytest.raises(InvalidParameterError):
            sp.DirichletKernelProfile(1, 1, base_point(1))
        with pytest.raises(InvalidParameterError):
            sp.DirichletKernelProfile(2, 2, base_point(1))

    def test_finite_profile_parameter_checks(self):
        with pytest.raises(InvalidParameterError):
            sp.FiniteProfile(1, (sp.FiniteTerm((0, 1), 1.0, 0.0, 1.0),))
        with pytest.raises(InvalidParameterError):
            sp.FiniteProfile(
                1,
                (
                    sp.FiniteTerm((1,), 1.0, 0.0, 1.0),
                    sp.FiniteTerm((1,), 2.0, 0.0, 1.0),
                ),
            )
        with pytest.raises(InvalidParameterError):
            sp.DerivedProfile(finite_two_slot(), -2)


class TestNoHalfLineRule:
    """No frequency integral of the package reaches the Gauss–Laguerre rule."""

    def test_log_family_never_builds_a_laguerre_rule(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("gauss_laguerre was called")

        monkeypatch.setattr(quad, "gauss_laguerre", refuse)
        f = sp.DirichletKernelProfile(2, 2, GENERIC_BASE_2)
        g = sp.DirichletKernelProfile(2, 2, point([0.1, 0.2 - 0.1j], -0.3, 0.7))
        assert sp.l2nu_inner_product(f, g, -4.0) != 0.0
        assert sp.l2nu_norm_sq(sp.spectral_derivative(f, 1), -2.0) > 0.0
        assert sp.synthesize_dirichlet(f, chart([0.1, -0.2j], 0.3, 0.9), 0.5) != 0.5
        assert kr.reproducing_check(kr.DirichletLog(2), GENERIC_BASE_1, point([0.4j], 0.1, 0.6), method="spectral") < 1e-10
        out = tmp_path / "synth.json"
        profile = json.dumps(sp.profile_to_json(sp.DirichletKernelProfile(1, 2, GENERIC_BASE_1)))
        zeta = json.dumps({"z": [[-0.1, 0.4]], "t": 0.5, "h": 1.3})
        assert cli.main(["synth", "--profile", profile, "--zeta", zeta, "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["value"]) == 2


class TestConstantCaches:
    """Gamma constants are cached per parameters, immutable, and equal to a
    fresh build bit for bit."""

    def test_norm_identity_constant_is_cached(self):
        tag = sp.WeightedDirichlet(-1.75, 2)
        first = sp.norm_identity_constant(tag, 1)
        hits = sp.norm_identity_constant.cache_info().hits
        assert sp.norm_identity_constant(sp.WeightedDirichlet(-1.75, 2), 1) is first
        assert sp.norm_identity_constant.cache_info().hits == hits + 1
        fresh = sp.norm_identity_constant.__wrapped__(tag, 1)
        assert fresh == first and fresh.value == first.value

    def test_profile_normalizations_are_shared_across_base_points(self):
        kernel = [sp.KernelProfile(2, -2.5, base, 2) for base in (base_point(2), GENERIC_BASE_2)]
        assert kernel[0].normalization_expression() is kernel[1].normalization_expression()
        assert kernel[1].normalization == paley_wiener_constant(2, 2, -2.5).reciprocal().value
        log = [sp.DirichletKernelProfile(1, 3, base) for base in (base_point(1), GENERIC_BASE_1)]
        assert log[0].normalization_expression() is log[1].normalization_expression()
        assert log[1].normalization == GammaExpression(two_exp=Fraction(4), gamma_den=(4.0,)).value  # k = 2m - n - 1

    def test_cached_constants_are_immutable(self):
        constant = sp.norm_identity_constant(sp.Dirichlet(2), 1)
        value = constant.value
        with pytest.raises(FrozenInstanceError):
            constant.value = 2.0 * value
        with pytest.raises(FrozenInstanceError):
            constant.two_exp = Fraction(5)
        assert sp.norm_identity_constant(sp.Dirichlet(2), 1).value == value
