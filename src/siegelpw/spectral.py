"""Frequency-side representation of holomorphic functions on the Siegel domain.

A holomorphic function of controlled growth is encoded here by a field of
rank-one operators on the negative half of the frequency axis: at frequency
``λ < 0`` the operator acts on the truncated Gaussian-weighted polynomial
space as ``f ↦ ⟨f, v(λ)⟩ e_0``, so the field is stored through its vector part
``v(λ)``.  The module provides

* named closed-form families (:class:`KernelProfile`,
  :class:`DirichletKernelProfile`, :class:`FiniteProfile`) and the
  frequency-multiplication operator :func:`spectral_derivative`;
* weighted spectral norms and pairings (:func:`l2nu_norm_sq`,
  :func:`l2nu_inner_product`) and synthesis back to the domain
  (:func:`synthesize`, :func:`synthesize_dirichlet`): every frequency
  integral is in closed form, a sum of Laplace pieces, or for the
  logarithmic family, whose pieces diverge one by one at frequency 0, a
  generalized Frullani integral of its four-exponential bracket;
* one descriptor per holomorphic space (:class:`Hardy`, :class:`Bergman`,
  :class:`WeightedDirichlet`, :class:`DruryArveson`, :class:`Dirichlet`),
  which also names the space's reproducing kernel in
  :mod:`siegelpw.kernels`, with the range checks of its weight and order;
* holomorphic-space norms and Gram matrices over the domain chart
  (:func:`space_norm_sq`, :func:`space_gram`) by streamed tensor-product
  quadrature in the frame of the functions' anchors, on a grid reduced by
  their rotation symmetry, including the boundary-limit norm via
  geometrically shrinking height slices and Richardson extrapolation, so
  both sides of each norm identity can be produced independently and
  compared.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import fock as _fock
from . import quadrature as _quad
from .errors import DivergentIntegralError, InvalidParameterError, UnderResolvedError
from .gammaexpr import GammaExpression, paley_wiener_constant
from .heisenberg import HeisenbergElement
from .siegel import (
    Composition,
    HeisenbergTranslation,
    HorocyclicCoordinates,
    SiegelPoint,
    Unitary,
    base_point,
    move_parts,
    pairing_parts,
    point_from_json,
    point_to_json,
)

__all__ = [
    "KernelProfile",
    "DirichletKernelProfile",
    "FiniteTerm",
    "FiniteProfile",
    "DerivedProfile",
    "SpectralProfile",
    "spectral_derivative",
    "l2nu_norm_sq",
    "l2nu_inner_product",
    "synthesize",
    "synthesize_dirichlet",
    "ProfileFunction",
    "PointwiseFunction",
    "holomorphy_residuals",
    "Hardy",
    "Bergman",
    "WeightedDirichlet",
    "DruryArveson",
    "Dirichlet",
    "SpaceTag",
    "spectral_weight",
    "norm_identity_constant",
    "ChartNormRules",
    "hardy_slice_norms",
    "space_gram",
    "space_norm_sq",
    "profile_to_json",
    "profile_from_json",
]


# --------------------------------------------------------------------------
# small helpers
# --------------------------------------------------------------------------


def _plancherel(n: int) -> float:
    """Normalization of the frequency integral, (2π)^-(n+1)."""
    return (2.0 * math.pi) ** (-(n + 1))


def _interior(point: SiegelPoint | HorocyclicCoordinates, what: str):
    """The point itself, after checking that it is a domain point or chart
    coordinates at positive height."""
    if not isinstance(point, (SiegelPoint, HorocyclicCoordinates)):
        raise InvalidParameterError(
            f"expected a domain point or chart coordinates, got {type(point).__name__}"
        )
    if not point.h > 0.0:
        raise InvalidParameterError(
            f"{what} requires an interior point (positive height), got height {point.h}"
        )
    return point


def _axis_point(n: int, h: float) -> SiegelPoint:
    """The point (0, 0, h) on the symmetry axis."""
    return SiegelPoint(np.zeros(n, dtype=np.complex128), 0.0, h)


def _pairing_form(z_components, t, h, anchor):
    """Twice the pairing of :func:`~siegelpw.siegel.pairing_parts` as one
    complex array."""
    re, im = pairing_parts(z_components, t, h, anchor)
    return re + 1j * im


def _pairing_power(re, im, s: float):
    """``q**-s`` on the principal branch for ``q = re + i*im`` with ``re > 0``.

    For an integer ``s >= 1`` the base is ``1/q``; for a half-integer ``s``
    it is ``q**-1/2 = (u - i*im/(2u))/|q|`` with ``u = sqrt((|q| + re)/2)``,
    from real arithmetic on the broadcast parts.  Either base is raised to
    the integer power ``s`` or ``2s`` by :func:`_integer_power`.  Any other
    ``s`` takes NumPy's complex power, a complex logarithm and exponential.
    """
    s = float(s)
    if s >= 1.0 and s.is_integer():
        base = np.asarray(re + 1j * im)
        np.reciprocal(base, out=base)
        return _integer_power(base, int(s))
    if s > 0.0 and (2.0 * s).is_integer():
        modulus = np.sqrt(re * re + im * im)
        u = np.sqrt(0.5 * (modulus + re))
        base = np.empty(np.shape(modulus), dtype=np.complex128)
        np.divide(u, modulus, out=base.real)
        np.divide(-0.5 * im, u * modulus, out=base.imag)
        del modulus, u  # two block-sized temporaries, freed before the powers
        return _integer_power(base, int(2.0 * s))
    return np.power(re + 1j * im, -s)


def _integer_power(base: np.ndarray, k: int) -> np.ndarray:
    """``base**k`` for an integer ``k >= 1``, overwriting ``base``: repeated
    squaring with whole-array products, which on a chart block is about twice
    as fast as NumPy's integer power (an element-by-element loop)."""
    result = None
    while k:
        if k & 1:
            if result is None:
                result = base if k == 1 else base.copy()
            else:
                np.multiply(result, base, out=result)
        k >>= 1
        if k:
            np.multiply(base, base, out=base)
    return result


def _monomial(z_components, alpha) -> np.ndarray | complex:
    out = None
    for zj, aj in zip(z_components, alpha):
        if aj:
            factor = zj**aj
            out = factor if out is None else out * factor
    return out if out is not None else 1.0 + 0.0j


def _slot_amplitude(alpha: _fock.MultiIndex) -> float:
    """``(alpha! 2^|alpha|)^(-1/2)``, the weight of basis slot ``alpha``."""
    return math.exp(-0.5 * alpha.log_factorial - 0.5 * alpha.degree * math.log(2.0))


def _conjugate_p_values(truncation: _fock.FockTruncation, mu, base: SiegelPoint):
    """Conjugated matrix coefficients against the lowest-degree vector, damped
    by the base's height.

    Returns ``e^(-h*mu) * conj(p_alpha(-mu, z, t))`` at the base ``(z, t, h)``
    for every enumerated index, shaped ``(dim,) + shape(mu)``; ``p_alpha`` is
    the pairing of the translated lowest-degree vector with ``e_alpha`` at
    negative frequency, and the damped prefactor is ``e^(-mu * 2q(base, 0))``.
    """
    mu = np.asarray(mu, dtype=float)
    prefactor = np.exp(-mu * _pairing_form(base.z, base.t, base.h, _axis_point(base.n, 0.0)))
    out = np.empty((truncation.dim,) + prefactor.shape, dtype=np.complex128)
    for i, alpha in enumerate(truncation.indices):
        amp = math.exp(-0.5 * alpha.log_factorial)
        out[i] = prefactor * amp * (0.5 * mu) ** (0.5 * alpha.degree) * _monomial(base.z, alpha)
    return out


# --------------------------------------------------------------------------
# closed-form half-line integrals
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Piece:
    """One summand ``amp * mu^power * e^(-rate*mu)`` of a half-line integral
    (``Re rate > 0``); see :func:`_laplace_sum`."""

    power: float
    rate: complex
    amp: complex


def _rate(point, anchor) -> complex:
    """Twice the pairing of ``point`` against ``anchor``, a decay rate."""
    return complex(*pairing_parts(point.z, point.t, point.h, anchor))


def _phase_piece(power: float, amp: complex, point, anchor) -> _Piece:
    """The piece ``amp * mu^power * e^(-mu * 2q(point, anchor))``."""
    return _Piece(power, _rate(point, anchor), complex(amp))


def _check_piece(piece: _Piece) -> None:
    if piece.power <= -1.0:
        raise DivergentIntegralError(
            f"frequency integral diverges at 0 (power {piece.power} <= -1)"
        )
    if piece.rate.real <= 0.0:
        raise DivergentIntegralError(
            f"frequency integral diverges at infinity (decay rate {piece.rate.real} <= 0)"
        )


def _laplace_sum(pieces: Sequence[_Piece]) -> complex:
    """Sum of the pieces' integrals over (0, ∞), each in closed form:
    ``amp * Gamma(p+1) * rate^-(p+1)`` on the principal branch
    (Gradshteyn–Ryzhik 3.381.4)."""
    total = 0.0 + 0.0j
    for piece in pieces:
        _check_piece(piece)
        s = piece.power + 1.0
        total += piece.amp * cmath.exp(math.lgamma(s) - s * cmath.log(piece.rate))
    return total


#: Signs of a logarithmic field's bracket of four exponentials: they sum to
#: 0, and where the bracket vanishes identically rates 1 and 3, 2 and 4 agree.
_BRACKET_SIGNS = (1.0, -1.0, -1.0, 1.0)


def _bracket_integral(power: int | float, rates: Sequence[complex]) -> complex:
    """``∫_0^∞ mu^power * sum_k c_k e^(-r_k mu) dmu`` over the bracket signs
    ``c_k``, on the principal branch (``Re r_k > 0``).  The caller checks
    that the bracket vanishes at frequency 0 to an order that makes it
    converge, and passes an integer power as an int, built from the integer
    orders and weight: a float one ulp off a pole of Gamma would cancel
    catastrophically.

    At ``power = -1 - N`` this is ``sum_k c_k (-r_k)^N / N! * (H_N - log
    r_k)``, ``H_N`` the harmonic number (generalized Frullani integral,
    Gradshteyn–Ryzhik 3.434); at any other power ``Gamma(power + 1) * sum_k
    c_k r_k^-(power + 1)``, continued analytically below -1.  Summing
    ``(t_1 + t_3) + (t_2 + t_4)`` makes pairwise equal rates give exactly 0.
    """
    if isinstance(power, int) and power <= -1:
        order = -1 - power
        harmonic = sum(1.0 / k for k in range(1, order + 1))
        scale = 1.0 / math.factorial(order)
        terms = [c * scale * (-r) ** order * (harmonic - cmath.log(r)) for c, r in zip(_BRACKET_SIGNS, rates)]
    else:
        gamma = math.gamma(power + 1)
        terms = [c * gamma * r ** -(power + 1) for c, r in zip(_BRACKET_SIGNS, rates)]
    return (terms[0] + terms[2]) + (terms[1] + terms[3])


# --------------------------------------------------------------------------
# profile families
# --------------------------------------------------------------------------


@lru_cache(maxsize=512)
def _kernel_normalization(n: int, m: int, nu: float) -> GammaExpression:
    """:attr:`KernelProfile.normalization`, cached per parameters: the
    reciprocal norm-identity constant, and 1 at the boundary limit."""
    if abs(2 * m + nu + 1) < 1e-12:
        return GammaExpression()
    return paley_wiener_constant(n, m, nu).reciprocal()


@lru_cache(maxsize=512)
def _log_normalization(n: int, m: int) -> GammaExpression:
    """``2^k / Gamma(k)``, ``k = 2m - n - 1``, cached per parameters."""
    k = 2 * m - n - 1
    return GammaExpression(two_exp=Fraction(k), gamma_den=(float(k),))


@dataclass(frozen=True)
class KernelProfile:
    """Rank-one field whose synthesis is a reproducing-kernel slice through
    ``base``.

    The vector part at frequency ``-mu`` is ``normalization * mu^(nu+1) *
    e^(-h0*mu)`` times the conjugated matrix-coefficient row of the base
    point.  ``normalization`` is fixed so that the weighted spectral norm of
    the field equals the order-``m``/weight-``nu`` holomorphic-space norm of
    the synthesized slice; the boundary-limit case (``nu = -1``, ``m = 0``)
    has normalization 1.
    """

    n: int
    nu: float
    base: SiegelPoint
    m: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidParameterError(f"dimension must be at least 1, got {self.n}")
        if self.base.n != self.n:
            raise InvalidParameterError(
                f"base point has dimension {self.base.n}, expected {self.n}"
            )
        if not isinstance(self.m, int) or self.m < 0:
            raise InvalidParameterError(f"derivative order must be a nonnegative int, got {self.m}")
        if self.nu <= -(self.n + 2):
            raise InvalidParameterError(
                f"weight must exceed -(n+2) = {-(self.n + 2)}, got {self.nu}"
            )
        if 2 * self.m + self.nu + 1 < -1e-12:
            raise InvalidParameterError(
                f"need 2m+nu >= -1, got m={self.m}, nu={self.nu}"
            )
        if not self.base.h > 0:
            raise InvalidParameterError("base point must lie in the open domain")

    def normalization_expression(self) -> GammaExpression:
        return _kernel_normalization(self.n, self.m, self.nu)

    @cached_property
    def normalization(self) -> float:
        return self.normalization_expression().value

    # -- spectral data -----------------------------------------------------

    @property
    def trace_mu_power(self) -> float:
        return self.nu + 1.0

    def coefficient_values(self, truncation: _fock.FockTruncation, mu) -> np.ndarray:
        """Vector part on the enumerated basis, shaped ``(dim,) + shape(mu)``."""
        mu = np.asarray(mu, dtype=float)
        radial = self.normalization * mu ** (self.nu + 1.0)
        return radial * _conjugate_p_values(truncation, mu, self.base)

    # -- synthesis ---------------------------------------------------------

    def synthesis_pieces(self, coords) -> list[_Piece]:
        return [_phase_piece(self.n + self.nu + 1.0, complex(self.normalization), coords, self.base)]


@dataclass(frozen=True)
class DirichletKernelProfile:
    """Rank-one field for the logarithmic-kernel slice through ``base`` with
    the value at the distinguished center subtracted.

    The vector part carries ``mu^(-n-1)``, so plain synthesis diverges at
    frequency zero (its height derivatives converge); use
    :func:`synthesize_dirichlet`, which integrates the center-subtracted
    combination.  When ``base`` is the center itself the field vanishes
    identically.
    """

    n: int
    m: int
    base: SiegelPoint

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidParameterError(f"dimension must be at least 1, got {self.n}")
        if self.base.n != self.n:
            raise InvalidParameterError(
                f"base point has dimension {self.base.n}, expected {self.n}"
            )
        spectral_weight(Dirichlet(self.m), self.n)
        if not self.base.h > 0:
            raise InvalidParameterError("base point must lie in the open domain")

    def normalization_expression(self) -> GammaExpression:
        return _log_normalization(self.n, self.m)

    @cached_property
    def normalization(self) -> float:
        return self.normalization_expression().value

    @property
    def is_zero(self) -> bool:
        return self.base == base_point(self.n)

    # -- spectral data -----------------------------------------------------

    @property
    def trace_mu_power(self) -> float:
        return -self.n - 1.0

    def coefficient_values(self, truncation: _fock.FockTruncation, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        rows = _conjugate_p_values(truncation, mu, self.base)
        rows[0] = rows[0] - np.exp(-mu)
        return self.normalization * mu ** (-self.n - 1.0) * rows

    # -- synthesis ---------------------------------------------------------

    def synthesis_pieces(self, coords) -> list[_Piece]:
        """The two center-subtracted pieces of power -1; they converge one by
        one only after a height derivative (:func:`synthesize` rejects the
        field itself)."""
        amp = self.normalization
        return [_phase_piece(-1.0, amp, coords, self.base), _phase_piece(-1.0, -amp, coords, base_point(self.n))]


@dataclass(frozen=True)
class FiniteTerm:
    """One basis slot of a finite field: the vector part on slot ``alpha`` is
    ``coefficient * |λ|^power * e^(decay*λ)`` (``decay > 0`` keeps the field
    integrable at large frequency)."""

    alpha: _fock.MultiIndex
    coefficient: complex = 1.0 + 0.0j
    power: float = 0.0
    decay: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.alpha, _fock.MultiIndex):
            object.__setattr__(self, "alpha", _fock.MultiIndex(self.alpha))
        object.__setattr__(self, "coefficient", complex(self.coefficient))
        if not np.isfinite([self.coefficient.real, self.coefficient.imag]).all():
            raise InvalidParameterError("term coefficient must be finite")
        if not math.isfinite(self.power):
            raise InvalidParameterError("term power must be finite")
        if not (self.decay > 0.0):
            raise InvalidParameterError(f"term decay must be positive, got {self.decay}")


@dataclass(frozen=True)
class FiniteProfile:
    """Rank-one field supported on finitely many basis slots, each with a
    power-times-exponential radial part."""

    n: int
    terms: tuple[FiniteTerm, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidParameterError(f"dimension must be at least 1, got {self.n}")
        object.__setattr__(self, "terms", tuple(self.terms))
        seen = set()
        for term in self.terms:
            if not isinstance(term, FiniteTerm):
                raise InvalidParameterError("terms must be FiniteTerm instances")
            if len(term.alpha) != self.n:
                raise InvalidParameterError(
                    f"term index {tuple(term.alpha)} has length {len(term.alpha)}, expected {self.n}"
                )
            if term.alpha in seen:
                raise InvalidParameterError(f"duplicate term index {tuple(term.alpha)}")
            seen.add(term.alpha)

    # -- spectral data -----------------------------------------------------

    @property
    def trace_mu_power(self) -> float:
        if not self.terms:
            return 0.0
        return min(term.power + 0.5 * term.alpha.degree for term in self.terms)

    def coefficient_values(self, truncation: _fock.FockTruncation, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        out = np.zeros((truncation.dim,) + mu.shape, dtype=np.complex128)
        for term in self.terms:
            if term.alpha.degree > truncation.max_degree:
                raise InvalidParameterError(
                    f"term index {tuple(term.alpha)} exceeds truncation degree {truncation.max_degree}"
                )
            out[truncation.index_of(term.alpha)] = (
                term.coefficient * mu**term.power * np.exp(-term.decay * mu)
            )
        return out

    # -- synthesis ---------------------------------------------------------

    def synthesis_pieces(self, coords) -> list[_Piece]:
        return [
            _phase_piece(
                self.n + term.power + 0.5 * term.alpha.degree,
                np.conj(term.coefficient)
                * complex(_monomial(coords.z, term.alpha))
                * _slot_amplitude(term.alpha),
                coords,
                _axis_point(self.n, term.decay),
            )
            for term in self.terms
        ]


@dataclass(frozen=True)
class DerivedProfile:
    """A base field multiplied by the ``order``-th power of the frequency;
    synthesis of the derived field is the ``order``-th height derivative of
    the base synthesis."""

    base: "SpectralProfile"
    order: int

    def __post_init__(self) -> None:
        if not isinstance(self.order, int) or self.order < 0:
            raise InvalidParameterError(
                f"derivative order must be a nonnegative int, got {self.order}"
            )

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def _sign(self) -> float:
        return -1.0 if self.order % 2 else 1.0

    @property
    def trace_mu_power(self) -> float:
        return self.base.trace_mu_power + self.order

    def coefficient_values(self, truncation: _fock.FockTruncation, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        return self._sign * mu**self.order * self.base.coefficient_values(truncation, mu)

    def synthesis_pieces(self, coords) -> list[_Piece]:
        return [
            _Piece(piece.power + self.order, piece.rate, self._sign * piece.amp)
            for piece in self.base.synthesis_pieces(coords)
        ]


SpectralProfile = Union[KernelProfile, DirichletKernelProfile, FiniteProfile, DerivedProfile]


def spectral_derivative(profile: SpectralProfile, order: int) -> SpectralProfile:
    """Multiply the field by the ``order``-th power of the frequency variable.

    Synthesizing the result gives the ``order``-th height derivative of the
    original synthesis; the weighted spectral norm with the weight shifted by
    ``2*order`` reproduces the original norm exactly.
    """
    if not isinstance(order, int) or order < 0:
        raise InvalidParameterError(f"derivative order must be a nonnegative int, got {order}")
    if order == 0:
        return profile
    if isinstance(profile, DerivedProfile):
        return DerivedProfile(profile.base, profile.order + order)
    return DerivedProfile(profile, order)


# --------------------------------------------------------------------------
# weighted spectral norms and pairings
# --------------------------------------------------------------------------


def l2nu_norm_sq(profile: SpectralProfile, nu: float) -> float:
    """Squared spectral norm: the diagonal of :func:`l2nu_inner_product`, the
    frequency integral of the squared vector length against ``mu^(n-nu-1)``,
    normalized by (2π)^-(n+1), in closed form.
    """
    return float(l2nu_inner_product(profile, profile, nu).real)


def _unwrap_derived(profile: SpectralProfile) -> tuple[SpectralProfile, int]:
    """The innermost base field and the total derivative order."""
    order = 0
    while isinstance(profile, DerivedProfile):
        profile, order = profile.base, order + profile.order
    return profile, order


def _cross_pieces(f: SpectralProfile, g: SpectralProfile) -> list[_Piece]:
    """Closed-form pieces of the node-wise pairing ⟨v_g(-mu), v_f(-mu)⟩."""
    if isinstance(f, KernelProfile) and isinstance(g, KernelProfile):
        amp = complex(f.normalization * g.normalization)
        return [_phase_piece(f.nu + g.nu + 2.0, amp, g.base, f.base)]
    if isinstance(f, KernelProfile) and isinstance(g, FiniteProfile):
        return [
            _phase_piece(
                term.power + f.nu + 1.0 + 0.5 * term.alpha.degree,
                term.coefficient
                * f.normalization
                * complex(_monomial(np.conj(f.base.z), term.alpha))
                * _slot_amplitude(term.alpha),
                _axis_point(f.n, term.decay),
                f.base,
            )
            for term in g.terms
        ]
    if isinstance(f, FiniteProfile) and isinstance(g, FiniteProfile):
        f_map = {term.alpha: term for term in f.terms}
        return [
            _Piece(
                term.power + other.power,
                complex(term.decay + other.decay),
                term.coefficient * other.coefficient.conjugate(),
            )
            for term in g.terms
            if (other := f_map.get(term.alpha)) is not None
        ]
    raise InvalidParameterError(
        f"no closed pairing for profile types {type(f).__name__} x {type(g).__name__}"
    )


def _log_pair_rates(f: DirichletKernelProfile, g: DirichletKernelProfile) -> list[complex]:
    """The rates r_k of the node-wise pairing ``a_f a_g mu^(-2n-2) sum_k c_k
    e^(-r_k mu)`` of two logarithmic fields: g's base and the center against
    f's base and the center."""
    fb, gb, center = f.base, g.base, base_point(f.n)
    return [_rate(a, b) for a, b in ((gb, fb), (gb, center), (center, fb), (center, center))]


def l2nu_inner_product(f_profile: SpectralProfile, g_profile: SpectralProfile, nu: float) -> complex:
    """Weighted spectral pairing of two fields, oriented so that it matches
    the holomorphic-space inner product ⟨F, G⟩ of the syntheses of
    ``f_profile`` and ``g_profile`` (first slot linear, second conjugated),
    up to the space's norm-identity constant.  Closed-form Laplace pieces;
    the pairing of two logarithmic fields integrates their bracket in closed
    form (:func:`_bracket_integral`).
    """
    f_base, f_order = _unwrap_derived(f_profile)
    g_base, g_order = _unwrap_derived(g_profile)
    if f_base.n != g_base.n:
        raise InvalidParameterError("profiles have different dimensions")
    n = f_base.n
    weight_power = n - nu - 1.0
    extra = f_order + g_order
    sign = -1.0 if extra % 2 else 1.0
    if isinstance(f_base, DirichletKernelProfile) and isinstance(g_base, DirichletKernelProfile):
        if f_base.is_zero or g_base.is_zero:
            return 0.0 + 0.0j
        # The bracket of four exponentials vanishes at frequency 0 to first
        # order in the bases' lateral product, and to second order when that
        # product is zero.
        vanish = 2.0 if complex(np.vdot(g_base.base.z, f_base.base.z)) == 0.0 else 1.0
        power = weight_power + extra - 2.0 * n - 2.0
        small_power = power + vanish
        if small_power <= -1.0:
            raise DivergentIntegralError(
                f"spectral pairing diverges at frequency 0 for weight {nu}"
            )
        if float(nu).is_integer():
            power = int(extra - n - 3 - nu)  # the same power, as an exact int
        amp = sign * f_base.normalization * g_base.normalization
        return _plancherel(n) * amp * _bracket_integral(power, _log_pair_rates(f_base, g_base))
    if isinstance(f_base, FiniteProfile) and isinstance(g_base, KernelProfile):
        return complex(np.conj(l2nu_inner_product(g_profile, f_profile, nu)))
    pieces = [
        _Piece(piece.power + weight_power + extra, piece.rate, sign * piece.amp)
        for piece in _cross_pieces(f_base, g_base)
    ]
    return _plancherel(n) * _laplace_sum(pieces)


# --------------------------------------------------------------------------
# synthesis
# --------------------------------------------------------------------------


def synthesize(profile: SpectralProfile, point: SiegelPoint | HorocyclicCoordinates) -> complex:
    """Value at an interior point of the holomorphic function carried by the
    field: the frequency integral of ``e^(-h*mu)`` times the field's trace
    against the adjoint representation operator, against ``mu^n``, normalized
    by (2π)^-(n+1).  Closed-form Laplace pieces; a logarithmic field's
    integral diverges at frequency 0 here and goes to
    :func:`synthesize_dirichlet`, while its height derivatives converge.
    """
    coords = _interior(point, "synthesis")
    n = profile.n
    if n + profile.trace_mu_power <= -1.0:
        raise DivergentIntegralError(
            "synthesis integral diverges at frequency 0; "
            "for the logarithmic-kernel family use synthesize_dirichlet"
        )
    return _plancherel(n) * _laplace_sum(profile.synthesis_pieces(coords))


def synthesize_dirichlet(
    profile: SpectralProfile,
    point: SiegelPoint | HorocyclicCoordinates,
    constant: complex = 0.0,
) -> complex:
    """Center-subtracted synthesis plus an affine constant.

    Integrates ``mu^n`` times the difference between the field's weighted
    trace at the target point and at the distinguished center, which cancels
    the frequency-zero divergence of the logarithmic-kernel family.  For that
    family the integral is the closed form of :func:`_bracket_integral` over
    four rates, the point and the center against the base and against the
    center; at the center itself the rates coincide in pairs, so the
    constant is returned exactly.  Kernel and finite fields converge at the
    point and at the center separately, as closed-form Laplace pieces.
    """
    coords = _interior(point, "synthesis")
    n = profile.n
    center = base_point(n)
    base, order = _unwrap_derived(profile)
    if isinstance(base, DirichletKernelProfile):
        rates = [_rate(a, b) for a in (coords, center) for b in (base.base, center)]
        amp = (-1.0 if order % 2 else 1.0) * base.normalization
        value = amp * _bracket_integral(order - 1, rates)
    else:
        at_center = [_Piece(p.power, p.rate, -p.amp) for p in profile.synthesis_pieces(center)]
        value = _laplace_sum(profile.synthesis_pieces(coords) + at_center)
    return _plancherel(n) * value + constant


# --------------------------------------------------------------------------
# chart-evaluable functions
# --------------------------------------------------------------------------


class _ChartBlock:
    """Chart coordinates of one block of a pass.  The pairing power against
    the center (0, 0, 1) is computed once per order and block and shared by
    every function evaluated there: each logarithmic slice of a pass
    subtracts it (see :func:`_log_derivative_split`).  Other powers are
    computed per request.

    The shared power is read, never written, and is scaled as ``P * c``:
    NumPy computes ``c * T`` of a temporary ``T`` in place as ``T * c``, and
    ``c * P`` of a kept array rounds a complex product differently.
    """

    def __init__(self, z_components, t, h):
        self.z_components, self.t, self.h = z_components, t, h
        self._center: dict[int, np.ndarray] = {}

    def power(self, anchor, s: float):
        """``q**-s`` of the pairing against ``anchor`` (see :func:`_pairing_power`)."""
        return _pairing_power(*pairing_parts(self.z_components, self.t, self.h, anchor), s)

    def center_power(self, order: int):
        """The pairing power of the given order against the center."""
        value = self._center.get(order)
        if value is None:
            value = self._center[order] = self.power(base_point(len(self.z_components)), order)
        return value


def _block_values(F, block: _ChartBlock):
    """Values of a chart function on a block: through the block's shared
    pairing powers for a function that takes them (``block_values``), else
    through its ``chart_values``."""
    values = getattr(F, "block_values", None)
    if values is not None:
        return values(block)
    return F.chart_values(block.z_components, block.t, block.h)


def _closed_profile_values(profile: SpectralProfile, block: _ChartBlock):
    """Closed-form chart values of the synthesized function on a block."""
    base, order = _unwrap_derived(profile)
    n = base.n
    if isinstance(base, KernelProfile):
        s = n + 2.0 + base.nu + order
        sign = -1.0 if order % 2 else 1.0
        amp = sign * base.normalization * _plancherel(n) * math.gamma(s)
        return amp * block.power(base.base, s)
    if isinstance(base, FiniteProfile):
        sign = -1.0 if order % 2 else 1.0
        # Without terms the values are a zero that broadcasts over the block.
        total = np.zeros((), dtype=np.complex128)
        for term in base.terms:
            s = n + 1.0 + term.power + 0.5 * term.alpha.degree + order
            amp = sign * np.conj(term.coefficient) * _slot_amplitude(term.alpha) * _plancherel(n)
            amp = amp * math.gamma(s)
            power = block.power(_axis_point(n, term.decay), s)
            total = total + amp * _monomial(block.z_components, term.alpha) * power
        return total
    if isinstance(base, DirichletKernelProfile):
        z_components, t, h = block.z_components, block.t, block.h
        if order == 0:
            center = base_point(n)
            at_base = _pairing_form(z_components, t, h, base.base)
            at_center = _pairing_form(z_components, t, h, center)
            fixed = complex(_pairing_form(center.z, center.t, center.h, base.base))
            return base.normalization * _plancherel(n) * (
                np.log(at_center) - np.log(at_base) + np.log(fixed) - math.log(2.0)
            )
        amp, anchor, _ = _log_derivative_split(profile)
        at_base = block.power(anchor, order)
        return amp * (at_base - block.center_power(order))
    raise InvalidParameterError(f"no closed form for profile type {type(base).__name__}")


def _log_derivative_split(profile: SpectralProfile):
    """``(amplitude, base, order)`` with the closed form ``amplitude * (P -
    P_center)`` of a height derivative of order >= 1 of a logarithmic slice,
    ``P`` the pairing power of that order against the slice's base point and
    ``P_center`` the one against the center; ``None`` for any other profile."""
    base, order = _unwrap_derived(profile)
    if not isinstance(base, DirichletKernelProfile) or order == 0:
        return None
    sign = -1.0 if order % 2 else 1.0
    return base.normalization * _plancherel(base.n) * sign * math.gamma(order), base.base, order


def _combination_values(terms, block: _ChartBlock):
    """Values of ``sum c * F`` over ``(c, F)`` terms on a block.  Closed-form
    height derivatives of logarithmic slices are summed as ``sum c_j a_j P_j
    - (sum c_j a_j) P_c``, one center term per order instead of one per
    slice."""
    total = None
    shared: dict[int, complex] = {}
    for coeff, func in terms:
        split = None
        if isinstance(func, ProfileFunction) and not func.constant:
            split = _log_derivative_split(func.profile)
        if split is None:
            piece = coeff * np.asarray(_block_values(func, block), dtype=np.complex128)
        else:
            amp, anchor, order = split
            scale = coeff * amp
            shared[order] = shared.get(order, 0.0) + scale
            piece = scale * block.power(anchor, order)
        total = piece if total is None else total + piece
    for order, scale in shared.items():
        total = total - block.center_power(order) * scale
    return total


@dataclass(frozen=True)
class ChartAnchors:
    """Where the chart values of a function are anchored: the distinct lateral
    positions ``(z, t)`` of the points its pairings are taken against, and
    per lateral slot the largest degree of a holomorphic monomial factor.  A
    translation or rotation that fixes every position changes the values
    only through those monomials."""

    positions: frozenset
    degrees: tuple[int, ...]

    def union(self, other: "ChartAnchors") -> "ChartAnchors":
        return ChartAnchors(self.positions | other.positions, tuple(map(max, self.degrees, other.degrees)))


def _profile_anchors(profile: SpectralProfile) -> ChartAnchors:
    """Kernel slices are anchored at their base, logarithmic slices at their
    base and the center, finite fields on the axis with their monomials'
    degrees; height derivatives keep the anchors."""
    base, _ = _unwrap_derived(profile)
    n = base.n
    degrees = [0] * n
    if isinstance(base, KernelProfile):
        points = [base.base]
    elif isinstance(base, DirichletKernelProfile):
        points = [base.base, base_point(n)]
    elif isinstance(base, FiniteProfile):
        points = [_axis_point(n, 1.0)] if base.terms else []
        degrees = [max((term.alpha[j] for term in base.terms), default=0) for j in range(n)]
    else:
        raise InvalidParameterError(f"no chart anchors for profile type {type(base).__name__}")
    return ChartAnchors(frozenset((tuple(p.z.tolist()), p.t) for p in points), tuple(degrees))


@dataclass(frozen=True)
class ProfileFunction:
    """Chart-evaluable view of a synthesized field by its closed form, plus an
    optional additive constant (the constant is dropped by height
    derivatives)."""

    profile: SpectralProfile
    constant: complex = 0.0 + 0.0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "constant", complex(self.constant))

    @property
    def n(self) -> int:
        return self.profile.n

    @property
    def chart_anchors(self) -> ChartAnchors:
        return _profile_anchors(self.profile)

    def chart_values(self, z_components, t, h) -> np.ndarray:
        return self.block_values(_ChartBlock(z_components, t, h))

    def block_values(self, block: _ChartBlock) -> np.ndarray:
        """Values on a chart block, sharing the block's pairing powers with
        every other function of the pass."""
        values = _closed_profile_values(self.profile, block)
        return values + self.constant if self.constant else values

    def height_derivative(self, order: int) -> "ProfileFunction":
        if order == 0:
            return self
        return ProfileFunction(spectral_derivative(self.profile, order))


@dataclass(frozen=True, eq=False)
class PointwiseFunction:
    """Chart adapter around a plain point-by-point callable; slow (Python
    loop), intended for small rules and cross-checks.  Height derivatives
    must be supplied as additional callables keyed by order."""

    n: int
    values: Callable[[SiegelPoint], complex]
    height_derivatives: Mapping[int, Callable[[SiegelPoint], complex]] = field(
        default_factory=dict
    )

    def chart_values(self, z_components, t, h) -> np.ndarray:
        broad = np.broadcast(*z_components, t, h)
        out = np.empty(broad.shape, dtype=np.complex128)
        flat = out.reshape(-1)
        for i, parts in enumerate(broad):
            zs = np.array(parts[: self.n], dtype=np.complex128)
            flat[i] = self.values(SiegelPoint(zs, np.real(parts[self.n]), np.real(parts[self.n + 1])))
        return out

    def height_derivative(self, order: int) -> "PointwiseFunction":
        if order == 0:
            return self
        func = self.height_derivatives.get(order)
        if func is None:
            raise InvalidParameterError(
                f"no analytic height derivative of order {order} was supplied"
            )
        return PointwiseFunction(self.n, func, {})


def holomorphy_residuals(
    F, point: SiegelPoint | HorocyclicCoordinates, step: float = 1e-4
) -> float:
    """Largest Cauchy–Riemann residual of a chart function at a point.

    Checks that the height derivative matches ``i`` times the transverse
    derivative and that each antiholomorphic derivative in the tangential
    slots equals ``i z_j / 4`` times the transverse derivative, using
    Richardson-refined central differences; returns the largest magnitude,
    NaN if any residual is NaN.
    """
    coords = _interior(point, "the residual")
    if step <= 0.0 or step >= coords.h / 4.0:
        step = min(step if step > 0.0 else 1e-4, coords.h / 8.0)

    def value(dz: np.ndarray, dt: float, dh: float) -> complex:
        zs = [np.asarray(coords.z[j] + dz[j]) for j in range(len(coords.z))]
        return complex(F.chart_values(zs, coords.t + dt, coords.h + dh))

    zero = np.zeros(len(coords.z), dtype=np.complex128)

    def derivative(direction: Callable[[float], tuple]) -> complex:
        def central(s: float) -> complex:
            plus = value(*direction(s))
            minus = value(*direction(-s))
            return (plus - minus) / (2.0 * s)

        return (4.0 * central(0.5 * step) - central(step)) / 3.0

    d_t = derivative(lambda s: (zero, s, 0.0))
    d_h = derivative(lambda s: (zero, 0.0, s))
    residuals = [abs(d_h - 1j * d_t)]
    for j in range(len(coords.z)):
        unit = np.zeros(len(coords.z), dtype=np.complex128)
        unit[j] = 1.0
        d_x = derivative(lambda s, u=unit: (s * u, 0.0, 0.0))
        d_y = derivative(lambda s, u=unit: (1j * s * u, 0.0, 0.0))
        d_zbar = 0.5 * (d_x + 1j * d_y)
        residuals.append(abs(d_zbar - 0.25j * coords.z[j] * d_t))
    return residuals[int(np.argmax(residuals))]


# --------------------------------------------------------------------------
# space descriptors and chart norms
# --------------------------------------------------------------------------


def _positive_order(m) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InvalidParameterError(f"derivative order must be a positive integer, got {m!r}")


@dataclass(frozen=True)
class Hardy:
    """Boundary-limit space: squared norm is the increasing limit of height
    slices of the squared chart values.  Its kernel is a constant times the
    pairing to the power ``-(n+1)``, the only kernel defined for boundary
    points (the pair must still carry positive total height)."""


@dataclass(frozen=True)
class Bergman:
    """Weighted volume space with weight ``h^nu`` (``nu > -1``); its kernel is
    a constant times the pairing to the power ``-(n+2+nu)``."""

    nu: float = 0.0

    def __post_init__(self) -> None:
        nu = float(self.nu)
        if not nu > -1.0:
            raise InvalidParameterError(f"volume weight exponent must exceed -1, got {nu}")
        object.__setattr__(self, "nu", nu)


@dataclass(frozen=True)
class WeightedDirichlet:
    """Derivative-regularized space: weight ``h^(2m+nu)`` against the squared
    order-``m`` height derivative, for ``-(n+2) < nu < -1`` and ``2m+nu > -1``
    (the lower bound is checked against the dimension at use time).  Its
    kernel has the volume kernel's pairing power ``-(n+2+nu)``."""

    nu: float
    m: int

    def __post_init__(self) -> None:
        _positive_order(self.m)
        nu = float(self.nu)
        if not nu < -1.0:
            raise InvalidParameterError(
                f"derivative-pairing weight exponent must be below -1, got {nu}"
            )
        if not 2 * self.m + nu > -1.0:
            raise InvalidParameterError(
                f"need 2m + nu > -1 for a convergent pairing, got m={self.m}, nu={nu}"
            )
        object.__setattr__(self, "nu", nu)


@dataclass(frozen=True)
class DruryArveson:
    """The weighted-Dirichlet space at the distinguished weight ``nu = -(n+1)``
    (requires ``2m > n`` at use time)."""

    m: int = 1

    def __post_init__(self) -> None:
        _positive_order(self.m)


@dataclass(frozen=True)
class Dirichlet:
    """Endpoint weight ``nu = -(n+2)``: squared seminorm of the order-``m``
    height derivative plus the squared value at the distinguished center
    (requires ``2m > n+1`` at use time).  Its kernel is ``1 + c*log(ratio)``;
    ``dotted`` drops the constant 1, so the kernel spans the subspace vanishing
    at the center, where the norm's center product is zero."""

    m: int
    dotted: bool = False

    def __post_init__(self) -> None:
        _positive_order(self.m)


SpaceTag = Union[Hardy, Bergman, WeightedDirichlet, DruryArveson, Dirichlet]


def _tag_data(tag: SpaceTag, n: int) -> tuple[float | None, int, float, bool]:
    """(height-weight exponent, derivative order, spectral weight, add center
    value), after the range checks that depend on the dimension."""
    if isinstance(tag, Hardy):
        return None, 0, -1.0, False
    if isinstance(tag, Bergman):
        return tag.nu, 0, tag.nu, False
    if isinstance(tag, WeightedDirichlet):
        if not tag.nu > -(n + 2.0):
            raise InvalidParameterError(
                f"derivative-pairing weight exponent must exceed -(n+2) = {-(n + 2)}, got {tag.nu}"
            )
        return 2 * tag.m + tag.nu, tag.m, tag.nu, False
    if isinstance(tag, DruryArveson):
        if not 2 * tag.m > n:
            raise InvalidParameterError(f"need 2m > n, got m={tag.m}, n={n}")
        return 2 * tag.m - n - 1.0, tag.m, -(n + 1.0), False
    if isinstance(tag, Dirichlet):
        if not 2 * tag.m > n + 1:
            raise InvalidParameterError(f"need 2m > n+1, got m={tag.m}, n={n}")
        return 2 * tag.m - n - 2.0, tag.m, -(n + 2.0), True
    raise InvalidParameterError(f"unknown space tag {tag!r}")


def spectral_weight(tag: SpaceTag, n: int) -> float:
    """The weight at which the spectral norm matches the tagged space."""
    return _tag_data(tag, n)[2]


@lru_cache(maxsize=512)
def norm_identity_constant(tag: SpaceTag, n: int) -> GammaExpression:
    """Constant relating the tagged squared space norm (its derivative part)
    to the weighted squared spectral norm; cached per ``(tag, n)``."""
    _, order, weight, _ = _tag_data(tag, n)
    if isinstance(tag, Hardy):
        return GammaExpression()
    return paley_wiener_constant(n, order, weight)


@dataclass(frozen=True)
class ChartNormRules:
    """Tensor-product quadrature layout for chart-volume norms.

    Each tangential slot contributes a radial axis (algebraic-tail map, with
    the polar Jacobian folded in) and a periodic angle axis; the transverse
    axis uses the whole-line algebraic-tail map; the height axis carries the
    space's weight exactly near 0 and an exponential-stretch far field.  Tail
    drift monitoring recomputes ``||sum_j F_j||^2``, the squared norm of the
    pass's functions' sum, with the far fields pushed outward; that stretched
    pass contracts only the sum, not the whole Gram matrix.  Growth flags
    divergence, disagreement under-resolution.

    A pass over functions that declare their anchors runs in the anchors'
    frame on a reduced grid (see :func:`_chart_layout`): slots that the
    values enter only through ``|z_j|`` share one radial axis, so
    ``angle_count`` is the most angles a slot gets.  The grid is streamed in
    blocks of at most 131,072 points, so ``max_points`` bounds the work of
    one pass over the reduced grid, not its memory.
    """

    radial_scale: float = 1.2
    radial_panels: int = 3
    radial_order: int = 14
    angle_count: int = 16
    t_scale: float = 1.5
    t_panels: int = 5
    t_order: int = 14
    h_split: float = 1.0
    h_panels: int = 3
    h_order: int = 14
    h_tail_panels: int = 3
    h_tail_order: int = 12
    tail_stretch: float = 2.0
    drift_tolerance: float = 5e-4
    check_tails: bool = True
    hardy_start_height: float = 0.4
    hardy_levels: int = 7
    max_points: int = 40_000_000

    @classmethod
    def smoke(cls) -> "ChartNormRules":
        """Coarse preset for high-dimensional sanity checks."""
        return cls(
            radial_panels=2,
            radial_order=8,
            angle_count=8,
            t_panels=3,
            t_order=8,
            h_panels=2,
            h_order=8,
            h_tail_panels=2,
            h_tail_order=8,
            hardy_levels=5,
        )

    def stretched(self) -> "ChartNormRules":
        return replace(
            self,
            radial_scale=self.radial_scale * self.tail_stretch,
            t_scale=self.t_scale * self.tail_stretch,
            h_split=self.h_split * self.tail_stretch,
            check_tails=False,
        )


def _volume_axes(
    n: int,
    height_beta: float | None,
    rules: ChartNormRules,
    angle_counts: Sequence[int] | None = None,
    merged: int = 0,
) -> list[_quad.Axis1D]:
    """Radial axes of the polar slots (Jacobian ``r``), then one radial axis
    shared by ``merged`` slots (Jacobian ``|S^(2k-1)| r^(2k-1)``, ``k =
    merged``), one angle axis per polar slot, the t axis and the height axis.
    By default every slot is polar with ``rules.angle_count`` angles: the
    chart's own grid."""
    if angle_counts is None:
        angle_counts = [rules.angle_count] * n
    radial = _quad.tan_half_axis(rules.radial_scale, rules.radial_panels, rules.radial_order)
    axes: list[_quad.Axis1D] = [
        _quad.Axis1D(radial.mapping, radial.params, radial.nodes, radial.weights * radial.nodes)
    ] * len(angle_counts)
    if merged:
        sphere = 2.0 * math.pi**merged / math.gamma(merged)
        weights = sphere * radial.weights * radial.nodes ** (2 * merged - 1)
        axes.append(_quad.Axis1D(radial.mapping, radial.params, radial.nodes, weights))
    axes += [_quad.angle_axis(count) for count in angle_counts]
    axes.append(_quad.tan_axis(rules.t_scale, rules.t_panels, rules.t_order))
    if height_beta is not None:
        axes.append(
            _quad.power_tail_axis(
                height_beta,
                split=rules.h_split,
                panels=rules.h_panels,
                order=rules.h_order,
                tail_panels=rules.h_tail_panels,
                tail_order=rules.h_tail_order,
            )
        )
    return axes


def _gram_anchors(functions) -> ChartAnchors | None:
    """The union of the functions' anchors; ``None`` if one declares none."""
    anchors = [getattr(F, "chart_anchors", None) for F in functions]
    if any(a is None for a in anchors):
        return None
    return reduce(ChartAnchors.union, anchors)


def _rotation_to_first_slot(v: np.ndarray) -> np.ndarray:
    """A unitary ``U`` with ``U v = e_1`` for a unit vector ``v``: a
    Householder reflection times a phase."""
    phase = v[0] / abs(v[0]) if v[0] != 0 else 1.0
    w = v.copy()
    w[0] += phase
    reflection = np.eye(len(v)) - 2.0 * np.outer(w, w.conj()) / np.vdot(w, w).real
    return -np.conj(phase) * reflection


def _anchor_frame(anchors: ChartAnchors, n: int):
    """``(frame, zero_slots)``: the map that carries the canonical positions
    of the anchors to their chart positions (``None`` for the identity), and
    the lateral slots where every canonical position is 0; ``None`` for three
    or more positions, which keep the chart's own grid.

    One position is translated to (0, 0).  Two are translated so that their
    lateral midpoint and then their t-midpoint are 0; unless a monomial
    factor is present, a rotation then turns their separation into slot 1,
    the position with the larger t onto the positive axis.  Translations and
    rotations fix the height and have unit Jacobian.
    """
    # A fixed order of the positions makes the frame independent of the
    # order of the functions.
    positions = sorted(anchors.positions, key=lambda p: (p[1], [(c.real, c.imag) for c in p[0]]))
    if len(positions) > 2:
        return None
    if len(positions) < 2:
        if not positions or (not any(positions[0][0]) and positions[0][1] == 0.0):
            return None, set(range(n))
        z, t = positions[0]
        return HeisenbergTranslation(HeisenbergElement(np.asarray(z), t)), set(range(n))
    (z1, t1), (z2, t2) = ((np.asarray(z, dtype=np.complex128), t) for z, t in positions)
    mid = 0.5 * (z1 + z2)
    # The times after the translation by [-mid, 0].
    s1 = t1 + 0.5 * float(np.vdot(mid, z1).imag)
    s2 = t2 + 0.5 * float(np.vdot(mid, z2).imag)
    half = 0.5 * (z1 - z2)
    translation = HeisenbergTranslation(HeisenbergElement(mid, 0.5 * (s1 + s2)))
    if any(anchors.degrees) or not half.any():
        return translation, {j for j in range(n) if half[j] == 0}
    lead = half if s1 >= s2 else -half
    rotation = _rotation_to_first_slot(lead / np.linalg.norm(lead))
    return Composition((translation, Unitary(rotation.conj().T))), set(range(1, n))


@dataclass(frozen=True)
class _ChartLayout:
    """A chart grid: its axes (see :func:`_volume_axes`), the lateral slots
    with polar axes, the slots that share one radial axis, the frame that
    carries grid points to the functions' chart, and a label of the axes."""

    axes: tuple
    polar: tuple[int, ...]
    merged: tuple[int, ...]
    frame: object
    label: str

    def chart_points(self, block: Sequence[np.ndarray], n: int):
        """Lateral components and times of a block of grid coordinates in the
        functions' chart; a merged slot group sits at ``z = (r, 0, ...)``."""
        polar = len(self.polar)
        radial = polar + bool(self.merged)
        z_components = [0j] * n
        for k, slot in enumerate(self.polar):
            z_components[slot] = block[k] * np.exp(1j * block[radial + k])
        if self.merged:
            z_components[self.merged[0]] = block[polar]
        t = block[radial + polar]
        if self.frame is None:
            return z_components, t
        return move_parts(self.frame, z_components, t)


def _chart_layout(functions, n: int, height_beta: float | None, rules: ChartNormRules) -> _ChartLayout:
    """The grid of a chart pass over ``functions``, reduced by their anchors.

    In the anchor frame a slot where every position is 0 enters the values
    only through ``|z_j|``, up to monomials of known degree.  Such slots
    without monomials merge into one radial axis; a slot with monomials of
    degree at most D keeps ``min(angle_count, D + 1)`` angles, for which the
    periodic rule is exact.  Functions that declare no anchors, and three or
    more positions, keep the chart's own grid.
    """
    anchors = _gram_anchors(functions)
    framed = None if anchors is None else _anchor_frame(anchors, n)
    frame, zero = framed or (None, set())
    merged = tuple(j for j in sorted(zero) if anchors.degrees[j] == 0)
    polar = tuple(j for j in range(n) if j not in merged)
    counts = [min(rules.angle_count, anchors.degrees[j] + 1) if j in zero else rules.angle_count for j in polar]
    radial = f"radial {rules.radial_panels}x{rules.radial_order}"
    parts = [radial, "angles " + "/".join(str(c) for c in sorted(set(counts), reverse=True))] if polar else []
    parts += [f"{radial} merged"] if merged else []
    parts += [f"t {rules.t_panels}x{rules.t_order}", f"h-tail {rules.h_tail_panels}x{rules.h_tail_order}"]
    if anchors is None:
        prefix = ""
    elif framed is None:
        prefix = f"frame none ({len(anchors.positions)} anchors): "
    else:
        prefix = f"frame {len(anchors.positions)} anchor{'' if len(anchors.positions) == 1 else 's'}: "
    axes = _volume_axes(n, height_beta, rules, counts, len(merged))
    return _ChartLayout(tuple(axes), polar, merged, frame, "chart " + prefix + ", ".join(parts))


#: Points per streamed block of a chart grid.  At 2**17 points one complex
#: temporary of a block takes 2 MB, so the block's ufuncs run from cache and a
#: chart pass needs the same memory whatever the rule's total size; smaller
#: blocks slow the suite's two worker threads, which then contend for the GIL
#: between short ufunc calls.
_BLOCK_POINTS = 131_072


def _accumulate(gram: np.ndarray, weights, values: Sequence[np.ndarray]) -> None:
    """Add ``sum(weights * f_j * conj(f_k))`` to ``gram[j, k]``.

    Each sum is an unoptimized ``einsum`` (no BLAS, no full-block temporary)
    over the real and imaginary views of the values, broadcast to the block.
    A diagonal entry takes only the real contraction, and both imaginary
    contractions multiply (imaginary, real, weight) factors, so ``<f, f>`` has
    an imaginary part of exactly zero in any slot.
    """
    shape = np.broadcast_shapes(np.shape(weights), *(np.shape(v) for v in values))
    weights = np.broadcast_to(weights, shape)
    values = [np.broadcast_to(np.asarray(v, np.complex128), shape) for v in values]
    axes = "abcdefghijklmnopqrstuvwxyz"[: len(shape)]
    subscripts = f"{axes},{axes},{axes}->"

    def dot(x, y):
        return float(np.einsum(subscripts, x, y, weights))

    for j, a in enumerate(values):
        for k in range(j, len(values)):
            b = values[k]
            re = dot(a.real, b.real) + dot(a.imag, b.imag)
            im = 0.0 if k == j else dot(a.imag, b.real) - dot(b.imag, a.real)
            gram[j, k] += complex(re, im)
            if k != j:
                gram[k, j] += complex(re, -im)


def _chart_gram(
    functions, n: int, height_beta: float | None, rules: ChartNormRules, fixed_height: float | None = None,
    total: bool = False,
) -> np.ndarray:
    """Weighted Gram matrix ``M[j, k] = sum w f_j conj(f_k)`` over the chart
    grid, in one pass over blocks of at most ``_BLOCK_POINTS`` points: each
    block evaluates every function once, and the center's pairing power once
    for all of them (see :class:`_ChartBlock`), and is contracted against its
    tensor weights.  With ``total`` the pass contracts only the functions'
    sum: the 1 x 1 matrix ``||sum_j f_j||^2``, on the same grid.

    A block takes the longest suffix of axes that fits in it whole, a chunk
    of the axis before that suffix, and one node of every earlier axis; a
    grid that fits in one block is one block.
    """
    layout = _chart_layout(functions, n, height_beta, rules)
    axes = layout.axes
    box = _quad.BoxRule(axes)
    if box.point_count > rules.max_points:
        raise InvalidParameterError(
            f"chart rule has {box.point_count} points, over the limit {rules.max_points}; "
            "reduce the per-axis orders (see ChartNormRules.smoke())"
        )
    grids = box.grids()
    sizes = [axis.node_count for axis in axes]
    chunked = len(axes) - 1
    while chunked > 0 and math.prod(sizes[chunked:]) <= _BLOCK_POINTS:
        chunked -= 1
    tail_weights = reduce(np.multiply.outer, [axis.weights for axis in axes[chunked + 1 :]], np.ones(()))
    step = max(1, _BLOCK_POINTS // tail_weights.size)
    column = (-1,) + (1,) * tail_weights.ndim
    count = 1 if total else len(functions)
    gram = np.zeros((count, count), dtype=np.complex128)
    for lead in itertools.product(*(range(size) for size in sizes[:chunked])):
        lead_weight = math.prod(float(axis.weights[i]) for axis, i in zip(axes, lead))
        for start in range(0, sizes[chunked], step):
            index = [slice(i, i + 1) for i in lead] + [slice(start, start + step)]
            block = [
                grid[(slice(None),) * i + (index[i],)] if i <= chunked else grid
                for i, grid in enumerate(grids)
            ]
            z_components, t = layout.chart_points(block, n)
            h_grid = block[-1] if height_beta is not None else fixed_height
            weights = lead_weight * axes[chunked].weights[start : start + step].reshape(column) * tail_weights
            chart_block = _ChartBlock(z_components, t, h_grid)
            values = [np.asarray(_block_values(F, chart_block)) for F in functions]
            del chart_block  # frees the shared center power before the contraction
            _accumulate(gram, weights, [reduce(np.add, values)] if total else values)
    return gram


def _checked_gram(
    functions, n: int, height_beta: float | None, rules: ChartNormRules, fixed_height: float | None = None
) -> np.ndarray:
    """Chart Gram matrix with the tail-drift guard on the squared norm of the
    functions' sum: ``sum_jk M[j, k]`` of the base pass against
    ``||sum_j f_j||^2`` of a stretched pass, which contracts only that sum
    (one entry, not the whole matrix)."""
    gram = _chart_gram(functions, n, height_beta, rules, fixed_height)
    if not rules.check_tails:
        return gram
    stretched = _chart_gram(functions, n, height_beta, rules.stretched(), fixed_height, total=True)
    value, stretched_value = float(gram.sum().real), float(stretched[0, 0].real)
    drift = abs(stretched_value - value) / max(abs(value), abs(stretched_value), 1e-300)
    if drift > rules.drift_tolerance:
        if stretched_value > value * (1.0 + rules.drift_tolerance):
            raise DivergentIntegralError(
                "chart integral grows as the far-field panels are pushed outward "
                f"(drift {drift:.3e}); the norm diverges for this function/space pair"
            )
        raise UnderResolvedError(
            f"chart integral unresolved: far-field stretch moved the value by {drift:.3e}"
        )
    return gram


def _slice_grams(functions: Sequence, rules: ChartNormRules) -> list[tuple[float, np.ndarray]]:
    if rules.hardy_levels < 2:
        raise InvalidParameterError("need at least two slice levels")
    out = []
    for k in range(rules.hardy_levels):
        height = rules.hardy_start_height * 2.0**-k
        slice_rules = rules if k == 0 else replace(rules, check_tails=False)
        out.append((height, _checked_gram(functions, functions[0].n, None, slice_rules, height)))
    return out


def hardy_slice_norms(F, rules: ChartNormRules | None = None) -> list[tuple[float, float]]:
    """Squared slice norms on a geometrically shrinking ladder of heights.

    Returns ``(height, squared slice norm)`` pairs with the height halved at
    each step; for functions with a boundary-limit norm the values increase
    as the height shrinks and converge to the squared norm.
    """
    return [(height, float(gram[0, 0].real)) for height, gram in _slice_grams([F], rules or ChartNormRules())]


def _richardson_limit(slice_values: Sequence):
    """Richardson limit of values at halving heights, for real slice norms or
    complex Gram matrices; it multiplies by the reciprocal of ``factor - 1``,
    as NumPy's complex division does, so both give the same bits."""
    table = [list(slice_values)]
    level = len(slice_values)
    for j in range(1, level):
        prev = table[j - 1]
        factor = 2.0**j
        table.append(
            [(factor * prev[i] - prev[i - 1]) * (1.0 / (factor - 1.0)) for i in range(1, len(prev))]
        )
    return table[-1][-1]


def space_gram(functions: Sequence, tag: SpaceTag, rules: ChartNormRules | None = None) -> np.ndarray:
    """Gram matrix ``M[j, k] = <F_j, F_k>`` of chart-evaluable functions in
    the tagged holomorphic space, by tensor-product chart quadrature.

    Volume-type tags integrate products of the order-``m`` height derivatives
    against the height weight; the endpoint tag adds the product of the values
    at the distinguished center; the boundary-limit tag extrapolates the Gram
    matrices of shrinking height slices (Richardson, linear, entry by entry).
    """
    if not functions or not all(hasattr(F, "chart_values") for F in functions):
        raise InvalidParameterError(
            "F must be chart-evaluable (ProfileFunction or PointwiseFunction)"
        )
    rules = rules or ChartNormRules()
    n = functions[0].n
    height_beta, order, _, add_center = _tag_data(tag, n)
    if isinstance(tag, Hardy):
        return _richardson_limit([gram for _, gram in _slice_grams(functions, rules)])
    derived = [F.height_derivative(order) if order else F for F in functions]
    gram = _checked_gram(derived, n, height_beta, rules)
    if add_center:
        center = [np.asarray(0.0 + 0.0j) for _ in range(n)]
        _accumulate(gram, 1.0, [np.asarray(F.chart_values(center, 0.0, 1.0)) for F in functions])
    return gram


def space_norm_sq(F, tag: SpaceTag, rules: ChartNormRules | None = None) -> float:
    """Squared norm of a chart-evaluable function in the tagged holomorphic
    space: the one-function case of :func:`space_gram`."""
    return float(space_gram([F], tag, rules)[0, 0].real)


# --------------------------------------------------------------------------
# JSON interfaces
# --------------------------------------------------------------------------


def profile_to_json(profile: SpectralProfile) -> dict:
    if isinstance(profile, KernelProfile):
        return {
            "family": "kernel",
            "nu": profile.nu,
            "m": profile.m,
            "base": point_to_json(profile.base),
        }
    if isinstance(profile, DirichletKernelProfile):
        return {"family": "dirichlet", "m": profile.m, "base": point_to_json(profile.base)}
    if isinstance(profile, FiniteProfile):
        terms = []
        for term in profile.terms:
            terms.append(
                {
                    "alpha": list(term.alpha),
                    "profile": {
                        "power": term.power,
                        "decay": term.decay,
                        "coeff": [term.coefficient.real, term.coefficient.imag],
                    },
                }
            )
        return {"family": "finite", "n": profile.n, "terms": terms}
    if isinstance(profile, DerivedProfile):
        return {
            "family": "derived",
            "order": profile.order,
            "base": profile_to_json(profile.base),
        }
    raise InvalidParameterError(f"no JSON form for profile type {type(profile).__name__}")


def profile_from_json(doc: dict) -> SpectralProfile:
    try:
        family = doc["family"]
    except (TypeError, KeyError) as exc:
        raise InvalidParameterError("profile document needs a 'family' key") from exc
    if family == "kernel":
        base = point_from_json(doc["base"])
        return KernelProfile(base.n, float(doc["nu"]), base, int(doc.get("m", 0)))
    if family == "dirichlet":
        base = point_from_json(doc["base"])
        return DirichletKernelProfile(base.n, int(doc["m"]), base)
    if family == "finite":
        terms = []
        for item in doc.get("terms", []):
            radial = item.get("profile", {})
            coeff = radial.get("coeff", [1.0, 0.0])
            terms.append(
                FiniteTerm(
                    _fock.MultiIndex(item["alpha"]),
                    complex(coeff[0], coeff[1]),
                    float(radial.get("power", 0.0)),
                    float(radial.get("decay", 1.0)),
                )
            )
        return FiniteProfile(int(doc["n"]), tuple(terms))
    if family == "derived":
        return DerivedProfile(profile_from_json(doc["base"]), int(doc["order"]))
    raise InvalidParameterError(f"unknown profile family {family!r}")
