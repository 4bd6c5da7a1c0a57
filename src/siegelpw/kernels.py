"""Closed-form reproducing kernels on the half-space and the unit ball.

Every holomorphic space handled by this package (boundary-pairing,
weighted-volume, derivative-weighted, and logarithmic-endpoint on the
half-space; logarithmic on the unit ball) has a reproducing kernel that is a
power or a logarithm of one Hermitian pairing; a half-space kernel is named
by its space's descriptor from :mod:`siegelpw.spectral`.  This module
evaluates those kernels with principal-branch bookkeeping, carries every
normalization as an exact :class:`~siegelpw.gammaexpr.GammaExpression`, and
packages the checks the verification suites are built from:

* reproducing-property checks, by the spectral transform or by a direct
  chart-quadrature inner product,
* the renormalized invariance identity of the dotted logarithmic kernel
  under half-space automorphisms,
* the ball/half-space transfer comparison through the rational ball map,
* Gram entries computed three ways (chart quadrature, spectral pairing,
  closed-form kernel) and Gram matrices,
* the closed-form constant of the weighted pairing-power integral, with
  nested-quadrature and Monte Carlo cross-checks, and the report-only
  difference-integral growth ratio, whose integral is read in closed form
  from the diagonal of the dotted logarithmic kernel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .errors import DivergentIntegralError, InvalidParameterError, KernelDomainError
from .gammaexpr import (
    GammaExpression,
    ball_dirichlet_constant,
    bergman_constant,
    dirichlet_log_constant,
    szego_constant,
    weighted_dirichlet_constant,
)
from .siegel import (
    BallPoint,
    SiegelPoint,
    apply,
    base_point,
    cayley,
    classify,
    pairing_parts,
    rho,
)
from .quadrature import monte_carlo, power_ratio_integral
from . import spectral as sp

__all__ = [
    "Szego",
    "Bergman",
    "WeightedDirichlet",
    "DirichletLog",
    "BallDirichlet",
    "KernelId",
    "kernel_constant",
    "q_pairing",
    "kernel_eval",
    "kernel_profile",
    "kernel_slice",
    "space_tag_for",
    "FunctionCombination",
    "KERNEL_QUADRATURE_RULES",
    "space_inner_product",
    "chart_entry",
    "spectral_entry",
    "kernel_entry",
    "reproducing_check",
    "mobius_invariance_check",
    "cayley_transfer_check",
    "gram_matrix",
    "q_power_integral_constant",
    "q_power_integral_nested",
    "q_power_integral_mc",
    "DifferenceIntegralReport",
    "difference_integral_ratio",
]


# ---------------------------------------------------------------------------
# Kernel identifiers
# ---------------------------------------------------------------------------


#: The half-space kernel ids are the space descriptors of
#: :mod:`siegelpw.spectral`: each descriptor names one space, its norm and its
#: reproducing kernel.  ``DruryArveson(m)`` at dimension ``n`` has the kernel of
#: ``WeightedDirichlet(-(n+1), m)``.
Szego = sp.Hardy
Bergman = sp.Bergman
WeightedDirichlet = sp.WeightedDirichlet
DirichletLog = sp.Dirichlet


@dataclass(frozen=True)
class BallDirichlet:
    """Logarithmic kernel of the unit ball: constant times
    ``log(1/(1 - <omega, zeta>))`` in the full Hermitian inner product."""


KernelId = Union[sp.SpaceTag, BallDirichlet]


def _validate_dimension(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidParameterError(f"lateral dimension must be a positive integer, got {n!r}")


def kernel_constant(kid: KernelId, n: int) -> GammaExpression:
    """Exact normalization constant of the kernel in lateral dimension ``n``, cached."""
    _validate_dimension(n)
    return _kernel_constant(kid, n)


@lru_cache(maxsize=512)
def _kernel_constant(kid: KernelId, n: int) -> GammaExpression:
    if isinstance(kid, BallDirichlet):
        return ball_dirichlet_constant(n)
    weight = sp.spectral_weight(kid, n)
    if isinstance(kid, Szego):
        return szego_constant(n)
    if isinstance(kid, Bergman):
        return bergman_constant(n, weight)
    if isinstance(kid, DirichletLog):
        return dirichlet_log_constant(n, kid.m)
    return weighted_dirichlet_constant(n, kid.m, weight)


# ---------------------------------------------------------------------------
# The Hermitian pairing
# ---------------------------------------------------------------------------


def q_pairing(first: SiegelPoint, second: SiegelPoint) -> complex:
    """Hermitian pairing whose diagonal is the defining height.

    Holomorphic in ``first``, conjugate-holomorphic in ``second``;
    ``q_pairing(p, p) == rho(p)`` up to rounding, and swapping the arguments
    conjugates the value exactly.  Its real part is positive whenever the
    total height of the pair is positive.
    """
    if not isinstance(first, SiegelPoint) or not isinstance(second, SiegelPoint):
        raise InvalidParameterError("the pairing expects two half-space points")
    if first.n != second.n:
        raise InvalidParameterError(
            f"points live in different dimensions ({first.n} and {second.n})"
        )
    return 0.5 * complex(*pairing_parts(first.z, first.t, first.h, second))


# ---------------------------------------------------------------------------
# Kernel evaluation
# ---------------------------------------------------------------------------


def _require_half_space_pair(kid, first, second) -> None:
    if not isinstance(first, SiegelPoint) or not isinstance(second, SiegelPoint):
        raise InvalidParameterError(
            f"{type(kid).__name__} is a half-space kernel and expects half-space points"
        )
    if first.n != second.n:
        raise InvalidParameterError(
            f"points live in different dimensions ({first.n} and {second.n})"
        )
    if isinstance(kid, Szego):
        for p in (first, second):
            if classify(p) == "exterior":
                raise KernelDomainError(
                    "boundary-pairing kernel needs points of the closed half-space"
                )
        if not rho(first) + rho(second) > 0.0:
            raise KernelDomainError(
                "boundary-pairing kernel needs positive total height for the pair"
            )
        return
    for p in (first, second):
        if classify(p) != "interior":
            raise KernelDomainError(
                f"{type(kid).__name__} kernel is defined for interior points only"
            )


def _log_ratio(q_first: complex, q_second: complex, q_cross: complex, tracking: bool) -> complex:
    if q_first == 0 or q_second == 0 or q_cross == 0:
        raise KernelDomainError("the pairing vanished; the pair is outside the kernel domain")
    if tracking:
        # Each factor stays in the right half-plane on the domain, so the
        # per-factor principal logarithms form a continuous branch of the
        # combined logarithm.
        return cmath.log(q_first) + cmath.log(q_second) - cmath.log(q_cross)
    ratio = q_first * q_second / q_cross
    if ratio.real <= 0:
        raise KernelDomainError(
            "principal-branch ambiguity: the pairing ratio left the right "
            "half-plane; evaluate with continuity tracking instead"
        )
    return cmath.log(ratio)


def _ball_eval(first, second) -> complex:
    if not isinstance(first, BallPoint) or not isinstance(second, BallPoint):
        raise InvalidParameterError("the ball kernel expects two unit-ball points")
    if first.n != second.n:
        raise InvalidParameterError(
            f"ball points live in different dimensions ({first.n} and {second.n})"
        )
    if first.n < 1:
        raise InvalidParameterError("the ball kernel needs at least two complex coordinates")
    inner = complex(np.sum(first.omega * np.conj(second.omega)))
    # |inner| < 1 for interior points, so 1 - inner stays in the right
    # half-plane and the principal logarithm is branch-safe.
    return ball_dirichlet_constant(first.n).value * (-cmath.log(1.0 - inner))


def kernel_eval(kid: KernelId, first, second, *, tracking: bool = True) -> complex:
    """Evaluate the kernel, holomorphic in ``first`` and conjugate-holomorphic
    in ``second``.

    Power kernels use the principal power of the pairing, which is safe
    because the pairing has positive real part on the admissible pairs.  The
    logarithmic kernel combines three pairing logarithms; with ``tracking``
    (the default) each factor gets its own principal logarithm, which is a
    continuous branch on the whole domain.  ``tracking=False`` takes a single
    principal logarithm of the combined ratio and raises
    :class:`~siegelpw.errors.KernelDomainError` if the ratio leaves the right
    half-plane.
    """
    if isinstance(kid, BallDirichlet):
        return _ball_eval(first, second)
    _require_half_space_pair(kid, first, second)
    n = first.n
    constant = kernel_constant(kid, n).value
    if isinstance(kid, DirichletLog):
        center = base_point(n)
        value = constant * _log_ratio(
            q_pairing(first, center),
            q_pairing(center, second),
            q_pairing(first, second),
            tracking,
        )
        if not kid.dotted:
            value += 1.0
        return value
    q = q_pairing(first, second)
    if q == 0:
        raise KernelDomainError("the pairing vanished; the pair is outside the kernel domain")
    if q.real <= 0:
        raise KernelDomainError(
            "the pairing left the right half-plane; the pair is outside the kernel domain"
        )
    exponent = n + 2.0 + sp.spectral_weight(kid, n)
    return constant * cmath.exp(-exponent * cmath.log(q))


# ---------------------------------------------------------------------------
# Kernel slices as chart-evaluable functions
# ---------------------------------------------------------------------------


def kernel_profile(kid: KernelId, base: SiegelPoint):
    """Spectral profile whose synthesis is the kernel slice ``K(., base)``."""
    if isinstance(kid, BallDirichlet):
        raise InvalidParameterError("the ball kernel has no half-space spectral profile")
    if not isinstance(base, SiegelPoint):
        raise InvalidParameterError("kernel slices are anchored at half-space points")
    n = base.n
    weight = sp.spectral_weight(kid, n)
    if isinstance(kid, DirichletLog):
        return sp.DirichletKernelProfile(n, kid.m, base)
    return sp.KernelProfile(n, weight, base, getattr(kid, "m", 0))


def kernel_slice(kid: KernelId, base: SiegelPoint) -> sp.ProfileFunction:
    """Chart-evaluable kernel slice ``K(., base)`` (full logarithmic slices
    carry their constant term; dotted ones vanish at the center)."""
    profile = kernel_profile(kid, base)
    constant = 1.0 if isinstance(kid, DirichletLog) and not kid.dotted else 0.0
    return sp.ProfileFunction(profile, constant)


def space_tag_for(kid: KernelId):
    """Norm tag of the holomorphic space the kernel reproduces: the kernel id
    itself, since both are the same descriptor."""
    if isinstance(kid, BallDirichlet):
        raise InvalidParameterError("the ball kernel has no half-space norm tag")
    return kid


# ---------------------------------------------------------------------------
# Linear combinations and chart inner products
# ---------------------------------------------------------------------------

#: Quadrature layout for products of kernel slices anchored at different
#: points: such products spread further along the transverse and far-height
#: directions than a single slice, so those axes carry extra panels.
KERNEL_QUADRATURE_RULES = sp.ChartNormRules(
    radial_panels=4,
    radial_order=16,
    t_panels=7,
    t_order=16,
    h_tail_panels=5,
    h_tail_order=16,
)


@dataclass(frozen=True)
class FunctionCombination:
    """Finite linear combination of chart-evaluable functions.

    Behaves like a single chart-evaluable function (``n``, ``chart_values``,
    ``height_derivative``), so norm routines accept it directly; height
    derivatives distribute across the terms.
    """

    terms: tuple

    def __post_init__(self) -> None:
        try:
            terms = tuple((complex(c), f) for c, f in self.terms)
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(
                "terms must be (coefficient, function) pairs"
            ) from exc
        if not terms:
            raise InvalidParameterError("a function combination needs at least one term")
        dims = {f.n for _, f in terms}
        if len(dims) != 1:
            raise InvalidParameterError("combination terms live in different dimensions")
        object.__setattr__(self, "terms", terms)

    @property
    def n(self) -> int:
        return self.terms[0][1].n

    @property
    def chart_anchors(self) -> sp.ChartAnchors | None:
        """The union of the terms' anchors, with the largest degree per slot;
        ``None`` if a term declares none."""
        return sp._gram_anchors([f for _, f in self.terms])

    def chart_values(self, z_components, t, h):
        return self.block_values(sp._ChartBlock(z_components, t, h))

    def block_values(self, block):
        """Values on a chart block, sharing the block's pairing powers with
        every other function of the pass."""
        return sp._combination_values(self.terms, block)

    def height_derivative(self, order: int) -> "FunctionCombination":
        if order == 0:
            return self
        return FunctionCombination(
            tuple((c, f.height_derivative(order)) for c, f in self.terms)
        )


def space_inner_product(F, G, tag, rules: sp.ChartNormRules | None = None) -> complex:
    """Inner product ``<F, G>`` in the tagged space, linear in ``F`` and
    conjugate-linear in ``G``: the off-diagonal entry of the pair's Gram matrix
    (:func:`siegelpw.spectral.space_gram`).  One streamed chart pass evaluates
    each function once per grid block, and the center's pairing power once
    for both; the tail-drift guard adds a stretched pass that contracts only ``F + G`` and
    compares ``||F + G||^2`` with the sum of the base pass's Gram matrix.
    """
    return complex(sp.space_gram([F, G], tag, rules or KERNEL_QUADRATURE_RULES)[0, 1])


# ---------------------------------------------------------------------------
# One Gram entry, three ways
# ---------------------------------------------------------------------------
#
# Each method returns the entry ``<F_j, F_k>``, ``entry = (j, k)``, of the
# Gram matrix of ``functions`` in the space ``tag`` (real on the diagonal);
# all take the chart's ``rules`` so that a caller can swap them.
# The functions are the tag's kernel slices (:func:`kernel_slice`) or
# constants (an empty finite field plus a constant), and on the kernel side's
# diagonal also a combination of slices.


def _is_constant(F) -> bool:
    """Whether ``F`` is a constant: an empty finite field plus its constant."""
    return isinstance(F, sp.ProfileFunction) and isinstance(F.profile, sp.FiniteProfile) and not F.profile.terms


def chart_entry(functions, tag, entry=(0, 0), rules: sp.ChartNormRules | None = None):
    """By tensor-product chart quadrature over the two functions the entry
    pairs (:func:`siegelpw.spectral.space_norm_sq` on the diagonal).

    Off the diagonal, in a space that pairs height derivatives of order
    >= 1, a constant on either side has an identically zero derivative, so
    the entry is the product of the center values alone (0 outside the
    endpoint space) and no pass runs.  The other function is then not
    checked for membership in the space: no tail-drift guard runs either."""
    F, G = functions[entry[0]], functions[entry[1]]
    if entry[0] == entry[1]:
        return sp.space_norm_sq(F, tag, rules)
    _, order, _, add_center = sp._tag_data(tag, F.n)
    if not (order and (_is_constant(F) or _is_constant(G))):
        return space_inner_product(F, G, tag, rules)
    if not add_center:
        return 0j
    center = [np.asarray(0.0 + 0.0j) for _ in range(F.n)]
    return complex(F.chart_values(center, 0.0, 1.0) * np.conj(G.chart_values(center, 0.0, 1.0)))


def spectral_entry(functions, tag, entry=(0, 0), rules=None):
    """By the Paley–Wiener identity: the norm-identity constant times the
    weighted spectral pairing of the two fields, plus the product of their
    values at the distinguished center in the endpoint space (the constants
    of full logarithmic slices)."""
    j, k = entry
    F, G = functions[j], functions[k]
    weight = sp.spectral_weight(tag, F.n)
    value = sp.norm_identity_constant(tag, F.n).value * sp.l2nu_inner_product(F.profile, G.profile, weight)
    if isinstance(tag, DirichletLog):
        value += F.constant * G.constant.conjugate()
    return value.real if j == k else value


def kernel_entry(functions, tag, entry=(0, 0), rules=None):
    """By the reproducing property ``<F, K(., p)> = F(p)`` for the slice
    ``F_k`` at ``p``: the closed-form ``K(p, q)`` for a slice ``F_j`` at
    ``q``, a constant's value, and ``conj(a) G a`` over the Gram matrix of
    the points for a combination ``sum a_i K(., p_i)`` on the diagonal."""
    j, k = entry
    F = functions[j]
    if isinstance(F, FunctionCombination):
        coeffs = np.asarray([c for c, _ in F.terms], dtype=np.complex128)
        value = complex(np.conj(coeffs) @ gram_matrix(tag, [f.profile.base for _, f in F.terms]) @ coeffs)
        if value.real <= 0.0:
            raise InvalidParameterError("the Gram value degenerated; pick independent points")
        return value.real
    if _is_constant(F):
        return F.constant
    value = kernel_eval(tag, functions[k].profile.base, F.profile.base)
    return value.real if j == k else value


def reproducing_check(
    kid: KernelId,
    zeta: SiegelPoint,
    omega0: SiegelPoint,
    *,
    method: str = "spectral",
    rules: sp.ChartNormRules | None = None,
) -> float:
    """Relative error of the reproducing identity
    ``<K(., omega0), K(., zeta)> = K(zeta, omega0)`` in the kernel's space.

    ``method='spectral'`` pairs the two slice transforms on the spectral
    side in closed form (:func:`spectral_entry`); ``method='quadrature'``
    takes the chart-quadrature inner product (:func:`chart_entry`, ``rules``
    defaulting to :data:`KERNEL_QUADRATURE_RULES`).
    """
    if method not in ("spectral", "quadrature"):
        raise InvalidParameterError("method must be 'spectral' or 'quadrature'")
    if not isinstance(zeta, SiegelPoint) or not isinstance(omega0, SiegelPoint):
        raise InvalidParameterError("the reproducing check expects half-space points")
    for p in (zeta, omega0):
        if classify(p) != "interior":
            raise KernelDomainError("kernel slices belong to the space for interior anchors only")
    slices = [kernel_slice(kid, omega0), kernel_slice(kid, zeta)]
    expected = kernel_entry(slices, kid, (0, 1))
    value = (spectral_entry if method == "spectral" else chart_entry)(slices, kid, (0, 1), rules)
    return abs(value - expected) / abs(expected)


# ---------------------------------------------------------------------------
# Invariance and transfer checks
# ---------------------------------------------------------------------------


def mobius_invariance_check(phi, first: SiegelPoint, second: SiegelPoint, *, m: int = 2) -> float:
    """Relative defect of the renormalized invariance identity of the dotted
    logarithmic kernel under a half-space automorphism:

    ``Kdot(z, w) = Kdot(pz, pw) - Kdot(pz, pc) - Kdot(pc, pw) + Kdot(pc, pc)``

    where ``p`` prefixes the image under ``phi`` and ``c`` is the
    distinguished center.  The four-term combination cancels the anchoring of
    the kernel at the center, so the identity is exact for every automorphism.
    """
    kid = DirichletLog(m, dotted=True)
    n = first.n
    center = base_point(n)
    lhs = kernel_eval(kid, first, second)
    p_first = apply(phi, first)
    p_second = apply(phi, second)
    p_center = apply(phi, center)
    rhs = (
        kernel_eval(kid, p_first, p_second)
        - kernel_eval(kid, p_first, p_center)
        - kernel_eval(kid, p_center, p_second)
        + kernel_eval(kid, p_center, p_center)
    )
    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale


def cayley_transfer_check(first: BallPoint, second: BallPoint, *, m: int = 2) -> float:
    """Relative error of the ball/half-space kernel transfer through the
    rational ball map.

    The ball kernel and the dotted logarithmic kernel at the image pair are
    proportional logarithms of the same quantity, so comparing their
    exponentials (each scaled by its own constant) removes the branch
    bookkeeping entirely: both sides must equal ``1/(1 - <omega, zeta>)``.
    """
    if not isinstance(first, BallPoint) or not isinstance(second, BallPoint):
        raise InvalidParameterError("the transfer check expects two unit-ball points")
    if first.n != second.n:
        raise InvalidParameterError(
            f"ball points live in different dimensions ({first.n} and {second.n})"
        )
    n = first.n
    ball_value = kernel_eval(BallDirichlet(), first, second)
    half_value = kernel_eval(DirichletLog(m, dotted=True), cayley(first), cayley(second))
    ball_scale = ball_dirichlet_constant(n).value
    half_scale = kernel_constant(DirichletLog(m), n).value
    lhs = cmath.exp(ball_value / ball_scale)
    rhs = cmath.exp(half_value / half_scale)
    return abs(lhs - rhs) / abs(lhs)


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


def gram_matrix(kid: KernelId, points: Sequence) -> np.ndarray:
    """Hermitian Gram matrix ``G[j, k] = K(p_j, p_k)``; positive
    semidefinite because the kernel reproduces its space."""
    pts = list(points)
    if not pts:
        raise InvalidParameterError("a Gram matrix needs at least one point")
    size = len(pts)
    out = np.empty((size, size), dtype=np.complex128)
    for j in range(size):
        out[j, j] = kernel_eval(kid, pts[j], pts[j])
        for k in range(j + 1, size):
            out[j, k] = kernel_eval(kid, pts[j], pts[k])
            out[k, j] = np.conj(out[j, k])
    return out


# ---------------------------------------------------------------------------
# The weighted pairing-power integral
# ---------------------------------------------------------------------------


def _validate_power_exponents(a: float, b: float) -> tuple[float, float]:
    a = float(a)
    b = float(b)
    if not a > -1.0:
        raise DivergentIntegralError(
            f"height weight exponent {a} makes the boundary factor non-integrable (need a > -1)"
        )
    if not b > 0.0:
        raise DivergentIntegralError(
            f"decay budget {b} leaves a divergent far tail (need b > 0)"
        )
    return a, b


def q_power_integral_constant(a: float, b: float, n: int) -> GammaExpression:
    """Closed-form constant ``C`` of the weighted pairing-power integral

    ``integral over the half-space of height(w)^a * |q_pairing(zeta, w)|^(-(a+b+n+2)) dV(w)
    = C * height(zeta)^(-b)``

    for every interior ``zeta``.  The boundary-distance weight needs
    ``a > -1`` and the far tail needs ``b > 0``; outside that range the
    integral diverges and :class:`~siegelpw.errors.DivergentIntegralError`
    is raised.
    """
    _validate_dimension(n)
    a, b = _validate_power_exponents(a, b)
    half_g = 0.5 * (a + b + n + 2.0)
    return GammaExpression(
        two_exp=Fraction(2 * (n + 1)),
        pi_exp=Fraction(n + 1),
        gamma_num=(a + 1.0, b),
        gamma_den=(half_g, half_g),
    )


def q_power_integral_nested(
    a: float,
    b: float,
    n: int,
    *,
    height: float = 1.0,
    node_count: int = 48,
) -> float:
    """The same integral evaluated by nested one-dimensional quadrature of
    its exact measure reduction (no Gamma/Beta identities), at the axis point
    with the given height.  Returns the full integral value, i.e. the
    constant times ``height**(-b)``.

    Reduction chain, every step an elementary substitution: the boundary
    coordinate scales out against the real part of the pairing; the lateral
    integral goes to polar form (exact sphere factor) and the quarter-square
    substitution; scaling the height coordinate by the shifted radial one
    separates the remaining double integral.  Each surviving factor is a
    half-line power-ratio integral, evaluated by
    :func:`~siegelpw.quadrature.power_ratio_integral` with no truncation.
    """
    _validate_dimension(n)
    a, b = _validate_power_exponents(a, b)
    if not height > 0.0:
        raise InvalidParameterError(f"height must be positive, got {height}")
    g = a + b + n + 2.0
    # Centered slice integral of (A^2 + tau^2)^(-g/2) over the real line,
    # as the square substitution of the symmetric ratio.
    sym_factor = power_ratio_integral(-0.5, 0.5 * g, node_count)
    radial_factor = power_ratio_integral(n - 1.0, g - 2.0 - a, node_count)
    height_factor = power_ratio_integral(a, g - 1.0, node_count)
    sphere_factor = (4.0**n) * (math.pi**n) / math.gamma(n)
    return (
        (2.0**g)
        * sym_factor
        * sphere_factor
        * radial_factor
        * height_factor
        * height ** (-b)
    )


def q_power_integral_mc(
    a: float,
    b: float,
    n: int,
    *,
    zeta: SiegelPoint | None = None,
    sample_count: int = 200_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo cross-check of the weighted pairing-power integral at an
    arbitrary interior ``zeta`` (default: the distinguished center).

    Importance sampling from the integrand's own power-law family: the
    proposal is the normalized integrand with the height exponent ``b``
    halved, drawn exactly through the same chain of substitutions that
    yields the closed-form constant (height and quarter-square radial parts
    are Beta-prime ratios of Gammas, the transverse part a scaled Student
    t).  The importance weights are then bounded by construction —
    independent per-coordinate heavy-tail proposals put too little mass on
    the joint far field, which makes the sample variance infinite and the
    reported standard error untrustworthy.  Returns
    ``(estimate, standard_error)``.
    """
    _validate_dimension(n)
    a, b = _validate_power_exponents(a, b)
    if zeta is None:
        zeta = base_point(n)
    if not isinstance(zeta, SiegelPoint) or zeta.n != n:
        raise InvalidParameterError("zeta must be a half-space point of the given dimension")
    if classify(zeta) != "interior":
        raise KernelDomainError("the integral is anchored at an interior point")
    z0, h0 = zeta.z, zeta.h
    g = a + b + n + 2.0
    b_proposal = 0.5 * b
    g_proposal = a + b_proposal + n + 2.0
    normalizer = q_power_integral_constant(a, b_proposal, n).value * h0 ** (-b_proposal)

    def proposal_density(z_parts, s, k):
        two_q = sp._pairing_form(z_parts, s, k, zeta)
        return (k**a) * (0.5 * np.abs(two_q)) ** (-g_proposal) / normalizer

    def sampler(rng: np.random.Generator, count: int):
        # Height: k/h0 ~ BetaPrime(a+1, b'), the exact k-marginal.
        k = h0 * rng.standard_gamma(a + 1.0, count) / rng.standard_gamma(b_proposal, count)
        # Quarter-square lateral radius: v ~ BetaPrime(n, a+b'+1).
        v = rng.standard_gamma(float(n), count) / rng.standard_gamma(a + b_proposal + 1.0, count)
        radius = 2.0 * np.sqrt((h0 + k) * v)
        direction = rng.normal(size=(2 * n, count))
        direction /= np.linalg.norm(direction, axis=0)
        z_parts = [
            z0[j] + radius * (direction[j] + 1j * direction[n + j]) for j in range(n)
        ]
        # Transverse: (A^2 + s'^2)^(-g'/2) is a Student t with g'-1 degrees
        # of freedom, scaled by A and centered where the pairing is real,
        # which is at s = Im 2q((z, 0, k), zeta).
        scale = (h0 + k) * (1.0 + v)
        dof = g_proposal - 1.0
        offset = scale * rng.standard_t(dof, count) / math.sqrt(dof)
        _, real_at = pairing_parts(z_parts, 0.0, k, zeta)
        s = real_at + offset
        xs = [zp.real for zp in z_parts]
        ys = [zp.imag for zp in z_parts]
        return [*xs, *ys, s, k], proposal_density(z_parts, s, k)

    def integrand(*coords):
        xs = coords[:n]
        ys = coords[n : 2 * n]
        s = coords[2 * n]
        k = coords[2 * n + 1]
        z_parts = [x + 1j * y for x, y in zip(xs, ys)]
        two_q = sp._pairing_form(z_parts, s, k, zeta)
        return (k**a) * (0.5 * np.abs(two_q)) ** (-g)

    estimate, stderr = monte_carlo(sampler, integrand, sample_count, seed)
    return float(estimate.real), stderr


# ---------------------------------------------------------------------------
# Report-only difference-integral growth ratio
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DifferenceIntegralReport:
    """Value of the anchored difference integral, the growth envelope
    ``(1 + |zeta|^2)^(2m+1) / height(zeta)``, and their ratio.  The ratio is
    reported, never asserted: boundedness of the ratio over the domain is the
    open quantitative statement this check only illustrates.

    The integrand is ``(2^m / (C_{n,m} Gamma(m)))^2`` times the squared
    order-``m`` height derivative of the dotted logarithmic kernel slice
    through ``zeta`` (``C_{n,m}`` is the kernel constant).  Against the weight
    ``height^(2m-n-2)`` that derivative integrates to the slice's squared
    seminorm, which the reproducing property makes ``Kdot(zeta, zeta)``; so
    ``lhs`` is read in closed form."""

    lhs: float
    envelope: float
    ratio: float


def difference_integral_ratio(zeta: SiegelPoint, m: int = 2) -> DifferenceIntegralReport:
    """Evaluate ``integral of |q(zeta, w)^(-m) - q(center, w)^(-m)|^2 *
    height(w)^(2m-n-2) dV(w)`` as ``(2^m / (C_{n,m} Gamma(m)))^2 * Kdot(zeta,
    zeta)`` and compare it with the growth envelope."""
    if not isinstance(zeta, SiegelPoint):
        raise InvalidParameterError("the difference integral is anchored at a half-space point")
    if classify(zeta) != "interior":
        raise KernelDomainError("the difference integral needs an interior anchor")
    n = zeta.n
    sp.spectral_weight(DirichletLog(m), n)  # the weight needs 2m > n+1
    scale = (2.0**m / (kernel_constant(DirichletLog(m), n).value * math.gamma(m))) ** 2
    lhs = scale * kernel_eval(DirichletLog(m, dotted=True), zeta, zeta).real
    point_sq = float(np.sum(np.abs(zeta.zeta_prime) ** 2)) + abs(zeta.zeta_last) ** 2
    envelope = (1.0 + point_sq) ** (2 * m + 1) / rho(zeta)
    return DifferenceIntegralReport(lhs=lhs, envelope=envelope, ratio=lhs / envelope)
