"""Quadrature rules used throughout the package.

Three deterministic rule families plus a counter-based Monte Carlo fallback:

* :class:`HalfLineRule` — Gauss rules for the weight ``x^a e^{-c x}`` on
  ``(0, ∞)``, built by the Golub–Welsch eigenvalue method from the
  generalized-Laguerre three-term recurrence.  The standard (c = 1) rule is
  cached per ``(exponent, node_count)`` and rescaled per call, so the
  returned arrays are fresh and writable while the cached ones are
  read-only.  The unit-interval Gauss–Jacobi rules behind
  :func:`power_tail_axis` and :func:`power_ratio_integral` are cached too.
* :class:`GaussianRule` — tensor Gauss–Hermite rules for the weight
  ``exp(-|x|^2 / (2 s^2))`` on ``R^d``.
* :class:`BoxRule` — tensor products of one-dimensional mapped axes
  (composite Gauss–Legendre panels under named coordinate maps) for
  integrals over boxes, half-lines, full lines and angles.

All integrands are evaluated vectorized on sparse broadcast grids.  The
Monte Carlo driver uses the counter-based Philox generator so runs are
reproducible and streams are splittable by seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import DivergentIntegralError, InvalidParameterError

__all__ = [
    "HalfLineRule",
    "gauss_laguerre",
    "GaussianRule",
    "gauss_hermite_nodes",
    "gaussian_rule",
    "integrate_gaussian",
    "Axis1D",
    "tan_axis",
    "tan_half_axis",
    "power_tail_axis",
    "angle_axis",
    "BoxRule",
    "monte_carlo",
]


# ---------------------------------------------------------------------------
# Half-line Gauss rules (Golub–Welsch on the generalized-Laguerre recurrence)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HalfLineRule:
    """Gauss rule for ``∫_0^∞ f(x) x^exponent e^{-scale·x} dx ≈ Σ w_i f(x_i).

    The weight function is folded into ``weights``; ``f`` is evaluated bare.
    """

    exponent: float
    scale: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def plain_weights(self) -> np.ndarray:
        """Weights with the density divided back out (computed in log space).

        ``Σ plain_w_i g(x_i)`` then approximates ``∫_0^∞ g(x) dx`` for
        integrands ``g`` that decay at least as fast as the rule's weight.
        """
        with np.errstate(divide="ignore"):
            logs = (
                np.log(self.weights)
                + self.scale * self.nodes
                - self.exponent * np.log(self.nodes)
            )
        return np.exp(logs)


def gauss_laguerre(exponent: float, scale: float, node_count: int) -> HalfLineRule:
    """Golub–Welsch construction of the Gauss rule for ``x^a e^{-c x}`` on (0, ∞).

    The symmetric tridiagonal Jacobi matrix of the (monic) generalized-Laguerre
    recurrence has diagonal ``2k + a + 1`` and off-diagonal ``sqrt(k(k+a))``;
    its eigenvalues are the nodes and the squared first eigenvector components,
    times the total mass ``Γ(a+1)``, are the weights.  Scaling ``x -> x/c``
    maps the standard weight to ``x^a e^{-c x}``.

    The standard (c = 1) rule is built once per ``(exponent, node_count)`` and
    cached; each call rescales it, so the returned arrays are fresh and
    writable while the cached ones stay read-only.
    """
    a, c = float(exponent), float(scale)
    if not a > -1.0:
        raise InvalidParameterError(f"half-line exponent must exceed -1, got {a}")
    if not c > 0.0:
        raise InvalidParameterError(f"half-line scale must be positive, got {c}")
    if node_count < 1:
        raise InvalidParameterError(f"node_count must be >= 1, got {node_count}")
    nodes, weights = _standard_laguerre(a, node_count)
    return HalfLineRule(
        exponent=a,
        scale=c,
        nodes=nodes / c,
        weights=weights * c ** (-(a + 1.0)),
    )


@lru_cache(maxsize=512)
def _standard_laguerre(a: float, node_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the Gauss rule for ``x^a e^{-x}``."""
    k = np.arange(node_count, dtype=float)
    alpha = 2.0 * k + a + 1.0
    beta = k * (k + a)
    if node_count == 1:
        nodes = alpha[:1].copy()
        weights = np.array([math.exp(math.lgamma(a + 1.0))])
    elif node_count > 150:
        # The Christoffel sums overflow near x ~ 700; keep raw eigenvector
        # weights for very large rules (their ~1e-13 node accuracy suffices
        # there, since such rules are only used for smooth integrands).
        nodes, vecs = eigh_tridiagonal(alpha, np.sqrt(beta[1:]))
        weights = math.exp(math.lgamma(a + 1.0)) * vecs[0, :] ** 2
    else:
        nodes, _ = eigh_tridiagonal(alpha, np.sqrt(beta[1:]))
        nodes, weights = _polish_golub_welsch(nodes, alpha, beta, math.lgamma(a + 1.0))
    return _read_only(nodes), _read_only(weights)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _polish_golub_welsch(
    nodes: np.ndarray, alpha: np.ndarray, beta: np.ndarray, log_mu0: float
) -> tuple[np.ndarray, np.ndarray]:
    """Newton-refine Golub–Welsch eigenvalue nodes and recompute weights.

    ``alpha``/``beta`` are the orthonormal three-term recurrence coefficients
    (``x p_k = sqrt(beta_{k+1}) p_{k+1} + alpha_k p_k + sqrt(beta_k) p_{k-1}``)
    and ``exp(log_mu0)`` the weight's total mass.  Two Newton steps on the
    degree-N orthonormal polynomial push the eigenvalue nodes from ~‖J‖·eps
    absolute accuracy to ~eps relative accuracy; the weights come from the
    Christoffel sum ``w_i = 1 / Σ_{k<N} p_k(x_i)^2``.
    """
    n = len(nodes)
    sqrt_beta = np.sqrt(beta)

    def ortho_polys(x: np.ndarray):
        """Values p_0..p_N and derivative of p_N at the points x."""
        p_prev = np.zeros_like(x)
        p_curr = np.full_like(x, math.exp(-0.5 * log_mu0))
        d_prev = np.zeros_like(x)
        d_curr = np.zeros_like(x)
        sum_sq = p_curr**2
        for j in range(n):
            b_next = sqrt_beta[j + 1] if j + 1 < n else 1.0
            p_next = ((x - alpha[j]) * p_curr - sqrt_beta[j] * p_prev) / b_next
            d_next = (p_curr + (x - alpha[j]) * d_curr - sqrt_beta[j] * d_prev) / b_next
            if j + 1 < n:
                sum_sq = sum_sq + p_next**2
            p_prev, p_curr = p_curr, p_next
            d_prev, d_curr = d_curr, d_next
        return p_curr, d_curr, sum_sq

    x = nodes.astype(float).copy()
    for _ in range(2):
        p_n, dp_n, _ = ortho_polys(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(dp_n != 0.0, p_n / dp_n, 0.0)
        x = x - step
    _, _, sum_sq = ortho_polys(x)
    return x, 1.0 / sum_sq


# ---------------------------------------------------------------------------
# Gaussian (Hermite) rules on R^d
# ---------------------------------------------------------------------------


def gauss_hermite_nodes(node_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Golub–Welsch nodes/weights for the weight ``e^{-u^2}`` on R.

    Hermite recurrence: zero diagonal, off-diagonal ``sqrt(k/2)``, total mass
    ``sqrt(pi)``.
    """
    if node_count < 1:
        raise InvalidParameterError(f"node_count must be >= 1, got {node_count}")
    if node_count == 1:
        return np.zeros(1), np.array([math.sqrt(math.pi)])
    k = np.arange(1, node_count, dtype=float)
    nodes, vecs = eigh_tridiagonal(np.zeros(node_count), np.sqrt(k / 2.0))
    weights = math.sqrt(math.pi) * vecs[0, :] ** 2
    return nodes, weights


@dataclass(frozen=True)
class GaussianRule:
    """Tensor Gauss–Hermite rule for ``∫_{R^d} f(x) e^{-|x|^2/(2 s^2)} dx``."""

    variance_scale: float
    node_count: int
    dimension: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def gaussian_rule(variance_scale: float, node_count: int, dimension: int) -> GaussianRule:
    s = float(variance_scale)
    if not s > 0.0:
        raise InvalidParameterError(f"variance scale must be positive, got {s}")
    if dimension < 1:
        raise InvalidParameterError(f"dimension must be >= 1, got {dimension}")
    u, w = gauss_hermite_nodes(node_count)
    factor = math.sqrt(2.0) * s
    return GaussianRule(
        variance_scale=s,
        node_count=node_count,
        dimension=dimension,
        nodes=factor * u,
        weights=factor * w,
    )


def integrate_gaussian(rule: GaussianRule, f: Callable[..., np.ndarray]) -> complex:
    """``∫ f(x_1, …, x_d) e^{-|x|^2/(2s^2)} dx``; ``f`` broadcast-vectorized."""
    d = rule.dimension
    grids = []
    for axis in range(d):
        shape = [1] * d
        shape[axis] = -1
        grids.append(rule.nodes.reshape(shape))
    vals = np.asarray(f(*grids), dtype=complex)
    vals = np.broadcast_to(vals, (len(rule.nodes),) * d).copy()
    for axis in range(d - 1, -1, -1):
        vals = np.tensordot(vals, rule.weights, axes=([axis], [0]))
    return complex(vals)


# ---------------------------------------------------------------------------
# Mapped tensor-product box rules
# ---------------------------------------------------------------------------


def _composite_gauss_legendre(a: float, b: float, panels: int, order: int):
    """Composite Gauss–Legendre nodes/weights on [a, b] with equal panels."""
    if panels < 1 or order < 1:
        raise InvalidParameterError("panels and order must be >= 1")
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class Axis1D:
    """One tensor factor of a :class:`BoxRule`: nodes/weights with the
    coordinate map's Jacobian (and any analytic weight) folded in."""

    mapping: str
    params: dict
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def node_count(self) -> int:
        return len(self.nodes)


def tan_axis(scale: float, panels: int = 4, order: int = 16) -> Axis1D:
    """Whole-line axis via ``x = scale·tan(u)``, u ∈ (-π/2, π/2).

    Suited to integrands with algebraic tails ``|x|^{-p}``, p ≥ 2.
    """
    if scale <= 0:
        raise InvalidParameterError(f"tan scale must be positive, got {scale}")
    u, wu = _composite_gauss_legendre(-math.pi / 2.0, math.pi / 2.0, panels, order)
    x = scale * np.tan(u)
    w = wu * scale / np.cos(u) ** 2
    return Axis1D("tan", {"scale": scale, "panels": panels, "order": order}, x, w)


def tan_half_axis(scale: float, panels: int = 4, order: int = 16) -> Axis1D:
    """Half-line axis via ``x = scale·tan(u)``, u ∈ (0, π/2)."""
    if scale <= 0:
        raise InvalidParameterError(f"tan scale must be positive, got {scale}")
    u, wu = _composite_gauss_legendre(0.0, math.pi / 2.0, panels, order)
    x = scale * np.tan(u)
    w = wu * scale / np.cos(u) ** 2
    return Axis1D("tan_half", {"scale": scale, "panels": panels, "order": order}, x, w)


@lru_cache(maxsize=512)
def _gauss_jacobi_unit(beta: float, node_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Golub–Welsch Gauss rule for the weight ``u^beta du`` on [0, 1].

    Built from the Jacobi(a=0, b=beta) orthonormal recurrence on [-1, 1]
    (coefficients per Gautschi), then affinely mapped to [0, 1] with the
    weight normalization folded in.  Cached per ``(beta, node_count)``; the
    returned arrays are the cached ones and are read-only.
    """
    b = float(beta)
    k = np.arange(node_count, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = b * b / ((2.0 * k + b) * (2.0 * k + b + 2.0))
    alpha[0] = b / (b + 2.0)
    kk = k[1:]
    rec_beta = np.concatenate(
        [
            [0.0],
            (2.0 * kk * (kk + b) / (2.0 * kk + b)) ** 2
            / ((2.0 * kk + b + 1.0) * (2.0 * kk + b - 1.0)),
        ]
    )
    log_mu0 = (b + 1.0) * math.log(2.0) - math.log(b + 1.0)
    if node_count == 1:
        x = alpha[:1].copy()
        w = np.array([math.exp(log_mu0)])
    else:
        x, _ = eigh_tridiagonal(alpha, np.sqrt(rec_beta[1:]))
        x, w = _polish_golub_welsch(x, alpha, rec_beta, log_mu0)
    return _read_only((1.0 + x) / 2.0), _read_only(w * 2.0 ** (-b - 1.0))


def power_tail_axis(
    beta: float,
    split: float = 1.0,
    panels: int = 4,
    order: int = 16,
    tail_panels: int | None = None,
    tail_order: int | None = None,
) -> Axis1D:
    """Half-line axis carrying the analytic weight ``x^beta dx`` (beta > -1).

    ``Σ w_i f(x_i) ≈ ∫_0^∞ f(x) x^beta dx``.  Near-field (0, split]: a
    Gauss–Jacobi rule with ``panels·order`` nodes absorbs the weight exactly,
    so ``f`` smooth at 0 is integrated spectrally.  Far-field: the map
    ``x = split·e^{tan u}`` (covering up to ~``split·6e14``) turns any
    algebraic decay of ``f`` faster than ``x^{-beta-1}`` into a smooth
    super-exponentially decaying integrand.
    """
    if beta <= -1:
        raise InvalidParameterError(f"power weight exponent must exceed -1, got {beta}")
    if split <= 0:
        raise InvalidParameterError(f"split must be positive, got {split}")
    tp = tail_panels if tail_panels is not None else panels
    to = tail_order if tail_order is not None else order
    near_u, near_wu = _gauss_jacobi_unit(beta, panels * order)
    near_x = split * near_u
    near_w = near_wu * split ** (beta + 1.0)
    # Far field: x = split·exp(tan u), u in (0, arctan(34)); the weight
    # x^{beta+1} sec^2(u) stays finite for beta < 19.
    u, wu = _composite_gauss_legendre(0.0, math.atan(34.0), tp, to)
    tan_u = np.tan(u)
    far_x = split * np.exp(tan_u)
    far_w = wu * split ** (beta + 1.0) * np.exp((beta + 1.0) * tan_u) / np.cos(u) ** 2
    return Axis1D(
        "power_tail",
        {
            "beta": beta,
            "split": split,
            "panels": panels,
            "order": order,
            "tail_panels": tp,
            "tail_order": to,
        },
        np.concatenate([near_x, far_x]),
        np.concatenate([near_w, far_w]),
    )


def power_ratio_integral(beta: float, q: float, node_count: int = 48) -> float:
    """``∫_0^∞ x^beta (1+x)^(-q) dx`` with no truncation error.

    Needs ``beta > -1`` (integrable at 0) and ``q > beta + 1`` (integrable at
    infinity); otherwise :class:`DivergentIntegralError`.  The inversion
    ``x -> 1/x`` maps the tail piece (1, ∞) onto (0, 1] with the
    complementary endpoint weight ``x^(q-beta-2)``, so two Gauss–Jacobi rules
    integrate the analytic factor ``(1+x)^(-q)`` spectrally on the whole
    half-line.
    """
    beta = float(beta)
    q = float(q)
    if not beta > -1.0:
        raise DivergentIntegralError(
            f"power weight exponent must exceed -1, got {beta}"
        )
    if not q - beta - 1.0 > 0.0:
        raise DivergentIntegralError(
            f"need q > beta + 1 for a convergent tail, got beta={beta}, q={q}"
        )
    if node_count < 1:
        raise InvalidParameterError(f"node_count must be positive, got {node_count}")
    near_x, near_w = _gauss_jacobi_unit(beta, node_count)
    far_x, far_w = _gauss_jacobi_unit(q - beta - 2.0, node_count)
    return float(
        np.sum(near_w * (1.0 + near_x) ** (-q))
        + np.sum(far_w * (1.0 + far_x) ** (-q))
    )


def angle_axis(count: int = 16) -> Axis1D:
    """Periodic trapezoid rule on [0, 2π) — spectrally accurate for smooth
    periodic integrands."""
    if count < 1:
        raise InvalidParameterError(f"angle count must be >= 1, got {count}")
    theta = np.arange(count) * (2.0 * math.pi / count)
    w = np.full(count, 2.0 * math.pi / count)
    return Axis1D("angle", {"count": count}, theta, w)


@dataclass(frozen=True)
class BoxRule:
    """Tensor product of mapped 1-D axes."""

    axes: tuple[Axis1D, ...]

    @property
    def point_count(self) -> int:
        return int(np.prod([ax.node_count for ax in self.axes]))

    def grids(self) -> list[np.ndarray]:
        """Sparse broadcastable coordinate arrays, one per axis."""
        d = len(self.axes)
        out = []
        for i, ax in enumerate(self.axes):
            shape = [1] * d
            shape[i] = -1
            out.append(ax.nodes.reshape(shape))
        return out


# ---------------------------------------------------------------------------
# Counter-based Monte Carlo
# ---------------------------------------------------------------------------


def monte_carlo(
    sampler: Callable[[np.random.Generator, int], tuple[Sequence[np.ndarray], np.ndarray]],
    f: Callable[..., np.ndarray],
    sample_count: int,
    seed: int,
) -> tuple[complex, float]:
    """Importance-sampled Monte Carlo with the Philox counter-based generator.

    ``sampler(rng, count)`` returns ``(coordinate arrays, density)``; the
    estimate is ``mean(f(*coords)/density)`` and the standard error combines
    the real and imaginary sample variances.  Fixed seeds give identical
    streams on every platform, and distinct seeds give independent streams.
    """
    if sample_count < 2:
        raise InvalidParameterError("sample_count must be >= 2 for a standard error")
    rng = np.random.Generator(np.random.Philox(key=seed))
    coords, density = sampler(rng, sample_count)
    vals = np.asarray(f(*coords), dtype=complex) / density
    estimate = complex(vals.mean())
    var = vals.real.var(ddof=1) + vals.imag.var(ddof=1)
    return estimate, math.sqrt(var / sample_count)
