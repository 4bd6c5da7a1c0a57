"""Truncated Fock spaces of entire functions on C^n.

For a nonzero real frequency lambda, the space consists of entire
functions square-integrable against the Gaussian probability measure
(|lambda|/2pi)^n exp(-(|lambda|/2)|z|^2) dz.  The monomials z^alpha are
orthogonal with squared norms alpha! (2/|lambda|)^{|alpha|}, so the
normalized monomials e_alpha form an orthonormal basis and the space has
the entire reproducing kernel exp((|lambda|/2) z . conj(w)).

The artifact works with the finite-dimensional truncation spanned by all
e_alpha of total degree at most M, enumerated in graded-lexicographic
order (total degree first, then lexicographically with the first slot
dominant) so coefficient vectors are interchangeable across modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import InvalidParameterError
from .quadrature import GaussianRule, gaussian_rule, integrate_gaussian


class MultiIndex(tuple):
    """Exponent vector of a monomial; an immutable tuple of nonnegative ints."""

    def __new__(cls, entries):
        values = tuple(int(v) for v in entries)
        if any(v < 0 for v in values):
            raise InvalidParameterError(f"multi-index entries must be >= 0: {values}")
        return super().__new__(cls, values)

    @property
    def degree(self) -> int:
        return sum(self)

    @property
    def log_factorial(self) -> float:
        return sum(math.lgamma(v + 1) for v in self)


@lru_cache(maxsize=None)
def graded_indices(n: int, max_degree: int) -> tuple:
    """All multi-indices of length n with degree <= max_degree, graded-lex."""
    if n < 1:
        raise InvalidParameterError("dimension must be >= 1")
    if max_degree < 0:
        raise InvalidParameterError("max_degree must be >= 0")
    found = [
        MultiIndex(a)
        for a in product(range(max_degree + 1), repeat=n)
        if sum(a) <= max_degree
    ]
    found.sort(key=lambda a: (sum(a), tuple(-v for v in a)))
    return tuple(found)


@lru_cache(maxsize=None)
def _position_table(n: int, max_degree: int) -> dict:
    return {alpha: i for i, alpha in enumerate(graded_indices(n, max_degree))}


@dataclass(frozen=True)
class FockTruncation:
    """Finite slice of the Fock basis: all degrees up to max_degree."""

    n: int
    max_degree: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidParameterError("dimension must be >= 1")
        if self.max_degree < 0:
            raise InvalidParameterError("max_degree must be >= 0")

    @property
    def indices(self) -> tuple:
        return graded_indices(self.n, self.max_degree)

    @property
    def dim(self) -> int:
        return math.comb(self.n + self.max_degree, self.n)

    def index_of(self, alpha) -> int:
        key = MultiIndex(alpha)
        table = _position_table(self.n, self.max_degree)
        if key not in table:
            raise InvalidParameterError(
                f"multi-index {tuple(key)} is outside the truncation"
            )
        return table[key]


@dataclass(frozen=True, eq=False)
class FockVector:
    """Coefficients with respect to the normalized monomial basis."""

    truncation: FockTruncation
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.shape != (self.truncation.dim,):
            raise InvalidParameterError(
                f"expected {self.truncation.dim} coefficients, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.truncation == other.truncation and np.array_equal(
            self.coeffs, other.coeffs
        )


def _check_frequency(lam: float) -> float:
    lam = float(lam)
    if lam == 0.0 or not math.isfinite(lam):
        raise InvalidParameterError("frequency must be a nonzero finite real")
    return lam


def monomial_norm_sq(alpha, lam: float) -> float:
    """Squared norm of z^alpha: alpha! (2/|lambda|)^degree, in log space."""
    lam = _check_frequency(lam)
    a = MultiIndex(alpha)
    return math.exp(a.log_factorial + a.degree * math.log(2.0 / abs(lam)))


def norm_sq(f: FockVector) -> float:
    return float(np.real(np.vdot(f.coeffs, f.coeffs)))


def basis_values(trunc: FockTruncation, lam: float, z_components) -> np.ndarray:
    """Normalized monomials evaluated on broadcastable component arrays.

    Returns an array of shape ``(dim,) + broadcast shape`` whose slice i is
    e_{alpha_i} evaluated at z = (z_1, ..., z_n).
    """
    lam = _check_frequency(lam)
    comps = [np.asarray(c, dtype=np.complex128) for c in z_components]
    if len(comps) != trunc.n:
        raise InvalidParameterError(
            f"expected {trunc.n} components, got {len(comps)}"
        )
    shape = np.broadcast_shapes(*[c.shape for c in comps])
    out = np.empty((trunc.dim,) + shape, dtype=np.complex128)
    for i, alpha in enumerate(trunc.indices):
        mono = np.ones(shape, dtype=np.complex128)
        for comp, power in zip(comps, alpha):
            if power:
                mono = mono * comp**power
        out[i] = mono / math.sqrt(monomial_norm_sq(alpha, lam))
    return out


def evaluate(f: FockVector, lam: float, z_components) -> np.ndarray:
    """Pointwise values of the function represented by the coefficients."""
    values = basis_values(f.truncation, lam, z_components)
    return np.tensordot(f.coeffs, values, axes=(0, 0))


def reproducing_kernel(z_components, w_components, lam: float) -> np.ndarray:
    """Closed-form kernel exp((|lambda|/2) z . conj(w)), broadcast over inputs."""
    lam = _check_frequency(lam)
    z = [np.asarray(c, dtype=np.complex128) for c in z_components]
    w = [np.asarray(c, dtype=np.complex128) for c in w_components]
    if len(z) != len(w):
        raise InvalidParameterError("mismatched component counts")
    pairing = sum(zc * np.conj(wc) for zc, wc in zip(z, w))
    return np.exp(0.5 * abs(lam) * pairing)


def kernel_partial_sum(
    trunc: FockTruncation, lam: float, z_components, w_components
) -> np.ndarray:
    """Basis partial sum of the kernel: sum over e_alpha(z) conj(e_alpha(w))."""
    zv = basis_values(trunc, lam, z_components)
    wv = basis_values(trunc, lam, w_components)
    return np.sum(zv * np.conj(wv), axis=0)


def kernel_tail_bound(max_degree: int, x: float) -> float:
    """Taylor remainder of e^x beyond degree max_degree (x >= 0)."""
    if x < 0:
        raise InvalidParameterError("tail bound argument must be >= 0")
    log_term = (max_degree + 1) * math.log(x) - math.lgamma(max_degree + 2) if x > 0 else -math.inf
    return math.exp(log_term + x) if log_term > -math.inf else 0.0


def suggested_truncation(lam: float, radius: float, tol: float) -> int:
    """Smallest degree whose kernel tail bound at |z|,|w| <= radius is below tol."""
    lam = _check_frequency(lam)
    if not (radius >= 0 and tol > 0):
        raise InvalidParameterError("need radius >= 0 and tol > 0")
    x = 0.5 * abs(lam) * radius * radius
    for max_degree in range(501):
        if kernel_tail_bound(max_degree, x) <= tol:
            return max_degree
    raise InvalidParameterError("no truncation below degree 500 meets the tolerance")


def fock_quadrature_rule(n: int, lam: float, node_count: int = 16) -> GaussianRule:
    """Tensor Gauss rule matched to the Gaussian weight of the space."""
    lam = _check_frequency(lam)
    return gaussian_rule(
        variance_scale=1.0 / math.sqrt(abs(lam)), node_count=node_count, dimension=2 * n
    )


def gaussian_pairing(lam: float, n: int, f, g, node_count: int = 16) -> complex:
    """Quadrature evaluation of <f, g> against the normalized Gaussian measure.

    ``f`` and ``g`` are callables taking n complex coordinate arrays.
    """
    lam = _check_frequency(lam)
    rule = fock_quadrature_rule(n, lam, node_count)

    def integrand(*coords):
        z = [coords[j] + 1j * coords[n + j] for j in range(n)]
        return f(*z) * np.conj(g(*z))

    normalization = (abs(lam) / (2.0 * math.pi)) ** n
    return normalization * integrate_gaussian(rule, integrand)
