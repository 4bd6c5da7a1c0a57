"""Unitary action of the Heisenberg group on the truncated Fock space.

For lambda > 0 the group element [z, t] acts on entire functions by

    (U[z,t] F)(w) = exp(i lambda t - (lambda/2) w . conj(z)
                        - (lambda/4)|z|^2) F(w + z),

and for lambda < 0 the action is obtained exactly from the positive-
frequency one through U_lambda[z,t] = U_{-lambda}[conj(z), -t].  Matrix
entries with respect to the normalized monomial basis are computed by
tensor Gauss quadrature against the Gaussian weight of the space, so a
single code path serves both signs.

The module also provides the closed-form top row of the matrix (the
rank-one projection onto the constant), the one-parameter-derivative
matrices of the action, and finite-difference residual checks for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UnderResolvedError
from .fock import (
    FockTruncation,
    FockVector,
    basis_values,
    fock_quadrature_rule,
    kernel_tail_bound,
)
from .heisenberg import HeisenbergElement

# Quadrature rules need this many nodes beyond the basis degree before the
# entry integrals are trusted.
_NODE_MARGIN = 2
_DEFAULT_EXTRA_NODES = 14


@dataclass(frozen=True, eq=False)
class RepMatrix:
    """Matrix of the action: entries[i, j] pairs column e_beta_j into e_alpha_i."""

    lam: float
    element: HeisenbergElement
    truncation: FockTruncation
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.complex128)
        dim = self.truncation.dim
        if arr.shape != (dim, dim):
            raise InvalidParameterError(
                f"expected a {dim} x {dim} matrix, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RepMatrix):
            return NotImplemented
        return (
            self.lam == other.lam
            and self.element == other.element
            and self.truncation == other.truncation
            and np.array_equal(self.entries, other.entries)
        )


def _check_frequency(lam: float) -> float:
    lam = float(lam)
    if lam == 0.0 or not math.isfinite(lam):
        raise InvalidParameterError("frequency must be a nonzero finite real")
    return lam


def action_values(lam: float, a: HeisenbergElement, trunc: FockTruncation, w_components):
    """Values of (U[a] e_beta)(w) for every basis index, stacked along axis 0.

    Negative frequencies delegate to the positive-frequency action of
    [conj(z), -t], which reproduces the defining formula exactly.
    """
    lam = _check_frequency(lam)
    if lam < 0.0:
        flipped = HeisenbergElement(z=np.conj(a.z), t=-a.t)
        return action_values(-lam, flipped, trunc, w_components)
    w = [np.asarray(c, dtype=np.complex128) for c in w_components]
    if len(w) != trunc.n or a.n != trunc.n:
        raise InvalidParameterError("dimension mismatch in the action")
    z = a.z
    pairing = sum(wc * np.conj(zc) for wc, zc in zip(w, z))
    prefactor = np.exp(
        1j * lam * a.t
        - 0.5 * lam * pairing
        - 0.25 * lam * float(np.sum(np.abs(z) ** 2))
    )
    shifted = [wc + zc for wc, zc in zip(w, z)]
    return prefactor * basis_values(trunc, lam, shifted)


def rep_matrix(
    lam: float,
    a: HeisenbergElement,
    trunc: FockTruncation,
    node_count: int | None = None,
) -> RepMatrix:
    """Matrix entries of the action by tensor Gauss quadrature."""
    lam = _check_frequency(lam)
    if node_count is None:
        node_count = trunc.max_degree + _DEFAULT_EXTRA_NODES
    if node_count < trunc.max_degree + _NODE_MARGIN:
        raise UnderResolvedError(
            f"{node_count} nodes cannot resolve degree {trunc.max_degree} entries"
        )
    n = trunc.n
    rule = fock_quadrature_rule(n, lam, node_count=node_count)
    grids = np.meshgrid(*([rule.nodes] * (2 * n)), indexing="ij")
    # Tensor weights, built by outer products on the flattened grid.
    weight = np.ones_like(grids[0])
    for axis in range(2 * n):
        shape = [1] * (2 * n)
        shape[axis] = -1
        weight = weight * rule.weights.reshape(shape)
    flat_weight = weight.ravel()
    w = [grids[j].ravel() + 1j * grids[n + j].ravel() for j in range(n)]
    acted = action_values(lam, a, trunc, w)
    basis = basis_values(trunc, lam, w)
    normalization = (abs(lam) / (2.0 * math.pi)) ** n
    entries = normalization * (np.conj(basis) * flat_weight) @ acted.T
    return RepMatrix(lam=lam, element=a, truncation=trunc, entries=entries)


def p0_row(lam: float, a: HeisenbergElement, trunc: FockTruncation) -> FockVector:
    """Closed-form pairing of the action against the constant function.

    Component alpha is conj(z)^alpha (|lambda|/2)^{|alpha|/2} / sqrt(alpha!)
    times exp(i lambda t + (lambda/4)|z|^2); only negative frequencies keep
    this row square-summable without truncation.
    """
    lam = _check_frequency(lam)
    if lam >= 0.0:
        raise InvalidParameterError("the projected row requires a negative frequency")
    if a.n != trunc.n:
        raise InvalidParameterError("dimension mismatch")
    prefactor = np.exp(1j * lam * a.t + 0.25 * lam * float(np.sum(np.abs(a.z) ** 2)))
    values = basis_values(trunc, lam, [np.conj(c) for c in a.z])
    return FockVector(truncation=trunc, coeffs=prefactor * values)


def p0_tail_deficit_bound(lam: float, a: HeisenbergElement, max_degree: int) -> float:
    """Upper bound on 1 - (truncated row norm)^2: the Gaussian-weighted tail."""
    lam = _check_frequency(lam)
    x = 0.5 * abs(lam) * float(np.sum(np.abs(a.z) ** 2))
    return kernel_tail_bound(max_degree, x) * math.exp(-x)


def column_defect_bound(
    lam: float, a: HeisenbergElement, trunc: FockTruncation, column_degree: int
) -> float:
    """Bound on 1 - ||truncated column||^2 for a column of given degree.

    The shift part of the action only lowers degrees; all mass above the
    truncation comes from the exponential prefactor, whose degree-k term
    contributes at most y^k sqrt((g+k)!/g!) / k! in norm (y = sqrt(|l|/2)|z|,
    g = column degree).  Squaring the summed tail and applying the Gaussian
    prefactor gives the bound.
    """
    lam = _check_frequency(lam)
    if column_degree < 0 or column_degree > trunc.max_degree:
        raise InvalidParameterError("column degree outside the truncation")
    y = math.sqrt(0.5 * abs(lam)) * float(np.linalg.norm(a.z))
    g = column_degree
    total = 0.0
    for k in range(trunc.max_degree - g + 1, trunc.max_degree - g + 400):
        log_term = (
            k * math.log(y)
            + 0.5 * (math.lgamma(g + k + 1) - math.lgamma(g + 1))
            - math.lgamma(k + 1)
        ) if y > 0 else -math.inf
        term = math.exp(log_term)
        total += term
        if term < 1e-30 * max(total, 1e-300):
            break
    return (math.exp(-0.5 * y * y) * total) ** 2


def derivative_matrix(
    lam: float, field: str, trunc: FockTruncation, slot: int = 0
) -> np.ndarray:
    """Closed-form derivative of the action along a one-parameter subgroup.

    Fields: "T" (central direction, i lambda Id), "Zbar_right" and "Z"
    (complex boundary fields; which acts as d/dw_j and which as
    multiplication by w_j depends on the frequency sign).
    """
    lam = _check_frequency(lam)
    if not 0 <= slot < trunc.n:
        raise InvalidParameterError(f"slot {slot} outside dimension {trunc.n}")
    dim = trunc.dim
    if field == "T":
        return 1j * lam * np.eye(dim, dtype=np.complex128)

    lowering = np.zeros((dim, dim), dtype=np.complex128)
    raising = np.zeros((dim, dim), dtype=np.complex128)
    for j, alpha in enumerate(trunc.indices):
        if alpha[slot] > 0:
            lower = list(alpha)
            lower[slot] -= 1
            lowering[trunc.index_of(lower), j] = math.sqrt(
                alpha[slot] * abs(lam) / 2.0
            )
        if alpha.degree < trunc.max_degree:
            upper = list(alpha)
            upper[slot] += 1
            raising[trunc.index_of(upper), j] = math.sqrt(
                (alpha[slot] + 1) * 2.0 / abs(lam)
            )
    if field == "Zbar_right":
        return lowering if lam < 0 else -(lam / 2.0) * raising
    if field == "Z":
        return (lam / 2.0) * raising if lam < 0 else lowering
    raise InvalidParameterError(f"unknown field {field!r}")


def _difference_quotient(lam, trunc, path, step, node_count):
    forward = rep_matrix(lam, path(step), trunc, node_count=node_count).entries
    backward = rep_matrix(lam, path(-step), trunc, node_count=node_count).entries
    return (forward - backward) / (2.0 * step)


def _richardson_derivative(lam, trunc, path, step, node_count):
    coarse = _difference_quotient(lam, trunc, path, step, node_count)
    fine = _difference_quotient(lam, trunc, path, 0.5 * step, node_count)
    return (4.0 * fine - coarse) / 3.0


def dsigma_check(
    lam: float,
    field: str,
    trunc: FockTruncation,
    slot: int = 0,
    step: float = 1e-4,
    node_count: int | None = None,
) -> float:
    """Max-entry residual between difference quotients and the closed form.

    Central differences with one Richardson sweep along the matching
    one-parameter subgroup; steps below 1e-10 are rejected because the
    quotient would be dominated by cancellation.
    """
    lam = _check_frequency(lam)
    if step < 1e-10:
        raise InvalidParameterError("difference step below 1e-10 is pure cancellation")
    n = trunc.n
    if not 0 <= slot < n:
        raise InvalidParameterError(f"slot {slot} outside dimension {n}")
    expected = derivative_matrix(lam, field, trunc, slot)

    def central_element(s: float) -> HeisenbergElement:
        return HeisenbergElement(z=np.zeros(n, dtype=np.complex128), t=s)

    def real_shift(s: float) -> HeisenbergElement:
        z = np.zeros(n, dtype=np.complex128)
        z[slot] = s
        return HeisenbergElement(z=z, t=0.0)

    def imag_shift(s: float) -> HeisenbergElement:
        z = np.zeros(n, dtype=np.complex128)
        z[slot] = 1j * s
        return HeisenbergElement(z=z, t=0.0)

    if field == "T":
        got = _richardson_derivative(lam, trunc, central_element, step, node_count)
    elif field in ("Zbar_right", "Z"):
        d_real = _richardson_derivative(lam, trunc, real_shift, step, node_count)
        d_imag = _richardson_derivative(lam, trunc, imag_shift, step, node_count)
        sign = 1j if field == "Zbar_right" else -1j
        got = 0.5 * (d_real + sign * d_imag)
    else:
        raise InvalidParameterError(f"unknown field {field!r}")
    return float(np.max(np.abs(got - expected)))
