"""Unitary action of the Heisenberg group on the truncated Fock space.

For lambda > 0 the group element [z, t] acts on entire functions by

    (U[z,t] F)(w) = exp(i lambda t - (lambda/2) w . conj(z)
                        - (lambda/4)|z|^2) F(w + z),

and for lambda < 0 the action is obtained exactly from the positive-
frequency one through U_lambda[z,t] = U_{-lambda}[conj(z), -t].  In the
normalized monomial basis U_lambda[z,t] is e^{i lambda t} times a tensor
product over slots of Glauber displacement operators D(alpha_k), with
alpha_k = -sqrt(|lambda|/2) conj(z_k) for lambda > 0 and, by the flip,
alpha_k = -sqrt(|lambda|/2) z_k for lambda < 0.  Their entries are

    <m|D(alpha)|k> = sqrt(k!/m!) alpha^{m-k} e^{-|alpha|^2/2}
                     L_k^{(m-k)}(|alpha|^2)            (m >= k),

and <m|D(alpha)|k> = conj(<k|D(-alpha)|m>) for m < k (Cahill and Glauber,
Phys. Rev. 177, 1857 (1969); Folland, Harmonic Analysis in Phase Space,
1989, ch. 1), so no matrix entry carries a quadrature error.

The module also provides the closed-form top row of the matrix (the
rank-one projection onto the constant), the one-parameter-derivative
matrices of the action, and finite-difference residual checks for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .fock import FockTruncation, FockVector, basis_values, kernel_tail_bound
from .heisenberg import HeisenbergElement


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


def _displacement(alpha: complex, degree: int) -> np.ndarray:
    """Entries <m|D(alpha)|k> for 0 <= m, k <= degree.

    The generalized Laguerre values L_k^{(a)}(|alpha|^2) come from the
    three-term recurrence in k, run for every order a at once.
    """
    x = abs(alpha) ** 2
    order = np.arange(degree + 1, dtype=float)
    laguerre = np.ones((degree + 1, degree + 1))  # [k, a] -> L_k^{(a)}(x)
    if degree >= 1:
        laguerre[1] = 1.0 + order - x
    for k in range(1, degree):
        laguerre[k + 1] = (
            (2 * k + 1 + order - x) * laguerre[k] - (k + order) * laguerre[k - 1]
        ) / (k + 1)
    row, col = np.indices((degree + 1, degree + 1))
    low, gap = np.minimum(row, col), np.abs(row - col)
    log_factorials = np.array([math.lgamma(j + 1.0) for j in range(degree + 1)])
    scale = np.exp(0.5 * (log_factorials[low] - log_factorials[low + gap]) - 0.5 * x)
    power = np.where(row >= col, alpha**gap, (-np.conj(alpha)) ** gap)
    return scale * power * laguerre[low, gap]


def rep_matrix(lam: float, a: HeisenbergElement, trunc: FockTruncation) -> RepMatrix:
    """Matrix entries <e_alpha, U_lambda[a] e_beta> in closed form.

    One displacement matrix per slot, with alpha_k = -sqrt(|lambda|/2)
    conj(z_k) for lambda > 0 and -sqrt(|lambda|/2) z_k for lambda < 0 (the
    flip U_lambda[z,t] = U_{-lambda}[conj(z), -t]), multiplied over the
    multi-indices of the truncation and by e^{i lambda t}.  Gauss-Hermite
    quadrature of the defining action reproduces these entries (see the
    tests), as do the two references in the module docstring.
    """
    lam = _check_frequency(lam)
    if a.n != trunc.n:
        raise InvalidParameterError("dimension mismatch in the action")
    shift = -math.sqrt(0.5 * abs(lam)) * (np.conj(a.z) if lam > 0.0 else a.z)
    indices = np.array(trunc.indices).reshape(trunc.dim, trunc.n)
    entries = np.full((trunc.dim, trunc.dim), np.exp(1j * lam * a.t))
    for slot, alpha in enumerate(shift):
        factor = _displacement(complex(alpha), trunc.max_degree)
        entries = entries * factor[np.ix_(indices[:, slot], indices[:, slot])]
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


def _difference_quotient(lam, trunc, path, step):
    forward = rep_matrix(lam, path(step), trunc).entries
    backward = rep_matrix(lam, path(-step), trunc).entries
    return (forward - backward) / (2.0 * step)


def _richardson_derivative(lam, trunc, path, step):
    coarse = _difference_quotient(lam, trunc, path, step)
    fine = _difference_quotient(lam, trunc, path, 0.5 * step)
    return (4.0 * fine - coarse) / 3.0


def dsigma_check(
    lam: float,
    field: str,
    trunc: FockTruncation,
    slot: int = 0,
    step: float = 1e-4,
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
        got = _richardson_derivative(lam, trunc, central_element, step)
    elif field in ("Zbar_right", "Z"):
        d_real = _richardson_derivative(lam, trunc, real_shift, step)
        d_imag = _richardson_derivative(lam, trunc, imag_shift, step)
        sign = 1j if field == "Zbar_right" else -1j
        got = 0.5 * (d_real + sign * d_imag)
    else:
        raise InvalidParameterError(f"unknown field {field!r}")
    return float(np.max(np.abs(got - expected)))
