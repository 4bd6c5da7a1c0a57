"""Geometry of the Siegel upper half-space.

A point of C^{n+1} is written ambiently as (zeta_prime, zeta_last) with
zeta_prime in C^n.  The domain is the sublevel region where the height

    rho(zeta) = Im(zeta_last) - |zeta_prime|^2 / 4

is positive; rho = 0 is the boundary.  Points are stored in the horocyclic
chart (z, t, h) = (zeta_prime, Re zeta_last, rho(zeta)), which identifies
the closed domain with (Heisenberg group) x [0, infinity); the ambient
coordinate zeta_last = t + i(|z|^2/4 + h) is derived.  So the height is
read, never recomputed: only ambient input pays the subtraction above.

Every kernel and chart value of the package is built from one Hermitian
pairing, written once in :func:`pairing_parts`; its diagonal is the height.
The boundary (h = 0) carries the Heisenberg group structure from
:mod:`siegelpw.heisenberg`, and the full holomorphic automorphism group
is generated by four families — boundary translations, positive
dilations, unitary rotations of the first n slots, and a point
inversion — represented here as a tagged union plus free compositions;
each updates the height without a subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError
from .heisenberg import HeisenbergElement

# Points with |rho| below this band are treated as boundary points, so
# round-trip noise cannot flip membership verdicts.
BOUNDARY_BAND = 1e-12


def _as_complex_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1:
        raise InvalidParameterError(f"{name} must be a 1-d complex vector")
    if not np.isfinite(arr).all():
        raise InvalidParameterError(f"{name} must be finite, got {arr}")
    arr.setflags(write=False)
    return arr


def _finite(value, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True, eq=False)
class SiegelPoint:
    """A point of C^{n+1} in chart coordinates: lateral part ``z``, boundary
    time ``t`` and height ``h`` (negative outside the closed half-space)."""

    z: np.ndarray
    t: float
    h: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", _as_complex_vector(self.z, "z"))
        object.__setattr__(self, "t", _finite(self.t, "t"))
        object.__setattr__(self, "h", _finite(self.h, "h"))

    @classmethod
    def from_ambient(cls, zeta_prime, zeta_last) -> "SiegelPoint":
        """The point (zeta_prime, zeta_last); its height is the one place a
        subtraction Im(zeta_last) - |zeta_prime|^2/4 cannot be avoided."""
        zeta_prime = _as_complex_vector(zeta_prime, "zeta_prime")
        zeta_last = complex(zeta_last)
        height = zeta_last.imag - 0.25 * float(np.sum(np.abs(zeta_prime) ** 2))
        return cls(zeta_prime, zeta_last.real, height)

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def zeta_prime(self) -> np.ndarray:
        return self.z

    @property
    def zeta_last(self) -> complex:
        return complex(self.t, 0.25 * float(np.sum(np.abs(self.z) ** 2)) + self.h)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SiegelPoint):
            return NotImplemented
        return self.t == other.t and self.h == other.h and np.array_equal(self.z, other.z)


@dataclass(frozen=True, eq=False)
class HorocyclicCoordinates:
    """Chart coordinates (z, t, h) of the closed half-space: boundary part
    (z, t) and height h >= 0."""

    z: np.ndarray
    t: float
    h: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", _as_complex_vector(self.z, "z"))
        object.__setattr__(self, "t", _finite(self.t, "t"))
        h = _finite(self.h, "h")
        if h < -BOUNDARY_BAND:
            raise InvalidParameterError(f"height must be >= 0, got {h}")
        object.__setattr__(self, "h", max(h, 0.0))

    @property
    def n(self) -> int:
        return self.z.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HorocyclicCoordinates):
            return NotImplemented
        return (
            self.t == other.t
            and self.h == other.h
            and np.array_equal(self.z, other.z)
        )


@dataclass(frozen=True, eq=False)
class BallPoint:
    """A point of the open unit ball of C^{n+1}."""

    omega: np.ndarray

    def __post_init__(self) -> None:
        omega = _as_complex_vector(self.omega, "omega")
        if omega.shape[0] < 1:
            raise InvalidParameterError("ball points need at least one coordinate")
        if float(np.linalg.norm(omega)) >= 1.0:
            raise InvalidParameterError("ball points must have modulus < 1")
        object.__setattr__(self, "omega", omega)

    @property
    def n(self) -> int:
        return self.omega.shape[0] - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BallPoint):
            return NotImplemented
        return np.array_equal(self.omega, other.omega)


@lru_cache(maxsize=None)
def base_point(n: int) -> SiegelPoint:
    """The reference interior point (0, ..., 0, i), at unit height (one
    shared immutable point per dimension)."""
    return SiegelPoint(np.zeros(n, dtype=np.complex128), 0.0, 1.0)


def rho(p: SiegelPoint) -> float:
    """Defining height Im(zeta_last) - |zeta_prime|^2 / 4, as stored."""
    return p.h


def classify(p: SiegelPoint) -> str:
    """Return 'interior', 'boundary', or 'exterior' with a +/-1e-12 band."""
    if p.h > BOUNDARY_BAND:
        return "interior"
    if p.h < -BOUNDARY_BAND:
        return "exterior"
    return "boundary"


def pairing_parts(z_components, t, h, anchor):
    """Real and imaginary parts of twice the Hermitian pairing
    ``q(zeta, omega) = (zeta_last - conj(omega_last))/(2i) - zeta'.conj(omega')/4``
    of the chart point ``zeta = (z, t, h)`` (holomorphic slot) against the
    point ``omega = anchor`` (anything with chart attributes ``z``, ``t``, ``h``).

    ``z_components`` holds one entry per lateral slot, and the entries, ``t``
    and ``h`` broadcast as arrays.  The real part is positive when the total
    height is and does not depend on t, the imaginary part does not depend
    on h, so on a tensor grid each lives on a sub-grid.  On the diagonal the
    parts are twice the height and zero.
    """
    z0 = anchor.z.tolist()
    zsq = sum(np.abs(zj) ** 2 for zj in z_components)
    # An anchor on the axis has no cross term: skipping it leaves the
    # imaginary part on the t axis alone, not on the lateral sub-grid.
    cross = sum(zj * z0j.conjugate() for zj, z0j in zip(z_components, z0)) if any(z0) else 0.0
    z0sq = float(np.sum(np.abs(anchor.z) ** 2))
    re = (h + anchor.h) + 0.25 * (zsq + z0sq) - 0.5 * cross.real
    return re, -((t - anchor.t) + 0.5 * cross.imag)


def move_parts(phi, z_components, t):
    """A translation, a rotation or a composition of them acting on chart
    arrays: ``z_components`` holds one entry per lateral slot, and the
    entries and ``t`` broadcast as arrays.  These maps fix the height and
    have unit Jacobian.

    The translation by ``[a, s]`` is the group law of
    :func:`~siegelpw.heisenberg.mul` on the right: ``z -> z + a`` and
    ``t -> t + s - Im(z . conj(a))/2``; a rotation is ``z -> U z``.
    """
    if isinstance(phi, HeisenbergTranslation):
        shift = phi.element.z.tolist()
        twist = sum(zj * aj.conjugate() for zj, aj in zip(z_components, shift))
        return [zj + aj for zj, aj in zip(z_components, shift)], t + phi.element.t - 0.5 * np.imag(twist)
    if isinstance(phi, Unitary):
        return [sum(u * zj for u, zj in zip(row, z_components)) for row in phi.matrix.tolist()], t
    if isinstance(phi, Composition):
        for factor in reversed(phi.maps):
            z_components, t = move_parts(factor, z_components, t)
        return z_components, t
    raise InvalidParameterError(f"{type(phi).__name__} does not act on chart arrays")


def psi_inv(c: HorocyclicCoordinates) -> SiegelPoint:
    """Inverse chart map: (z, t, h) -> (z, t + i(|z|^2/4 + h))."""
    return SiegelPoint(c.z, c.t, c.h)


def cayley(w: BallPoint) -> SiegelPoint:
    """Rational map sending the unit ball onto the half-space, 0 -> (0, i)."""
    denom = 1.0 - w.omega[-1]
    if denom == 0:
        raise InvalidParameterError("last coordinate 1 is the pole of the map")
    return SiegelPoint.from_ambient(
        2.0 * w.omega[:-1] / denom, 1j * (1.0 + w.omega[-1]) / denom
    )


def cayley_inv(p: SiegelPoint) -> BallPoint:
    """Inverse ball map: zeta -> (i zeta'/(zeta_last + i), (zeta_last - i)/(zeta_last + i))."""
    zeta_last = p.zeta_last
    denom = zeta_last + 1j
    if denom == 0:
        raise InvalidParameterError("point -i maps to the boundary pole")
    omega = np.concatenate(
        [1j * p.z / denom, np.asarray([(zeta_last - 1j) / denom])]
    )
    return BallPoint(omega=omega)


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeisenbergTranslation:
    """Affine holomorphic shift acting as right group translation on the chart."""

    element: HeisenbergElement

    def __post_init__(self) -> None:
        if not isinstance(self.element, HeisenbergElement):
            raise InvalidParameterError(
                f"translation payload must be a HeisenbergElement, got {type(self.element).__name__}"
            )


@dataclass(frozen=True)
class Dilation:
    """Anisotropic scaling (zeta', zeta_last) -> (delta zeta', delta^2 zeta_last)."""

    delta: float

    def __post_init__(self) -> None:
        if not self.delta > 0:
            raise InvalidParameterError("dilation factor must be positive")


@dataclass(frozen=True, eq=False)
class Unitary:
    """Rotation zeta' -> U zeta' by a unitary n x n matrix, zeta_last fixed."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidParameterError("unitary payload must be a square matrix")
        defect = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        if defect > 1e-12:
            raise InvalidParameterError(
                f"matrix is not unitary (defect {float(defect):.3e})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Unitary):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)


@dataclass(frozen=True)
class Inversion:
    """The involution zeta -> (i zeta'/zeta_last, -1/zeta_last)."""


@dataclass(frozen=True)
class Composition:
    """Composite map; the list acts in function order (last entry first)."""

    maps: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "maps", tuple(self.maps))


def apply(phi, p: SiegelPoint) -> SiegelPoint:
    """Apply an automorphism to a point of the closed half-space; each
    generator acts on the chart coordinates and sets the height directly."""
    if isinstance(phi, (HeisenbergTranslation, Unitary)):
        if isinstance(phi, Unitary) and phi.matrix.shape[0] != p.n:
            raise InvalidParameterError("unitary dimension mismatch")
        # One-element arrays take the ufunc loops a chart block takes, so a
        # point and a grid move to the same bits.
        z, t = move_parts(phi, [p.z[j : j + 1] for j in range(p.n)], np.array([p.t]))
        return SiegelPoint(np.concatenate(z), t[0], p.h)
    if isinstance(phi, Dilation):
        d = phi.delta
        return SiegelPoint(d * p.z, d * d * p.t, d * d * p.h)
    if isinstance(phi, Inversion):
        zeta_last = p.zeta_last
        if zeta_last == 0:
            raise InvalidParameterError("inversion pole: zeta_last = 0")
        modulus_sq = abs(zeta_last) ** 2
        return SiegelPoint(1j * p.z / zeta_last, -p.t / modulus_sq, p.h / modulus_sq)
    if isinstance(phi, Composition):
        out = p
        for factor in reversed(phi.maps):
            out = apply(factor, out)
        return out
    raise InvalidParameterError(f"unknown automorphism {type(phi).__name__}")


# ---------------------------------------------------------------------------
# JSON encodings
# ---------------------------------------------------------------------------


def _complex_to_json(value: complex) -> list:
    return [float(np.real(value)), float(np.imag(value))]


def _vector_to_json(vec: np.ndarray) -> list:
    return [_complex_to_json(v) for v in vec]


def _vector_from_json(items) -> np.ndarray:
    return np.asarray([complex(re, im) for re, im in items], dtype=np.complex128)


def point_to_json(p: SiegelPoint) -> dict:
    """The stored chart coordinates, so a point reads back bit for bit."""
    return {"z": _vector_to_json(p.z), "t": p.t, "h": p.h}


def point_from_json(doc: dict) -> SiegelPoint:
    """A point from its chart form ``{'z', 't', 'h'}`` (any height) or its
    ambient form ``{'zeta_prime', 'zeta_last'}``."""
    if "zeta_last" in doc:
        re, im = doc["zeta_last"]
        return SiegelPoint.from_ambient(_vector_from_json(doc["zeta_prime"]), complex(re, im))
    return SiegelPoint(_vector_from_json(doc["z"]), float(doc["t"]), float(doc["h"]))


def chart_from_json(doc: dict) -> HorocyclicCoordinates:
    return HorocyclicCoordinates(
        z=_vector_from_json(doc["z"]), t=float(doc["t"]), h=float(doc["h"])
    )


def ball_point_from_json(doc: dict) -> BallPoint:
    return BallPoint(omega=_vector_from_json(doc["omega"]))
