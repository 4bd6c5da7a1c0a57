"""Geometry of the Siegel upper half-space.

Points live in C^{n+1}, written as (zeta_prime, zeta_last) with
zeta_prime in C^n.  The domain is the sublevel region where the height

    rho(zeta) = Im(zeta_last) - |zeta_prime|^2 / 4

is positive; rho = 0 is the boundary.  A horocyclic chart identifies the
closed domain with (Heisenberg group) x [0, infinity):

    psi(zeta)        = (z, t, h) = (zeta_prime, Re zeta_last, rho(zeta)),
    psi_inv(z, t, h) = (z, t + i(|z|^2/4 + h)).

The boundary (h = 0) carries the Heisenberg group structure from
:mod:`siegelpw.heisenberg`, and the full holomorphic automorphism group
is generated by four families — boundary translations, positive
dilations, unitary rotations of the first n slots, and a point
inversion — represented here as a tagged union plus free compositions.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SiegelPoint:
    """A point (zeta_prime, zeta_last) of C^{n+1}."""

    zeta_prime: np.ndarray
    zeta_last: complex

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "zeta_prime", _as_complex_vector(self.zeta_prime, "zeta_prime")
        )
        object.__setattr__(self, "zeta_last", complex(self.zeta_last))

    @property
    def n(self) -> int:
        return self.zeta_prime.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SiegelPoint):
            return NotImplemented
        return self.zeta_last == other.zeta_last and np.array_equal(
            self.zeta_prime, other.zeta_prime
        )


@dataclass(frozen=True, eq=False)
class HorocyclicCoordinates:
    """Chart coordinates (z, t, h): boundary part (z, t) and height h >= 0."""

    z: np.ndarray
    t: float
    h: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", _as_complex_vector(self.z, "z"))
        object.__setattr__(self, "t", float(self.t))
        h = float(self.h)
        if h < -BOUNDARY_BAND:
            raise InvalidParameterError(f"height must be >= 0, got {h}")
        object.__setattr__(self, "h", max(h, 0.0))

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def boundary_part(self) -> HeisenbergElement:
        return HeisenbergElement(z=self.z, t=self.t)

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


def base_point(n: int) -> SiegelPoint:
    """The reference interior point (0, ..., 0, i), at unit height."""
    return SiegelPoint(zeta_prime=np.zeros(n, dtype=np.complex128), zeta_last=1j)


def rho(p: SiegelPoint) -> float:
    """Defining height Im(zeta_last) - |zeta_prime|^2 / 4."""
    return float(p.zeta_last.imag - 0.25 * float(np.sum(np.abs(p.zeta_prime) ** 2)))


def classify(p: SiegelPoint) -> str:
    """Return 'interior', 'boundary', or 'exterior' with a +/-1e-12 band."""
    height = rho(p)
    if height > BOUNDARY_BAND:
        return "interior"
    if height < -BOUNDARY_BAND:
        return "exterior"
    return "boundary"


def psi(p: SiegelPoint) -> HorocyclicCoordinates:
    """Chart map: (z, t, h) = (zeta_prime, Re zeta_last, rho)."""
    height = rho(p)
    if height < -BOUNDARY_BAND:
        raise InvalidParameterError(
            f"point lies outside the closed half-space (height {height})"
        )
    return HorocyclicCoordinates(
        z=p.zeta_prime, t=float(p.zeta_last.real), h=max(height, 0.0)
    )


def psi_inv(c: HorocyclicCoordinates) -> SiegelPoint:
    """Inverse chart map: (z, t, h) -> (z, t + i(|z|^2/4 + h))."""
    imag = 0.25 * float(np.sum(np.abs(c.z) ** 2)) + c.h
    return SiegelPoint(zeta_prime=c.z, zeta_last=complex(c.t, imag))


def cayley(w: BallPoint) -> SiegelPoint:
    """Rational map sending the unit ball onto the half-space, 0 -> (0, i)."""
    denom = 1.0 - w.omega[-1]
    if denom == 0:
        raise InvalidParameterError("last coordinate 1 is the pole of the map")
    return SiegelPoint(
        zeta_prime=2.0 * w.omega[:-1] / denom,
        zeta_last=1j * (1.0 + w.omega[-1]) / denom,
    )


def cayley_inv(p: SiegelPoint) -> BallPoint:
    """Inverse ball map: zeta -> (i zeta'/(zeta_last + i), (zeta_last - i)/(zeta_last + i))."""
    denom = p.zeta_last + 1j
    if denom == 0:
        raise InvalidParameterError("point -i maps to the boundary pole")
    omega = np.concatenate(
        [1j * p.zeta_prime / denom, np.asarray([(p.zeta_last - 1j) / denom])]
    )
    return BallPoint(omega=omega)


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeisenbergTranslation:
    """Affine holomorphic shift acting as right group translation on the chart."""

    element: HeisenbergElement


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


Automorphism = (
    HeisenbergTranslation | Dilation | Unitary | Inversion | Composition
)


def apply(phi, p: SiegelPoint) -> SiegelPoint:
    """Apply an automorphism to a point of the closed half-space."""
    if isinstance(phi, HeisenbergTranslation):
        w = np.asarray(phi.element.z, dtype=np.complex128)
        if w.shape[0] != p.n:
            raise InvalidParameterError("translation dimension mismatch")
        # Holomorphic affine form of right translation by (w, s): it shifts
        # the chart's boundary part and leaves the height untouched.
        shift = (
            phi.element.t
            + 0.25j * float(np.sum(np.abs(w) ** 2))
            + 0.5j * np.sum(p.zeta_prime * np.conj(w))
        )
        return SiegelPoint(zeta_prime=p.zeta_prime + w, zeta_last=p.zeta_last + shift)
    if isinstance(phi, Dilation):
        d = phi.delta
        return SiegelPoint(zeta_prime=d * p.zeta_prime, zeta_last=d * d * p.zeta_last)
    if isinstance(phi, Unitary):
        if phi.matrix.shape[0] != p.n:
            raise InvalidParameterError("unitary dimension mismatch")
        return SiegelPoint(zeta_prime=phi.matrix @ p.zeta_prime, zeta_last=p.zeta_last)
    if isinstance(phi, Inversion):
        if p.zeta_last == 0:
            raise InvalidParameterError("inversion pole: zeta_last = 0")
        return SiegelPoint(
            zeta_prime=1j * p.zeta_prime / p.zeta_last, zeta_last=-1.0 / p.zeta_last
        )
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
    return {
        "zeta_prime": _vector_to_json(p.zeta_prime),
        "zeta_last": _complex_to_json(p.zeta_last),
    }


def point_from_json(doc: dict) -> SiegelPoint:
    re, im = doc["zeta_last"]
    return SiegelPoint(
        zeta_prime=_vector_from_json(doc["zeta_prime"]), zeta_last=complex(re, im)
    )


def chart_to_json(c: HorocyclicCoordinates) -> dict:
    return {"z": _vector_to_json(c.z), "t": c.t, "h": c.h}


def chart_from_json(doc: dict) -> HorocyclicCoordinates:
    return HorocyclicCoordinates(
        z=_vector_from_json(doc["z"]), t=float(doc["t"]), h=float(doc["h"])
    )


def ball_point_to_json(w: BallPoint) -> dict:
    return {"omega": _vector_to_json(w.omega)}


def ball_point_from_json(doc: dict) -> BallPoint:
    return BallPoint(omega=_vector_from_json(doc["omega"]))
