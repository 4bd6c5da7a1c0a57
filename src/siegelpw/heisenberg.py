"""The boundary group of the Siegel upper half-space.

Elements are pairs ``[z, t]`` with ``z ∈ C^n`` and ``t ∈ R``, multiplying as

    [w, s] · [z, t] = [w + z, s + t - Im(w · conj(z)) / 2],

where ``w · conj(z) = Σ_j w_j conj(z_j)``.  The gauge
``|[z,t]| = (|z|^4/16 + t^2)^{1/4}`` is homogeneous of degree one under the
anisotropic dilations ``(z, t) -> (δ z, δ^2 t)``, and ``d(a, b) = |a b^{-1}|``
is a right-invariant distance.  Haar measure is Lebesgue measure ``dz dt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "HeisenbergElement",
    "identity",
    "mul",
    "inv",
    "homogeneous_norm",
    "distance",
    "dilate",
]


@dataclass(frozen=True)
class HeisenbergElement:
    """A group element ``[z, t]``; ``z`` is a length-n complex vector."""

    z: np.ndarray = field()
    t: float = 0.0

    def __post_init__(self) -> None:
        z = np.atleast_1d(np.asarray(self.z, dtype=complex))
        if z.ndim != 1 or z.size < 1:
            raise InvalidParameterError("z must be a nonempty complex vector")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", float(self.t))

    @property
    def n(self) -> int:
        return self.z.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeisenbergElement):
            return NotImplemented
        return self.t == other.t and np.array_equal(self.z, other.z)


def identity(n: int) -> HeisenbergElement:
    return HeisenbergElement(np.zeros(n, dtype=complex), 0.0)


def _check_compatible(a: HeisenbergElement, b: HeisenbergElement) -> None:
    if a.n != b.n:
        raise InvalidParameterError(f"dimension mismatch: {a.n} vs {b.n}")


def mul(a: HeisenbergElement, b: HeisenbergElement) -> HeisenbergElement:
    """Group product ``a · b`` (twist term ``-Im(a.z · conj(b.z))/2``)."""
    _check_compatible(a, b)
    twist = float(np.imag(np.sum(a.z * np.conj(b.z))))
    return HeisenbergElement(a.z + b.z, a.t + b.t - 0.5 * twist)


def inv(a: HeisenbergElement) -> HeisenbergElement:
    """Group inverse ``[-z, -t]``."""
    return HeisenbergElement(-a.z, -a.t)


def homogeneous_norm(a: HeisenbergElement) -> float:
    """The gauge ``(|z|^4/16 + t^2)^{1/4}``, 1-homogeneous under dilations."""
    zsq = float(np.sum(np.abs(a.z) ** 2))
    return float((zsq**2 / 16.0 + a.t**2) ** 0.25)


def distance(a: HeisenbergElement, b: HeisenbergElement) -> float:
    """Right-invariant gauge distance ``|a · b^{-1}|``."""
    return homogeneous_norm(mul(a, inv(b)))


def dilate(delta: float, a: HeisenbergElement) -> HeisenbergElement:
    """Anisotropic dilation ``(z, t) -> (δ z, δ^2 t)``, δ > 0."""
    if delta <= 0:
        raise InvalidParameterError(f"dilation factor must be positive, got {delta}")
    return HeisenbergElement(delta * a.z, delta * delta * a.t)
