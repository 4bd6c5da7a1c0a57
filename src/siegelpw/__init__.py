"""siegelpw: Paley-Wiener transforms, reproducing kernels, and norm identities
for holomorphic function spaces on the Siegel upper half-space, certified by
quadrature.

Modules
-------
quadrature      Gauss rules (half-line, Gaussian, mapped boxes) and Monte Carlo.
heisenberg      The boundary group: product, norm, distance, dilations.
siegel          Domain geometry: points, charts, automorphisms, the ball.
fock            Truncated holomorphic L^2 spaces of entire functions.
bargmann        The unitary boundary-group action on those spaces.
spectral        Rank-one spectral data, synthesis, and space norms.
kernels         Closed-form reproducing kernels and their certification checks.
drury_arveson   Coefficient and integral norms for ball polynomials.
cli             Batch verification driver and evaluators.
"""

from . import (
    bargmann,
    cli,
    drury_arveson,
    errors,
    fock,
    gammaexpr,
    heisenberg,
    kernels,
    quadrature,
    siegel,
    spectral,
)

__version__ = "0.1.0"

__all__ = [
    "bargmann",
    "cli",
    "drury_arveson",
    "errors",
    "fock",
    "gammaexpr",
    "heisenberg",
    "kernels",
    "quadrature",
    "siegel",
    "spectral",
    "__version__",
]
