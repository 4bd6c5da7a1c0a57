"""Exact symbolic constants built from Gamma factors, powers of 2 and pi.

Every normalization constant in this package is a product of the form

    2^a * pi^b * prod Gamma(x_i) / prod Gamma(y_j)

To keep printed reports auditable, these constants are carried around as
structured expressions: :class:`GammaExpression` stores the exponents and the
Gamma arguments, renders a human-readable string such as
``"Γ(3)/(Γ(1)(4π)^2)"``, and evaluates to a float in log-space (so large
factorials never overflow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property


def _fmt_number(x: float) -> str:
    """Render a Gamma argument or exponent compactly (integers without .0)."""
    if x == int(x):
        return str(int(x))
    return repr(round(float(x), 12))


@dataclass(frozen=True)
class GammaExpression:
    """A positive constant 2^two_exp * pi^pi_exp * prod Γ(num)/prod Γ(den).

    ``two_exp`` and ``pi_exp`` are :class:`~fractions.Fraction` so half-integer
    powers (from sqrt(pi) factors) stay exact.
    """

    two_exp: Fraction = Fraction(0)
    pi_exp: Fraction = Fraction(0)
    gamma_num: tuple[float, ...] = field(default=())
    gamma_den: tuple[float, ...] = field(default=())
    rational: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        for arg in (*self.gamma_num, *self.gamma_den):
            if arg <= 0:
                raise ValueError(f"Gamma argument must be positive, got {arg}")
        if self.rational <= 0:
            raise ValueError("rational factor must be positive")

    @cached_property
    def value(self) -> float:
        """The constant as a float, computed once per expression."""
        log = (
            math.log(float(self.rational))
            + float(self.two_exp) * math.log(2.0)
            + float(self.pi_exp) * math.log(math.pi)
            + sum(math.lgamma(x) for x in self.gamma_num)
            - sum(math.lgamma(y) for y in self.gamma_den)
        )
        return math.exp(log)

    def __mul__(self, other: "GammaExpression") -> "GammaExpression":
        return GammaExpression(
            two_exp=self.two_exp + other.two_exp,
            pi_exp=self.pi_exp + other.pi_exp,
            gamma_num=self.gamma_num + other.gamma_num,
            gamma_den=self.gamma_den + other.gamma_den,
            rational=self.rational * other.rational,
        )

    def reciprocal(self) -> "GammaExpression":
        return GammaExpression(
            two_exp=-self.two_exp,
            pi_exp=-self.pi_exp,
            gamma_num=self.gamma_den,
            gamma_den=self.gamma_num,
            rational=1 / self.rational,
        )

    @property
    def text(self) -> str:
        """Human-readable rendering, e.g. ``"Γ(3)/(Γ(1)(4π)^2)"``.

        Powers of 2 and pi are merged into a ``(4π)^k`` or ``(2π)^k`` factor
        when the exponents line up (these are the shapes that occur here);
        leftovers are printed as separate ``2^a``/``π^b`` factors.
        """
        two, pi = self.two_exp, self.pi_exp
        num_parts: list[str] = [f"Γ({_fmt_number(x)})" for x in self.gamma_num]
        den_parts: list[str] = [f"Γ({_fmt_number(y)})" for y in self.gamma_den]
        if self.rational != 1:
            if self.rational.denominator == 1:
                num_parts.insert(0, str(self.rational.numerator))
            else:
                num_parts.insert(0, f"({self.rational})")

        def push(base: str, exp: Fraction) -> None:
            if exp == 0:
                return
            mag = abs(exp)
            if mag == 1:
                part = base
            elif mag.denominator == 1:
                part = f"{base}^{mag}"
            else:
                part = f"{base}^({mag})"
            (num_parts if exp > 0 else den_parts).append(part)

        # Merge into (4π)^k when the 2-exponent is twice the π-exponent,
        # into (2π)^k when they coincide; otherwise keep separate factors.
        if pi != 0 and two == 2 * pi and pi.denominator == 1:
            push("(4π)", pi)
        elif pi != 0 and two == pi and pi.denominator == 1:
            push("(2π)", pi)
        else:
            push("2", two)
            push("π", pi)

        num = "·".join(num_parts) if num_parts else "1"
        if not den_parts:
            return num
        if len(den_parts) == 1:
            return f"{num}/{den_parts[0]}"
        return f"{num}/(" + "".join(den_parts) + ")"


def szego_constant(n: int) -> GammaExpression:
    """n! / (4π)^(n+1): the boundary-pairing kernel normalization."""
    return GammaExpression(
        two_exp=Fraction(-2 * (n + 1)),
        pi_exp=Fraction(-(n + 1)),
        gamma_num=(n + 1.0,),
    )


def bergman_constant(n: int, nu: float) -> GammaExpression:
    """Γ(n+2+ν) / (Γ(ν+1)(4π)^(n+1)): weighted volume-pairing normalization."""
    if nu <= -1:
        raise ValueError(f"weight exponent must exceed -1, got {nu}")
    return GammaExpression(
        two_exp=Fraction(-2 * (n + 1)),
        pi_exp=Fraction(-(n + 1)),
        gamma_num=(n + 2.0 + nu,),
        gamma_den=(nu + 1.0,),
    )


def weighted_dirichlet_constant(n: int, m: int, nu: float) -> GammaExpression:
    """4^m Γ(n+2+ν) / (Γ(2m+ν+1)(4π)^(n+1)): order-m derivative-pairing normalization."""
    if 2 * m + nu <= -1:
        raise ValueError(f"need 2m+ν > -1, got m={m}, ν={nu}")
    return GammaExpression(
        two_exp=Fraction(2 * m - 2 * (n + 1)),
        pi_exp=Fraction(-(n + 1)),
        gamma_num=(n + 2.0 + nu,),
        gamma_den=(2 * m + nu + 1.0,),
    )


def dirichlet_log_constant(n: int, m: int) -> GammaExpression:
    """2^(2m-n-1) / (Γ(2m-n-1)(2π)^(n+1)): logarithmic-kernel normalization.

    Requires 2m > n+1.  (The exponent 2m-n-1, not 2m-n, is the value the
    subtracted synthesis actually produces; see the decisions ledger.)
    """
    if 2 * m <= n + 1:
        raise ValueError(f"need 2m > n+1, got m={m}, n={n}")
    return GammaExpression(
        two_exp=Fraction(2 * m - n - 1) - Fraction(n + 1),
        pi_exp=Fraction(-(n + 1)),
        gamma_den=(2.0 * m - n - 1.0,),
    )


def ball_dirichlet_constant(n: int) -> GammaExpression:
    """(n+1)! / π^(n+1): unit-ball logarithmic-kernel normalization."""
    return GammaExpression(pi_exp=Fraction(-(n + 1)), gamma_num=(n + 2.0,))


def paley_wiener_constant(n: int, m: int, nu: float) -> GammaExpression:
    """Γ(2m+ν+1)/2^(2m+ν+1): norm-identity constant between a holomorphic-space
    norm of order m/weight ν and the spectral-side norm.  m=0 gives the
    volume-pairing case; the boundary-pairing case (ν=-1, m=0) degenerates to 1
    and is handled by the caller."""
    if 2 * m + nu <= -1:
        raise ValueError(f"need 2m+ν > -1, got m={m}, ν={nu}")
    num = 2 * m + nu + 1.0
    return GammaExpression(
        two_exp=Fraction(-num).limit_denominator(10**9),
        gamma_num=(num,),
    )
