"""p-adic expansions of exact rationals, for printing.

A nonzero rational x is written unit * p^val with p not dividing the unit,
and the unit is printed modulo p^prec (prec digits). Zero prints as "0".
The values themselves are exact rationals; only their printed form has a
precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _p_val(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True, slots=True)
class PadicScalar:
    p: int
    val: int
    unit: int  # 0 only for zero
    prec: int  # digits of the unit

    @staticmethod
    def from_rational(x, p: int, prec: int) -> "PadicScalar":
        x = Fraction(x)
        if x == 0:
            return PadicScalar(p, 0, 0, prec)
        num, den = x.numerator, x.denominator
        vn, vd = _p_val(abs(num), p), _p_val(den, p)
        mod = p ** prec
        unit = (num // p**vn * pow(den // p**vd, -1, mod)) % mod
        return PadicScalar(p, vn - vd, unit, prec)

    def __str__(self) -> str:
        if self.unit == 0:
            return "0"
        return f"{self.p}^{self.val}*{self.unit}"
