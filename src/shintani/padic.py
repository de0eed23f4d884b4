"""Finite-precision p-adic scalars with explicit valuation.

A scalar is unit * p^val with the unit known modulo p^prec (prec relative
digits). unit == 0 encodes a value known only to be in p^val * Z_p: the
"zero at precision" element produced by cancellation. Exact zero carries
infinite valuation. Addition and multiplication track the surviving
precision, so a moment that cancels prints as O(p^a), not as a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, isqrt

_INF = inf


def _p_val(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True, slots=True)
class PadicScalar:
    p: int
    val: int | float  # inf for exact zero
    unit: int  # 0 encodes O(p^val)
    prec: int  # relative precision in digits (ignored for exact zero)

    def __post_init__(self):
        if self.unit:
            if self.unit % self.p == 0:
                raise ValueError("unit mantissa divisible by p")
            if self.prec < 1:
                raise ValueError("positive precision required for a nonzero unit")

    @staticmethod
    def exact_zero(p: int) -> "PadicScalar":
        return PadicScalar(p, _INF, 0, 0)

    @staticmethod
    def zero_at(p: int, abs_prec: int) -> "PadicScalar":
        return PadicScalar(p, abs_prec, 0, 0)

    @staticmethod
    def from_rational(x, p: int, prec: int) -> "PadicScalar":
        x = Fraction(x)
        if x == 0:
            return PadicScalar.exact_zero(p)
        num, den = x.numerator, x.denominator
        v = _p_val(abs(num), p) - _p_val(den, p)
        num //= p ** max(0, _p_val(abs(num), p))
        den //= p ** max(0, _p_val(den, p))
        mod = p ** prec
        unit = (num * pow(den, -1, mod)) % mod
        return PadicScalar(p, v, unit, prec)

    # -- structure ---------------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.unit == 0 and self.val == _INF

    @property
    def is_zero(self) -> bool:
        """Indistinguishable from zero at the available precision."""
        return self.unit == 0

    @property
    def abs_prec(self) -> int | float:
        """Known divisibility horizon: the value is determined mod p^abs_prec."""
        if self.unit == 0:
            return self.val
        return self.val + self.prec

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "PadicScalar"):
        if self.p != other.p:
            raise ValueError("mixed primes")

    def __add__(self, other: "PadicScalar") -> "PadicScalar":
        self._check(other)
        if self.is_exact_zero:
            return other
        if other.is_exact_zero:
            return self
        abs_prec = min(self.abs_prec, other.abs_prec)
        base = min(self.val, other.val)
        digits = int(abs_prec - base)
        if digits <= 0:
            return PadicScalar.zero_at(self.p, int(abs_prec))
        mod = self.p ** digits
        total = 0
        for s in (self, other):
            if s.unit:
                total += s.unit * self.p ** int(s.val - base)
        total %= mod
        if total == 0:
            return PadicScalar.zero_at(self.p, int(abs_prec))
        v = _p_val(total, self.p)
        unit = (total // self.p ** v) % (self.p ** (digits - v))
        if digits - v <= 0 or unit == 0:
            return PadicScalar.zero_at(self.p, int(abs_prec))
        return PadicScalar(self.p, base + v, unit, digits - v)

    def __neg__(self) -> "PadicScalar":
        if self.unit == 0:
            return self
        return PadicScalar(self.p, self.val, (-self.unit) % self.p ** self.prec, self.prec)

    def __sub__(self, other: "PadicScalar") -> "PadicScalar":
        return self + (-other)

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        self._check(other)
        if self.is_exact_zero or other.is_exact_zero:
            return PadicScalar.exact_zero(self.p)
        if self.unit == 0 or other.unit == 0:
            return PadicScalar.zero_at(self.p, int(self.val + other.val))
        prec = min(self.prec, other.prec)
        unit = (self.unit * other.unit) % self.p ** prec
        return PadicScalar(self.p, self.val + other.val, unit, prec)

    def eq_at_precision(self, other: "PadicScalar") -> bool:
        """Agreement modulo p^(common absolute precision)."""
        diff = self - other
        return diff.is_zero

    def __str__(self) -> str:
        if self.is_exact_zero:
            return "0"
        if self.unit == 0:
            return f"O({self.p}^{int(self.val)})"
        return f"{self.p}^{int(self.val)}*{self.unit}"


def rational_reconstruct(s: PadicScalar) -> Fraction | None:
    """Recover the small rational with the given p-adic expansion, if any.

    Standard half-extended-Euclid reconstruction of a fraction a/b from its
    residue modulo p^prec with |a|, b <= sqrt(m/2); the p-valuation is
    reattached afterwards. Returns None when no such small fraction exists
    or b is divisible by p.
    """
    if s.is_zero:
        return Fraction(0)
    m = s.p ** s.prec
    r = s.unit % m
    bound = isqrt(m // 2)
    r0, r1 = m, r
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or r1 == 0 and t1 != 1:
        return None
    a, b = r1, t1
    if b < 0:
        a, b = -a, -b
    if b % s.p == 0 or (a * pow(b, -1, m) - r) % m != 0:
        return None
    scale = Fraction(s.p) ** int(s.val)
    return Fraction(a, b) * scale
