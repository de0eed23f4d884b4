"""Independent output checks for the benchmark workloads.

Nothing here calls into `shintani`: every check recomputes what it needs
from the generated input with plain integer and `Fraction` arithmetic, so a
defect in the library cannot hide itself by also breaking its own checker.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, gcd


def primitive(v) -> tuple[int, ...]:
    """Primitive integer vector on the ray through the rational vector v."""
    if all(isinstance(x, int) for x in v):
        g = gcd(*v)
        return tuple(x // g for x in v)
    fr = [Fraction(x) for x in v]
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def det(rows) -> int:
    """Integer determinant by cofactor expansion (n <= 3 in this benchmark)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(n)
        if rows[0][j]
    )


def vh_holds(table: dict, M: int, n: int, rays) -> bool:
    """Vanishing hypothesis: every slice along every ray sums to zero mod M."""
    for s in rays:
        for w in product(range(M), repeat=n):
            total = 0
            for t in range(M):
                key = tuple((w[j] + t * s[j]) % M for j in range(n))
                total += table.get(key, 0)
            if total:
                return False
    return True


def _bernoulli(n: int) -> list[Fraction]:
    out = [Fraction(1)]
    for m in range(1, n + 1):
        out.append(-sum(comb(m + 1, j) * out[j] for j in range(m)) / (m + 1))
    return out


def hurwitz_zeta_neg(k: int, x: Fraction) -> Fraction:
    """zeta(-k, x) = -B_{k+1}(x) / (k+1), Bernoulli numbers with B_1 = -1/2."""
    bs = _bernoulli(k + 1)
    poly = sum(comb(k + 1, j) * bs[j] * x ** (k + 1 - j) for j in range(k + 2))
    return -poly / (k + 1)


def rank_one_moments(table: dict, M: int, sign: int, orders: int) -> list[Fraction]:
    """Moments k = 0..orders of the measure paired from the ray sign*R_+
    with a level-M step function on Z.

    The pairing is sum_{r=1..M} f(sign*r) delta_{sign*r} / (1 - delta_{sign*M}),
    whose k-th moment is the regularized sum
    sum_r f(sign*r) * sign^k * M^k * zeta(-k, r/M).
    """
    out = []
    for k in range(orders + 1):
        total = Fraction(0)
        for r in range(1, M + 1):
            w = table.get(((sign * r) % M,), 0)
            if w:
                total += w * sign**k * M**k * hurwitz_zeta_neg(k, Fraction(r, M))
        out.append(total)
    return out


def integer_constant(pm: dict) -> int | None:
    """Return m when the pseudo-measure JSON equals m * delta_0 exactly.

    The numerator must equal m * prod_u (1 - delta_u), expanded here with
    integer dictionaries; any non-integral coefficient rules it out.
    """
    den = [tuple(u) for u in pm["denominator"]]
    num = {}
    for term in pm["numerator"]:
        c = Fraction(term["coeff"])
        if c.denominator != 1:
            return None
        num[tuple(term["vector"])] = int(c)
    if not num:
        return 0
    n = len(next(iter(num)))
    prod_terms = {(0,) * n: 1}
    for u in den:
        nxt = dict(prod_terms)
        for v, c in prod_terms.items():
            key = tuple(a + b for a, b in zip(v, u))
            nxt[key] = nxt.get(key, 0) - c
        prod_terms = {v: c for v, c in nxt.items() if c}
    anchor = min(prod_terms)
    m = Fraction(num.get(anchor, 0), prod_terms[anchor])
    if m.denominator != 1:
        return None
    m = int(m)
    expected = {v: m * c for v, c in prod_terms.items() if m * c}
    return m if expected == num else None
