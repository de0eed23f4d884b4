"""Measure criteria and exact moments of pseudo-measures on Z_p^n.

A pseudo-measure is a measure when, in its own basis (which starts with
its denominator vectors), the numerator vanishes on every pole T_i = 0 of
the transform delta_{b_i} -> 1 + T_i: that divisibility test is the
series-side measure criterion. When p divides the index of the
denominator lattice it runs per class of the lattice's p-adic closure, and
the pseudo-measure is a measure when every class passes. Poles are decided
exactly, on sums of numerator coefficients keyed by fibre representatives
read off the packed exponents, and the test must agree with the
vanishing-hypothesis test on slices on single-class inputs.

The moments of a measure are rational (Shintani's zeta values at negative
integers), and moment_table reads those of every order up to a total
exactly off the Laplace transform int e^{s.c} dmu: a finite sum of
exponentials over a product of factors 1 - e^{s_i}, i.e. integer power sums
of the numerator times integers L B_k, over a denominator known in advance:
one exact division per moment. The power sums are built column by column,
depth first on a stack of at most n per-term lists per total, and summed
against the Bernoulli terms level by level, one denominator axis at a time.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm, prod
from operator import mul

from . import linalg
from .errors import DependentInput, NonUnitDenominator, NotAMeasure
from .linalg import IntVec
from .solomon_hu import PseudoMeasure, _pack, _width
from .testfunctions import TestFunction, _fibres_vanish, _is_prime, check_vh


def extend_denominator_basis(a: PseudoMeasure, n: int) -> tuple[list[IntVec], int]:
    """(basis, d): a basis of Q^n starting with the denominator vectors of a,
    completed by the trailing rows of u^-1 = det(u) adj(u) for dens * u =
    [h | 0], whose leading rows saturate their span, and d = det(basis) =
    det(u) prod h_ii, read off the same pass; a full-rank dens builds no u."""
    dens, named = list(dict.fromkeys(a.den)), [list(u) for u in a.den]
    if len(dens) != len(a.den):
        raise NonUnitDenominator(f"repeated denominator factors are not aligned: {named}")
    if not dens:
        return list(linalg.identity(n)), 1
    try:
        _h, u, d = linalg.hermite(dens, with_u=len(dens) < n)
    except DependentInput as exc:
        raise DependentInput(f"denominator vectors {named} are linearly dependent") from exc
    adj, sign = linalg.adjugate(u) if u else ((), 1)  # det u = sign = +-1
    return dens + [tuple(sign * x for x in row) for row in adj[len(dens):]], d


def is_measure_vh(gens: Iterable[Sequence], f: TestFunction) -> bool:
    """Exact measure criterion for the cone on the generators gens: the
    vanishing hypothesis must hold on each generator's ray, its extremal rays."""
    return all(check_vh(f, g) for g in gens)


def is_measure_amice(a: PseudoMeasure, p: int) -> bool:
    """Series-side measure criterion, per class of the p-adic closure of
    the denominator lattice.

    True iff for every class and every denominator ray b_i, the class
    numerator vanishes at T_i = 0. Setting T_i = 0 leaves the transform of
    the Diracs obtained by dropping the i-th basis coordinate, and that
    transform is injective, so the test is that every fibre sum of the
    coefficients over (class, basis coordinates other than the i-th) is
    zero: exact, with no precision or degree. Each term is keyed by its
    fibre's representative (`_poles_vanish`), on the determinant d of the
    Hermite pass that validates the denominator, so no class is listed and
    no coordinate is built (nor, at full rank, any adjugate). On single-class
    inputs it agrees with the vanishing-hypothesis test by the divisibility
    criterion.
    """
    return not a.num or _poles_vanish(a, p, extend_denominator_basis(a, a.dim)[1])


def _poles_vanish(a: PseudoMeasure, p: int, d: int) -> bool:
    """The fibre test of is_measure_amice, with d = det B for a's own basis B.
    With p^k the p-part of d, v and v' share a class of Z^n / (B Z^n + p^k
    Z^n) and the basis coordinates other than the i-th exactly when v - v' =
    t s_i with rho_i | t: here b_i = c_i s_i with s_i primitive, adj s_i =
    (d / c_i) e_i, and rho_i = p^k / gcd(p^k, d / c_i). So the key of v is
    the fibre's one point with coordinate m between 0 and rho_i g, g = s_i[m]
    the entry of largest size: P(v) - floor(v_m / (rho_i g)) rho_i P(s_i),
    v_m one digit of the packed key P(v) (lift every digit, shift, mask,
    subtract the lift), at a width that holds 2 bound + rho_i |g|."""
    pk, n = gcd(d, p ** d.bit_length()), a.num.n
    poles, top = [], 0
    for b in a.den:  # b = c s with s primitive, and g = s[m] of largest size
        c = gcd(*b)
        g = max(s := [x // c for x in b], key=abs)
        rho = pk // gcd(pk, d // c)
        poles.append((rho, s, s.index(g)))
        top = max(top, rho * abs(g))
    W = _width(2 * a.num.bound + top)
    packed, half, mask = a.num._at(W), 1 << W - 1, (1 << W) - 1
    lift = ((1 << W * n) - 1) // mask * half  # half in every digit
    for rho, s, m in poles:
        rg, step, at = rho * s[m], rho * _pack(s, W), W * (n - 1 - m)
        keyed = [k - (((k + lift) >> at & mask) - half) // rg * step for k in packed]
        if not _fibres_vanish(zip(keyed, packed.values())):
            return False
    return True


@cache
def _bernoulli(k: int) -> tuple[int, tuple[int, ...]]:
    """(L, (L B_0, ..., L B_k)): B_1 = -1/2, s/(e^s - 1) = sum B_j s^j / j!,
    and L the lcm of their denominators, by von Staudt-Clausen (D_1 = 2,
    D_j = prod_{(p-1) | j} p for even j) the primes p <= k + 1. The
    recurrence sum_{j<=m} C(m+1, j) B_j = 0 divides exactly. Pure in k, so
    one row per k is kept, as a tuple that no caller can change."""
    out = [prod(q for q in range(2, k + 2) if _is_prime(q))]  # L B_0 = L
    for m in range(1, k + 1):
        out.append(-sum(comb(m + 1, j) * out[j] for j in range(m)) // (m + 1))
    return out[0], tuple(out)


def moment_table(a: PseudoMeasure, p: int, n: int, top: int) -> list[tuple[IntVec, Fraction]]:
    """The exact moments int x^kk dmu, in the standard coordinates of Z^n,
    as (kk, value) for every order kk of total at most top, sorted by
    (total, kk); NotAMeasure unless a is a measure at p, decided even when
    top < 0, and ValueError when a has a vector and n is not a.dim.

    In the basis b of extend_denominator_basis, r = len(a.den), the poles
    are decided first, on d = det b (_poles_vanish), and only a measure
    builds the adjugate: the basis coordinates of a numerator point v are
    y_v / d with y_v = adj v, and the Laplace transform of the measure is
        F(s) = (-1)^r N(s) / prod_{i<r} s_i * prod_{i<r} s_i / (e^{s_i} - 1)
    with N(s) = sum_v c_v e^{s.y_v/d}. N's coefficient at alpha is the
    integer power sum P_alpha = sum_v c_v y_v^alpha over d^|alpha| alpha!,
    read for every alpha = 1_r + beta with |beta| <= top off the columns of
    the y_v: the per-term list c_v y_v^alpha is that of alpha - e_j times
    column j, for the last axis j of beta, one product per term per key,
    walked depth first on an explicit stack, so at most n lists per total
    are alive and no Python frame is spent per order;
    dividing by the s_i shifts the exponent, since N vanishes on every
    s_i = 0 once the measure test has passed; and the last factor is
    sum_k B_k s^k / k! in each s_i. The basis moment int c^gamma dmu is
    gamma! [s^gamma] F. With alpha = gamma - kappa + 1_r, |gamma| = K, L of
    _bernoulli and q = lcm(1..top + 1) it is (-1)^r S(gamma) / (d^(K+r)
    (L q)^r) for the integer S(gamma) = sum_kappa P_alpha prod_{i<r}
    c(gamma_i, kappa_i), c(g, k) = C(g+1, k) q/(g+1) d^k L B_k, summed away
    one axis i < r at a time: each level is built from the one before and
    replaces it. x = sum_i c_i b_i expands x^kk into basis monomials,
    x^kk = x^(kk - e_j) x_j for the last axis j of kk, an order of total
    K - 1, so only the expansions of two totals are kept, and each order is
    one Fraction: an integer over cden d^(K+r) (L q)^r, where cden clears
    the coefficients. Orders, power-sum indices and monomials are packed
    ints, axis j the digit at W (n - 1 - j), so they sort as the tuples do.
    """
    if (a.num or a.den) and n != a.dim:
        raise ValueError(f"moment orders in n = {n} dimensions for a pseudo-measure in {a.dim}")
    if a.num:
        basis, d = extend_denominator_basis(a, n)
        if not _poles_vanish(a, p, d):  # decided before the adjugate is built
            raise NotAMeasure("series-side divisibility test fails")
        adj, r = linalg.adjugate(linalg.transpose(basis))[0], len(a.den)
        cols, cs = a.num.columns(adj), list(a.num.packed.values())
    else:  # every moment is 0, and in the standard basis each x^kk is one monomial
        basis, d, cols, cs, r = linalg.identity(n), 1, [[]] * n, [], 0
    cden = lcm(*(c.denominator for c in cs))
    big, bern = _bernoulli(top)
    q = lcm(*range(1, top + 2))
    coef = [[(k, comb(g + 1, k) * (q // (g + 1)) * d**k * b)
             for k, b in enumerate(bern[:g + 1]) if b] for g in range(top + 1)]  # nonzero c(g, k)
    W = (top + 2).bit_length() + 1  # a digit holds top + 1, the largest alpha_i
    mask, unit = (1 << W) - 1, [1 << W * (n - 1 - j) for j in range(n)]
    xs = [c.numerator * (cden // c.denominator) for c in cs]
    for col in cols[:r]:
        xs = list(map(mul, xs, col))
    # sums[t] = P_t for every t = 1_r + beta, |beta| <= top, walked depth first
    sums, stack = {}, [(sum(unit[:r]), 0, top, xs)]  # (t, last axis of beta, top - |beta|, [c y^t])
    while stack:
        t, last, left, xs = stack.pop()
        sums[t] = sum(xs)
        if left > 0:  # a child's list is its parent's times one column
            stack.extend((t + unit[j], j, left - 1, list(map(mul, xs, cols[j])))
                         for j in range(last, n))
    for j in range(r):  # axis j goes from alpha_j = g + 1 to gamma_j = g, summed over kappa_j
        u, at = unit[j], W * (n - 1 - j)
        sums = {t - u: sum(c * sums[t - k * u] for k, c in coef[g])
                for t in sums if 0 <= (g := (t >> at & mask) - 1) <= top}
    nonzero = [[(unit[i], b[j]) for i, b in enumerate(basis) if b[j]] for j in range(n)]
    rows, polys = [], {0: {0: 1}}  # x^kk in basis monomials, for kk of one total
    for total in range(top + 1):
        if total:
            prev, polys = polys, {}
            for o, x in prev.items():  # o = kk - e_j, whose last axis (lowest digit) is at most j
                for j in range(n - 1 - ((o & -o).bit_length() - 1) // W if o else 0, n):
                    polys[o + unit[j]] = step = {}
                    for gamma, w in x.items():
                        for e, b in nonzero[j]:
                            g = gamma + e
                            step[g] = step.get(g, 0) + w * b
            polys = dict(sorted(polys.items()))
        for kk, x in polys.items():
            num = sum(w * sums[g] for g, w in x.items() if w)
            rows.append((tuple(kk >> W * (n - 1 - i) & mask for i in range(n)),
                         Fraction((-1) ** r * num, cden * d ** (total + r) * (big * q) ** r)))
    return rows
