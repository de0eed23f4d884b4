"""Measure criteria and exact moments of pseudo-measures on Z_p^n.

A pseudo-measure is a measure when, in its own basis (which starts with
its denominator vectors), the numerator vanishes on every pole T_i = 0 of
the transform delta_{b_i} -> 1 + T_i: that divisibility test is the
series-side measure criterion. When p divides the index of the
denominator lattice it runs per class of the lattice's p-adic closure, and
the pseudo-measure is a measure when every class passes. Poles are decided
exactly, on sums of numerator coefficients, and the test must agree with
the vanishing-hypothesis test on slices on single-class inputs.

The moments of a measure are rational (Shintani's zeta values at negative
integers), and moment_table reads them exactly off the Laplace transform
int e^{s.c} dmu: a finite sum of exponentials over a product of factors
1 - e^{s_i}, i.e. integer power sums of the numerator times integers L B_k,
over a denominator known in advance: one exact division per moment.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm, prod
from typing import Sequence

from . import linalg
from .cones import OpenCone
from .errors import NonUnitDenominator, NotAMeasure
from .linalg import IntVec
from .solomon_hu import PseudoMeasure
from .testfunctions import TestFunction, _fibres_vanish, _is_prime, check_vh


def extend_denominator_basis(a: PseudoMeasure, n: int) -> list[IntVec]:
    """Basis of Q^n starting with the denominator vectors of a, completed
    by a complement of the saturation of their span: the trailing rows of
    u_inv in hermite(dens), whose leading rows saturate the span."""
    dens = list(dict.fromkeys(a.den))
    if len(dens) != len(a.den):
        raise NonUnitDenominator("repeated denominator factors are not aligned")
    if not dens:
        return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    return dens + list(linalg.hermite(dens)[2][len(dens):])


def is_measure_vh(c: OpenCone, f: TestFunction) -> bool:
    """Exact measure criterion: the vanishing hypothesis must hold for
    every extremal ray of the cone."""
    return all(check_vh(f, g) for g in c.generators)


def is_measure_amice(a: PseudoMeasure, p: int) -> bool:
    """Series-side measure criterion, per class of the p-adic closure of
    the denominator lattice.

    True iff for every class and every denominator ray b_i, the class
    numerator vanishes at T_i = 0. Setting T_i = 0 leaves the transform of
    the Diracs obtained by dropping the i-th basis coordinate, and that
    transform is injective, so the test is that every fibre sum of the
    coefficients over (class, basis coordinates other than the i-th) is
    zero: exact, with no precision or degree. The classes are read off the
    coordinates y = adj v (`_poles_vanish`), so none is ever listed. On
    single-class inputs it agrees with the vanishing-hypothesis test by the
    divisibility criterion.
    """
    return not a.num or _poles_vanish(a, p, *_coordinates(a)[1:])


def _coordinates(a: PseudoMeasure) -> tuple:
    """(basis, d, [(adj v, c)]) over the terms c delta_v of a's numerator,
    for a's own basis: adj v / d are v's basis coordinates."""
    basis = extend_denominator_basis(a, a.dim)
    adj, d = linalg.adjugate(linalg.transpose(basis))
    return basis, d, [(linalg.mat_vec(adj, v), c) for v, c in a.num.terms.items()]


def _poles_vanish(a: PseudoMeasure, p: int, d: int, terms: list) -> bool:
    """The fibre test of is_measure_amice on the (y, c) pairs of
    _coordinates. With p^k the p-part of d, v and v' share a class of
    Z^n / (B Z^n + p^k Z^n), B the basis, exactly when y = y' mod p^k:
    adj B z = d z, and for d = p^k m, m(v - v') lies in B Z^n with m a unit
    mod p^k. So the fibre key of pole i is y with y_i taken mod p^k."""
    pk = gcd(d, p ** d.bit_length())
    return all(_fibres_vanish((y[:i] + (y[i] % pk,) + y[i + 1:], c) for y, c in terms)
               for i in range(len(a.den)))


def _bernoulli(k: int) -> tuple[int, list[int]]:
    """(L, [L B_0, ..., L B_k]): B_1 = -1/2, s/(e^s - 1) = sum B_j s^j / j!,
    and L the lcm of their denominators, by von Staudt-Clausen (D_1 = 2,
    D_j = prod_{(p-1) | j} p for even j) the primes p <= k + 1. The
    recurrence sum_{j<=m} C(m+1, j) B_j = 0 divides exactly."""
    out = [prod(q for q in range(2, k + 2) if _is_prime(q))]  # L B_0 = L
    for m in range(1, k + 1):
        out.append(-sum(comb(m + 1, j) * out[j] for j in range(m)) // (m + 1))
    return out[0], out


def moment_table(a: PseudoMeasure, p: int, orders: Sequence[Sequence[int]]) -> list[Fraction]:
    """The exact moment int x^kk dmu, in the standard coordinates of the
    ambient lattice, for each order kk; NotAMeasure unless a is a measure
    at p.

    In the basis b of extend_denominator_basis, r = len(a.den), the basis
    coordinates of a numerator point v are y_v / d with y_v = adj v and
    d = det b, and the Laplace transform of the measure is
        F(s) = (-1)^r N(s) / prod_{i<r} s_i * prod_{i<r} s_i / (e^{s_i} - 1)
    with N(s) = sum_v c_v e^{s.y_v/d}. N's coefficient at alpha is the
    integer power sum P_alpha = sum_v c_v y_v^alpha over d^|alpha| alpha!;
    dividing by the s_i shifts the exponent, since N vanishes on every
    s_i = 0 once the measure test has passed; and the last factor is
    sum_k B_k s^k / k! in each s_i. The basis moment int c^gamma dmu is
    gamma! [s^gamma] F. With alpha = gamma - kappa + 1_r, |gamma| = K, L of
    _bernoulli and q = lcm(1..max K + 1) it is (-1)^r S(gamma) / (d^(K+r)
    (L q)^r) for the integer S(gamma) = sum_kappa P_alpha prod_{i<r}
    c(gamma_i, kappa_i), c(g, k) = C(g+1, k) q/(g+1) d^k L B_k, summed one
    axis at a time. x = sum_i c_i b_i expands x^kk into basis monomials,
    x^kk = x^(kk - e_j) x_j, so each order is one Fraction: an integer over
    cden d^(K+r) (L q)^r, where cden clears the coefficients.
    """
    if not a.num:
        return [Fraction(0)] * len(orders)
    basis, d, terms = _coordinates(a)
    if not _poles_vanish(a, p, d, terms):
        raise NotAMeasure("series-side divisibility test fails")
    n, r = len(basis), len(a.den)
    cden = lcm(*(c.denominator for _, c in terms))
    terms = [(ys, c.numerator * (cden // c.denominator)) for ys, c in terms]
    top = max((sum(kk) for kk in orders), default=0)
    big, bern = _bernoulli(top)
    q = lcm(*range(1, top + 2))
    coef = [[comb(g + 1, k) * (q // (g + 1)) * d**k * b for k, b in enumerate(bern[:g + 1])]
            for g in range(top + 1)]  # c(g, k)
    # sums[j][t]: P_t summed over kappa_i on the axes i < j, where t_i = gamma_i
    sums: list[dict[tuple[int, ...], int]] = [{} for _ in range(r + 1)]

    def summed(j: int, t: tuple[int, ...]) -> int:
        if t not in sums[j]:
            if j == 0:
                sums[0][t] = sum(c * prod(y**e for y, e in zip(ys, t)) for ys, c in terms)
            else:
                g, head, tail = t[j - 1], t[:j - 1], t[j:]
                sums[j][t] = sum(c * summed(j - 1, head + (g - k + 1,) + tail)
                                 for k, c in enumerate(coef[g]) if c)
        return sums[j][t]

    polys = {(0,) * n: {(0,) * n: 1}}  # x^kk in basis monomials, by kk
    table, layer = [], 1
    for kk in orders:
        if sum(kk) > layer:  # for orders by total, keep x^kk for the totals 0, K - 1, K
            layer = sum(kk)
            polys = {g: x for g, x in polys.items() if sum(g) + 1 >= layer or not any(g)}
        chain, key = [], tuple(kk)  # x^kk = x^(kk - e_j) x_j for the last axis j of kk
        while key not in polys:
            j = max(i for i, k in enumerate(key) if k)
            chain.append((key, j))
            key = key[:j] + (key[j] - 1,) + key[j + 1:]
        for key, j in reversed(chain):
            polys[key] = step = {}
            for gamma, w in polys[key[:j] + (key[j] - 1,) + key[j + 1:]].items():
                for i, b in enumerate(basis):
                    if b[j]:
                        g = gamma[:i] + (gamma[i] + 1,) + gamma[i + 1:]
                        step[g] = step.get(g, 0) + w * b[j]
        num = sum(w * summed(r, g) for g, w in polys[tuple(kk)].items() if w)
        table.append(Fraction((-1) ** r * num, cden * d ** (sum(kk) + r) * (big * q) ** r))
    return table
