"""Measure criteria and exact moments of pseudo-measures on Z_p^n.

A pseudo-measure is a measure when, in its own basis (which starts with
its denominator vectors), the numerator vanishes on every pole T_i = 0 of
the transform delta_{b_i} -> 1 + T_i: that divisibility test is the
series-side measure criterion. When p divides the index of the
denominator lattice it runs per coset, and the pseudo-measure is a
measure when every coset passes. Poles are decided exactly, on sums of numerator
coefficients, and the test must agree with the vanishing-hypothesis test
on slices on single-coset inputs.

The moments of a measure are rational (Shintani's zeta values at negative
integers), and moment_table reads them exactly off the Laplace transform
int e^{s.c} dmu: a finite sum of exponentials over a product of factors
1 - e^{s_i}, i.e. power sums of the numerator times Bernoulli numbers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, prod
from typing import Sequence

from . import linalg
from .cones import OpenCone
from .errors import NonUnitDenominator, NotAMeasure
from .linalg import IntVec
from .solomon_hu import PseudoMeasure
from .testfunctions import TestFunction, _fibres_vanish, check_vh


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
    """Series-side measure criterion, per coset of the denominator lattice.

    True iff for every coset and every denominator ray b_i, the coset
    numerator vanishes at T_i = 0. Setting T_i = 0 leaves the transform of
    the Diracs obtained by dropping the i-th basis coordinate, and that
    transform is injective, so the test is that every fibre sum of the
    coefficients over (coset, basis coordinates other than the i-th) is
    zero: exact, with no precision or degree. On single-coset inputs it
    agrees with the vanishing-hypothesis test by the divisibility
    criterion.
    """
    return not a.num or _poles_vanish(a, p, *_coordinates(a))


def _coordinates(a: PseudoMeasure) -> tuple:
    """(basis, adj, d, [(adj v, c)]) over the terms c delta_v of a's
    numerator, for a's own basis: adj v / d are v's basis coordinates."""
    basis = extend_denominator_basis(a, a.dim)
    adj, d = linalg.adjugate(linalg.transpose(basis))
    return basis, adj, d, [(linalg.mat_vec(adj, v), c) for v, c in a.num.terms.items()]


def _poles_vanish(a: PseudoMeasure, p: int, basis, _adj, _d, terms: list) -> bool:
    h = linalg.coset_lattice(linalg.transpose(basis), p)
    one = prod(h[i][i] for i in range(len(h))) == 1  # p does not divide the index
    reps = [()] * len(terms) if one else [linalg._coset_rep(h, v) for v in a.num.terms]
    return all(_fibres_vanish(((rep, y[:i] + y[i + 1:]), c) for rep, (y, c) in zip(reps, terms))
               for i in range(len(a.den)))


def _bernoulli(k: int) -> list[Fraction]:
    """B_0..B_k with B_1 = -1/2, the coefficients of s/(e^s - 1) = sum
    B_j s^j / j!, from sum_{j<=m} C(m+1, j) B_j = 0."""
    out = [Fraction(1)]
    for m in range(1, k + 1):
        out.append(-sum(comb(m + 1, j) * out[j] for j in range(m)) / (m + 1))
    return out


def moment_table(a: PseudoMeasure, p: int, orders: Sequence[Sequence[int]]) -> list[Fraction]:
    """The exact moment int x^kk dmu, in the standard coordinates of the
    ambient lattice, for each order kk; NotAMeasure unless a is a measure
    at p.

    In the basis b of extend_denominator_basis, r = len(a.den), the basis
    coordinates of a numerator point v are y_v / d with y_v = adj v and
    d = |det b|, and the Laplace transform of the measure is
        F(s) = (-1)^r N(s) / prod_{i<r} s_i * prod_{i<r} s_i / (e^{s_i} - 1)
    with N(s) = sum_v c_v e^{s.y_v/d}. N's coefficient at alpha is the
    power sum P_alpha = sum_v c_v y_v^alpha over d^|alpha| alpha!; dividing
    by the s_i shifts the exponent, since N vanishes on every s_i = 0 once
    the measure test has passed; and the last factor is sum_k B_k s^k / k!
    in each s_i. The basis moment int c^gamma dmu is gamma! [s^gamma] F,
    and x = sum_i c_i b_i expands x^kk into basis monomials.
    """
    if not a.num:
        return [Fraction(0)] * len(orders)
    basis, _adj, d, terms = coords = _coordinates(a)
    if not _poles_vanish(a, p, *coords):
        raise NotAMeasure("series-side divisibility test fails")
    n, r = len(basis), len(a.den)
    bernoulli = _bernoulli(max((sum(kk) for kk in orders), default=0))
    shifted: dict[tuple[int, ...], Fraction] = {}  # [s^beta] N(s) / prod_{i<r} s_i
    basis_moments: dict[tuple[int, ...], Fraction] = {}

    def shifted_coeff(beta: tuple[int, ...]) -> Fraction:
        if beta not in shifted:
            alpha = tuple(e + 1 if i < r else e for i, e in enumerate(beta))
            power_sum = sum(c * prod(y**e for y, e in zip(ys, alpha)) for ys, c in terms)
            shifted[beta] = power_sum / Fraction(d ** sum(alpha) * prod(map(factorial, alpha)))
        return shifted[beta]

    def basis_moment(gamma: tuple[int, ...]) -> Fraction:
        if gamma not in basis_moments:
            total = Fraction(0)
            for kappa in product(*(range(g + 1) for g in gamma[:r])):
                beta = tuple(g - k for g, k in zip(gamma, kappa)) + gamma[r:]
                total += shifted_coeff(beta) * prod(bernoulli[k] / factorial(k) for k in kappa)
            basis_moments[gamma] = (-1) ** r * prod(map(factorial, gamma)) * total
        return basis_moments[gamma]

    table = []
    for kk in orders:
        poly = {(0,) * n: 1}  # x^kk in basis monomials
        for j, k in enumerate(kk):
            for _ in range(k):
                step: dict[tuple[int, ...], int] = {}
                for gamma, w in poly.items():
                    for i, b in enumerate(basis):
                        if b[j]:
                            g = gamma[:i] + (gamma[i] + 1,) + gamma[i + 1:]
                            step[g] = step.get(g, 0) + w * b[j]
                poly = step
        table.append(sum((w * basis_moment(g) for g, w in poly.items() if w), Fraction(0)))
    return table
