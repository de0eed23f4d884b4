"""Independent oracles and test-only helpers for the test suite.

The oracles are deliberately naive (cofactor expansion, box scans, a
Fraction solve, textbook recurrences) and share no code with the library
paths they check; fraction_moment_table, the Fraction moment table the
integer one replaced, shares the reference measure test and coordinates
and checks only the arithmetic; restrictions restricts a measure to the
balls c + p^k Z_p^n, and ball_values reads each ball's value off
bernoulli_moments; line_moment, the transform restricted to a line, shares
nothing with the table, nor do quadratic_zeta_neg and dirichlet_l_neg,
the zeta values of a real quadratic field and the L-values of a quadratic
character from generalized Bernoulli numbers. coset_lattice and coset_rep, the Hermite classes the measure test used
before it keyed them by coordinates, are the
reference for that key, enumerate_fundamental_domain lists the library's
pairing cell in order, and cell_lifts lists the cell's lifts as tuples, the
reference for the pairing's lift bound. The helpers at the end were library code that only the
tests called: evaluation and the action of SL_n(Z) on step functions by
full walks over (Z/M)^n, the sum and difference of cone functions, wedges,
cone membership and evaluation, the sign-twisted action on cone functions,
the deformed-cone limit rule, the expansion of a deformed cone into open
faces with the per-face measure check on them, the ring operations of the
group algebra, the paired cocycle value, small pseudo-measure and slice
constructors, and the slice identity with its truncated q-expansion. They evaluate through
the oracles' Fraction solve and call the library only for the objects they
check. The reference readers at the very end are the JSON readers as they were
before they read integers as ints (every vector entry and coefficient through
Fraction), kept with the helpers they called, so that the new readers can be
compared with them value for value and message for message. The reference
kernels after them are linalg.hermite (reference_hermite, the whole pass
with u and u_inv both built, the only u_inv the tests read), det, adjugate
(with the triangular adjugate it was built on) and mat_mul (the tests' only matrix product,
since linalg.mat_mul left the library),
cones.deformed_cone, solomon_hu.pm_eq,
testfunctions.stabilizes, solomon_hu's pairing cell (_cell and _pair_cell),
pm_sum, amice.moment_table (its tuple-keyed integer form), amice's pole
test on the adjugate's coordinate columns (reference_coordinates and
reference_poles_vanish) and solomon_hu.act_pm as they were before their
leaner forms, kept verbatim so that each new kernel can be compared with
its old one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from math import ceil, comb, factorial, gcd, lcm, prod
from operator import mul
from typing import Sequence

from shintani import linalg, solomon_hu
from shintani.amice import _bernoulli, extend_denominator_basis, is_measure_amice, is_measure_vh
from shintani.cocycle import psi_cdg
from shintani.cones import OpenCone
from shintani.errors import (
    CellTooLarge,
    DependentInput,
    NotAMeasure,
    NotUnimodular,
    SchemaError,
    ShintaniError,
)
from shintani.linalg import IntVec
from shintani.solomon_hu import (
    CELL_POINT_BUDGET,
    GroupAlgebraElement,
    PseudoMeasure,
    _cell,
    _pack,
    _pack_columns,
    _weighted_sum,
    _width,
    pair_cone_function,
    pair_open_cone,
    pm_sum,
    pm_zero,
)
from shintani.testfunctions import TestFunction, _as_list, _fibres_vanish, random_congruence_element


def det_cofactor(m) -> Fraction:
    """Determinant by recursive cofactor expansion along the first row."""
    n = len(m)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * Fraction(m[0][j]) * det_cofactor(minor)
    return total


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0..B_n in the first convention (B_1 = -1/2), via the defining
    recurrence sum_{j<=m} C(m+1, j) B_j = 0."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * out[j]
        out.append(-acc / (m + 1))
    return out


def bernoulli_polynomial(k: int, x) -> Fraction:
    """B_k(x) = sum_j C(k, j) B_j x^{k-j}."""
    x = Fraction(x)
    bs = bernoulli_numbers(k)
    return sum(comb(k, j) * bs[j] * x ** (k - j) for j in range(k + 1))


def hurwitz_zeta_neg(k: int, x) -> Fraction:
    """zeta(-k, x) = -B_{k+1}(x) / (k+1) for integer k >= 0."""
    return -bernoulli_polynomial(k + 1, x) / (k + 1)


def kronecker(D: int, a: int) -> int:
    """The Kronecker symbol (D/a) for a discriminant D of either sign and an
    integer a >= 1, multiplicatively over the primes of a: Euler's criterion
    at an odd prime, and at 2 the rule (D/2) = 0, 1 or -1 as D = 0, +-1 or
    +-3 mod 8."""
    out, q = 1, 2
    while a > 1:
        while a % q == 0:
            a //= q
            if q == 2:
                out *= 0 if D % 2 == 0 else 1 if D % 8 in (1, 7) else -1
            else:
                e = pow(D, (q - 1) // 2, q)
                out *= 0 if e == 0 else 1 if e == 1 else -1
        q += 1
    return out


def dirichlet_l_neg(D: int, m: int) -> Fraction:
    """L(-m, chi_D) for the quadratic character chi_D = (D/.) of a fundamental
    discriminant D of either sign and an m >= 0: -B_{k,chi} / k for k = m + 1
    and the generalized Bernoulli number at the conductor c = |D|,
    B_{k,chi} = c^(k-1) sum_{a=1}^{c} chi(a) B_k(a / c)."""
    c, k = abs(D), m + 1
    return -c ** (k - 1) * sum(kronecker(D, a) * bernoulli_polynomial(k, Fraction(a, c))
                               for a in range(1, c + 1)) / k


def quadratic_zeta_neg(D: int, k: int) -> Fraction:
    """zeta_K(1 - k) for the real quadratic field K of discriminant D and an
    even k >= 2: zeta(1 - k) L(1 - k, chi_D), with zeta(1 - k) = -B_k / k."""
    return (-bernoulli_numbers(k)[k] / k) * dirichlet_l_neg(D, k - 1)


def cyclic_cubic_zeta_neg(c: int, k: int) -> Fraction:
    """zeta_K(1 - k) for the cyclic cubic field K of prime conductor c = 1 mod 3
    and an even k >= 2: zeta(1 - k) L(1 - k, chi) L(1 - k, chi-bar) for the two
    cubic characters of conductor c, chi(a) = w^j for a = g^j, g the least
    primitive root mod c and w a primitive cube root of 1. L(1 - k, chi) =
    -B_{k,chi} / k = x + y w with x, y rational (w^2 = -1 - w), and chi-bar
    gives its conjugate, so the product is the norm x^2 - xy + y^2."""
    g = next(g for g in range(2, c) if len({pow(g, j, c) for j in range(c - 1)}) == c - 1)
    x = y = Fraction(0)
    for j in range(c - 1):  # B_{k,chi} = c^(k-1) sum_a chi(a) B_k(a / c), chi(c) = 0
        t = -c ** (k - 1) * bernoulli_polynomial(k, Fraction(pow(g, j, c), c)) / k
        x, y = (x + t, y) if j % 3 == 0 else (x, y + t) if j % 3 == 1 else (x - t, y - t)
    return (-bernoulli_numbers(k)[k] / k) * (x * x - x * y + y * y)


def brute_cell_points(ws, n: int, closed=()) -> list[tuple[int, ...]]:
    """Integer points of the half-open cell, with coordinates in [0, 1) at
    the indices in closed and in (0, 1] at the others, by bounding-box scan
    plus an exact coordinate check."""
    lows = [sum(min(0, w[j]) for w in ws) for j in range(n)]
    highs = [sum(max(0, w[j]) for w in ws) for j in range(n)]
    out = []
    for pt in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        coords = _solve_coords(ws, pt)
        if coords is not None and all(0 <= c < 1 if i in closed else 0 < c <= 1
                                      for i, c in enumerate(coords)):
            out.append(pt)
    return sorted(out)


def _solve_coords(ws, pt):
    r = len(ws)
    n = len(pt)
    a = [[Fraction(ws[k][i]) for k in range(r)] + [Fraction(pt[i])] for i in range(n)]
    row = 0
    pivots = []
    for col in range(r):
        piv = next((i for i in range(row, n) if a[i][col] != 0), None)
        if piv is None:
            return None
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for i in range(n):
            if i != row and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        pivots.append(row)
        row += 1
    for i in range(row, n):
        if a[i][r] != 0:
            return None
    return [a[pivots[c]][r] for c in range(r)]


def brute_cone_lattice_points(gens, weights, bound) -> list[tuple[int, ...]]:
    """Integer points of an open cone with weight <= bound, by box scan.

    Assumes the weight functional is strictly positive on the closed cone
    minus the origin, so the region is bounded inside the scanned box.
    """
    n = len(gens[0])
    radius = int(bound) * max(
        1, max(abs(int(x)) for g in gens for x in [*g])
    ) + 1
    out = []
    for pt in product(range(-radius, radius + 1), repeat=n):
        w = sum(Fraction(a) * b for a, b in zip(weights, pt))
        if w > bound:
            continue
        coords = _solve_coords(gens, pt)
        if coords is not None and all(c > 0 for c in coords):
            out.append(pt)
    return sorted(out)


def value_at_rational(f, point) -> int:
    """Evaluate a level-M step function at a rational point that is
    integral away from p (denominators are powers of p), else 0."""
    M = f.M
    p = f.p
    residues = []
    for x in point:
        x = Fraction(x)
        den = x.denominator
        while den % p == 0:
            den //= p
        if den != 1:
            return 0  # not integral at some prime other than p
        residues.append((x.numerator * pow(x.denominator, -1, M)) % M)
    return f.values.get(tuple(residues), 0)


def rational_slice_haar(f, v, w) -> Fraction:
    """Haar average of the slice t -> f(w + t v) for rational w, computed
    directly: find a rational t0 putting the line onto the away-from-p
    lattice, then average one period; if no such t0 exists the slice is
    identically zero."""
    M = f.M
    p = f.p
    n = f.n
    dens = [Fraction(x).denominator for x in w]
    search = lcm(*dens, p, 4)
    t0 = None
    for d in range(1, search + 1):
        for a in range(-d * M, d * M + 1):
            cand = Fraction(a, d)
            ok = True
            for j in range(n):
                x = Fraction(w[j]) + cand * v[j]
                den = x.denominator
                while den % p == 0:
                    den //= p
                if den != 1:
                    ok = False
                    break
            if ok:
                t0 = cand
                break
        if t0 is not None:
            break
    if t0 is None:
        return Fraction(0)
    total = 0
    for j in range(M):
        pt = [Fraction(w[i]) + (t0 + j) * v[i] for i in range(n)]
        total += value_at_rational(f, pt)
    return Fraction(total, M)


def rank_by_minors(m) -> int:
    """Rank as the size of the largest square minor with a nonzero
    cofactor determinant."""
    rows, cols = len(m), len(m[0]) if m else 0
    for k in range(min(rows, cols), 0, -1):
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                if det_cofactor([[m[i][j] for j in ci] for i in ri]) != 0:
                    return k
    return 0


def vh_by_slices(f, v) -> bool:
    """Vanishing hypothesis by the slice loop: for every base point w in
    {0,...,M-1}^n the slice t -> f(w + t s), t = 0..M-1, sums to zero,
    where s is the primitive integer vector on the ray of v."""
    fracs = [Fraction(x) for x in v]
    ints = [int(x * lcm(*(y.denominator for y in fracs))) for x in fracs]
    g = gcd(*ints)
    s = [x // g for x in ints]
    M, n = f.M, f.n
    for w in product(range(M), repeat=n):
        line = [tuple((w[j] + t * s[j]) % M for j in range(n)) for t in range(M)]
        if sum(f.values.get(x, 0) for x in line) != 0:
            return False
    return True


def bernoulli_moments(num, den, orders) -> list[Fraction]:
    """Moments int x^k dmu of the measure num / prod_{u in den} (1 - delta_u)
    for each order k, by the Bernoulli-polynomial formula.

    num maps integer vectors to coefficients and den lists independent
    integer vectors. In a basis b that starts with den and is completed by
    standard unit vectors, a numerator point v has coordinates c_v from a
    Fraction solve, and
        int c^g dmu = sum_v coeff_v prod_{i<r} -B_{g_i+1}(c_{v,i})/(g_i+1)
                                    prod_{i>=r} c_{v,i}^{g_i},
    since sum_{t>=0} (c + t)^g regularizes to zeta(-g, c). x^k is expanded
    over x_j = sum_i b_{i,j} c_i by choosing a basis index for each factor.
    """
    den = [tuple(u) for u in den]
    n = len(den[0]) if den else len(next(iter(num)))
    basis = list(den)
    for j in range(n):
        e = tuple(int(i == j) for i in range(n))
        if rank_by_minors(basis + [e]) > len(basis):
            basis.append(e)
    r = len(den)
    coords = {v: _solve_coords(basis, v) for v in num}
    memo = {}

    def basis_moment(g):
        g = tuple(g)
        if g not in memo:
            memo[g] = sum(
                Fraction(coeff) * prod(
                    -bernoulli_polynomial(gi + 1, x) / (gi + 1) if i < r else x ** gi
                    for i, (gi, x) in enumerate(zip(g, coords[v])))
                for v, coeff in num.items())
        return memo[g]

    out = []
    for k in orders:
        factors = [j for j, kj in enumerate(k) for _ in range(kj)]
        total = Fraction(0)
        for choice in product(range(n), repeat=len(factors)):
            w = prod(basis[i][j] for i, j in zip(choice, factors))
            if w:
                total += w * basis_moment([choice.count(i) for i in range(n)])
        out.append(total)
    return out


def restrictions(a: PseudoMeasure, p: int, k: int) -> tuple[dict, tuple]:
    """(classes, den): a restricted to the ball c + p^k Z_p^n is the pseudo-measure
    classes[c] / prod_{u in den} (1 - delta_u), for every c in [0, p^k)^n.
    1/(1 - delta_u) = sum_{j < p^k} delta_{ju} / (1 - delta_{p^k u}), so a is
    its numerator times prod_u sum_j delta_{ju} over the vectors p^k u, whose
    Diracs keep every term in its class mod p^k: classes[c] holds the terms of
    class c, and den the p^k u, sorted as a's are."""
    q, n = p**k, a.dim
    num = dict(a.num.terms)
    for u in a.den:
        spread: dict[tuple[int, ...], int | Fraction] = {}
        for v, c in num.items():
            for j in range(q):
                w = tuple(x + j * y for x, y in zip(v, u))
                spread[w] = spread.get(w, 0) + c
        num = spread
    classes: dict[tuple[int, ...], dict] = {c: {} for c in product(range(q), repeat=n)}
    for v, c in num.items():
        classes[tuple(x % q for x in v)][v] = c
    return classes, tuple(tuple(q * x for x in u) for u in a.den)


def ball_values(a: PseudoMeasure, p: int, k: int) -> dict[tuple[int, ...], Fraction]:
    """mu(c + p^k Z_p^n) for every c in [0, p^k)^n, of the measure a: the
    order-0 moment (bernoulli_moments) of its restriction to the ball."""
    classes, den = restrictions(a, p, k)
    return {c: bernoulli_moments(terms, den, [(0,) * a.dim])[0] if terms else Fraction(0)
            for c, terms in classes.items()}


def fraction_moment_table(a: PseudoMeasure, p: int, orders: Sequence[Sequence[int]]) -> list[Fraction]:
    """amice.moment_table as it was before its integer rewrite, kept as a
    differential oracle: every power sum, Bernoulli term and partial sum is
    a Fraction. The exact moment int x^kk dmu, in the standard coordinates
    of the ambient lattice, for each order kk; NotAMeasure unless a is a
    measure at p.

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
    basis, d, cols, cs = reference_coordinates(a)
    if not reference_poles_vanish(a, p, d, cols, cs):
        raise NotAMeasure("series-side divisibility test fails")
    terms = list(zip(zip(*cols), cs))
    n, r = len(basis), len(a.den)
    bernoulli = bernoulli_numbers(max((sum(kk) for kk in orders), default=0))
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


def line_moment(a: PseudoMeasure, lam: Sequence[int], K: int) -> Fraction:
    """K! [t^K] F(t lam), where F(s) = N(e^s) / prod_u (1 - e^(s.u)) is the
    Laplace transform of the measure a: the sum over |k| = K of
    K!/k! lam^k int x^k da. It reads a's terms and denominator vectors only,
    through exp series and one power-series division in t in exact
    rationals: no basis, coordinates, Bernoulli numbers or pole test. Each
    lam.u must be nonzero, so the denominator has order r = len(a.den) at
    t = 0, and the numerator must vanish to order r there, as it does for a
    measure, whose F is analytic at 0."""
    r = len(a.den)
    top = K + r
    num = [Fraction(0)] * (top + 1)  # N(e^(t lam)) = sum_v c_v e^(t lam.v)
    for v, c in a.num.terms.items():
        w = sum(x * y for x, y in zip(lam, v))
        num = [s + c * Fraction(w**j, factorial(j)) for j, s in enumerate(num)]
    den = [Fraction(1)] + [Fraction(0)] * top
    for u in a.den:  # times 1 - e^(t lam.u) = -sum_{j >= 1} (lam.u)^j t^j / j!
        w = sum(x * y for x, y in zip(lam, u))
        if not w:
            raise ValueError(f"lam = {list(lam)} is orthogonal to the denominator vector {list(u)}")
        factor = [Fraction(0)] + [Fraction(-(w**j), factorial(j)) for j in range(1, top + 1)]
        den = [sum(den[i] * factor[k - i] for i in range(k + 1)) for k in range(top + 1)]
    if any(num[:r]):
        raise ValueError("the transform has a pole at 0 along lam")
    quot: list[Fraction] = []  # num / den, both divided by t^r
    for k in range(K + 1):
        quot.append((num[r + k] - sum(den[r + i] * quot[k - i] for i in range(1, k + 1))) / den[r])
    return factorial(K) * quot[K]


def hermite_box(h) -> list[tuple[int, ...]]:
    """The box 0 <= x_i < h_ii of a lower-triangular Hermite basis h, one
    vector per coset of its column lattice."""
    return list(product(*(range(h[i][i]) for i in range(len(h)))))


def coset_lattice(cols, p: int) -> tuple:
    """Hermite basis of L + p^k Z^n, for L the lattice spanned by the
    columns of a nonsingular integer matrix and p^k the p-part of |det|:
    that lattice has the same classes in Z^n as the p-adic closure of L in
    Z_p^n. The columns of the returned lower-triangular h span it; its
    classes are the box hermite_box(h), and coset_rep(h, v) is the box
    vector in the class of v."""
    h = reference_hermite(cols)[0]  # DependentInput when singular
    n = len(h)
    d = prod(h[i][i] for i in range(n))
    pk = gcd(d, p ** d.bit_length())
    return reference_hermite([row + tuple(pk * x for x in e)
                              for row, e in zip(h, linalg.identity(n))])[0]


def coset_rep(h, v) -> tuple[int, ...]:
    """The box vector 0 <= x_i < h_ii in the class of v modulo the columns
    of the lower-triangular h, reduced column by column."""
    x = list(v)
    for i, row in enumerate(h):
        q = x[i] // row[i]
        if q:
            for k in range(i, len(x)):
                x[k] -= q * h[k][i]
    return tuple(x)


def cell_lifts(steps, n: int) -> list[tuple[int, ...]]:
    """The lifts sum k_i s_i, 0 <= k_i < g_i, of the steps (s_i, g_i) of a
    cell of solomon_hu._cell, as tuples, one axis at a time."""
    lifts = [(0,) * n]
    for s, g in steps:
        lifts = [tuple(a + k * b for a, b in zip(v, s)) for v in lifts for k in range(g)]
    return lifts


def cell_steps(ws) -> list[tuple[tuple[int, ...], int]]:
    """The steps (s_i, g_i) of the ws, w_i = g_i s_i with s_i primitive."""
    gs = [gcd(*w) for w in ws]
    return [(tuple(x // (g or 1) for x in w), g) for w, g in zip(ws, gs)]  # hermite refuses w = 0


def enumerate_fundamental_domain(ws, n: int, closed=()) -> list[tuple[int, ...]]:
    """Sorted integer points of the half-open cell of the ws, closed at the
    indices in closed, the sums of one base point of solomon_hu._cell (whose
    base points are coordinate columns) and one lift of its steps."""
    steps = cell_steps(ws)
    base = _cell(steps, n, closed)
    lifts = cell_lifts(steps, n)
    return sorted(tuple(a + b for a, b in zip(y, v)) for y in zip(*base) for v in lifts)


def inverse(m) -> list[list[Fraction]]:
    """m^-1 for a nonsingular square matrix, column by column through the
    Fraction solve."""
    n = len(m)
    cols = list(zip(*m))
    inv_cols = [_solve_coords(cols, [int(i == j) for i in range(n)]) for j in range(n)]
    if None in inv_cols:
        raise DependentInput("matrix is singular")
    return [[inv_cols[j][i] for j in range(n)] for i in range(n)]


# -- step functions, by full walks over (Z/M)^n -----------------------------


def value_at(f, v) -> int:
    """f at an integer vector, by reduction mod M."""
    return f.values.get(tuple(int(x) % f.M for x in v), 0)


def act(f, g) -> TestFunction:
    """Right action (f|g)(v) = f(g v) for g in GL_n(Z): the pullback read
    off every residue of (Z/M)^n, the reference for
    testfunctions.stabilizes."""
    if abs(det_cofactor(g)) != 1:
        raise NotUnimodular("action requires determinant 1 or -1")
    table = {}
    for x in product(range(f.M), repeat=f.n):
        val = value_at(f, [sum(a * b for a, b in zip(row, x)) for row in g])
        if val:
            table[x] = val
    return TestFunction(f.n, f.p, f.M, table)


# -- cone functions ---------------------------------------------------------


def cf_add(a: dict[OpenCone, int], b: dict[OpenCone, int]) -> dict[OpenCone, int]:
    """The sum of two cone functions {cone: coefficient}: equal cones sum
    their coefficients, and a zero sum is dropped."""
    out = dict(a)
    for cone, c in b.items():
        out[cone] = out.get(cone, 0) + c
    return {cone: c for cone, c in out.items() if c}


def cf_sub(a: dict[OpenCone, int], b: dict[OpenCone, int]) -> dict[OpenCone, int]:
    return cf_add(a, {cone: -c for cone, c in b.items()})


@dataclass(frozen=True)
class Wedge:
    """Cone with the first generator's ray doubled to a full line:
    R*v_1 + R_+*v_2 + ... + R_+*v_n."""

    generators: tuple[IntVec, ...]

    def __post_init__(self):
        gens = self.generators
        if not gens or len(gens) != len(gens[0]):
            raise DependentInput("a wedge needs n independent generators")
        object.__setattr__(self, "generators", OpenCone(tuple(gens)).generators)


def wedge_decompose(w: Wedge) -> dict[OpenCone, int]:
    """Indicator of a wedge as a sum of three open cones, split by the sign
    of the coordinate along the doubled first generator."""
    gens = w.generators
    v1 = gens[0]
    return {
        OpenCone(gens): 1,
        OpenCone((tuple(-x for x in v1),) + gens[1:]): 1,
        OpenCone(gens[1:]): 1,
    }


def cone_contains(c: OpenCone, w) -> bool:
    """Membership of w in the open cone: strictly positive coordinates in
    the generator basis (and, for r < n, lying in the span at all)."""
    if not c.generators:
        return all(x == 0 for x in w)
    coords = _solve_coords(c.generators, w)
    return coords is not None and all(a > 0 for a in coords)


def eval_cone_function(k: dict[OpenCone, int], w) -> int:
    return sum(c for cone, c in k.items() if cone_contains(cone, w))


def act_on_cone_function(g, k: dict[OpenCone, int]) -> dict[OpenCone, int]:
    """Sign-twisted pushforward: generators map through g, coefficients pick
    up sign(det g). Satisfies (g.k)(v) = sign(det g) * k(g^{-1} v)."""
    d = det_cofactor(g)
    if d == 0:
        raise DependentInput("group action by a singular matrix")
    sign = 1 if d > 0 else -1
    out: dict[OpenCone, int] = {}
    for cone, coeff in k.items():
        new_gens = tuple(tuple(sum(a * x for a, x in zip(row, v)) for row in g)
                         for v in cone.generators)
        out = cf_add(out, {OpenCone(new_gens): sign * coeff})
    return out


class NonGenericDeformation(ShintaniError):
    """The deformation vector and the point both lie on a face hyperplane,
    so the limit rule has no verdict at that rational vector."""


def deformed_cone_eval(gens, q, w) -> int:
    """Indicator of the q-deformed full-dimensional cone at w.

    With a = coords of w and b = coords of q in the generator basis, the
    nudged point w + eps*q lies in the open cone for all small eps > 0
    iff every coordinate has a_i > 0, or a_i = 0 and b_i > 0.
    """
    if len(gens) != len(gens[0]):
        raise DependentInput("deformed cones require n generators")
    a, b = _solve_coords(gens, w), _solve_coords(gens, q)
    if a is None or b is None:
        raise DependentInput("deformed cone generators are dependent")
    for ai, bi in zip(a, b):
        if ai == 0 and bi == 0:
            raise NonGenericDeformation(
                "deformation vector lies on a face hyperplane; re-sample q"
            )
    return 1 if all(ai > 0 or (ai == 0 and bi > 0) for ai, bi in zip(a, b)) else 0


def frame_point(gens, q, frame) -> tuple[Fraction, ...]:
    """The rational vector q + eps p_1 + ... + eps^n p_n, for the columns
    p_k of frame, at an eps small enough that each coordinate of it in the
    basis gens has the sign of the first nonzero entry of its row in
    A [s q | s P], with A = |det G| G^-1 for the columns G of gens and s q
    integral.

    Each row is an integer polynomial c_0 + c_1 eps + ... + c_n eps^n; with
    H the largest |c_k| and c_m the first nonzero one, the tail after it is
    below H eps^(m+1) / (1 - eps) < eps^m <= |c_m eps^m| once eps < 1/(1+H),
    so eps = 1/(H+2) is taken.
    """
    n = len(q)
    g = [[Fraction(v[i]) for v in gens] for i in range(n)]
    d = det_cofactor(g)
    a = [[abs(d) * x for x in row] for row in inverse(g)]
    s = lcm(*(Fraction(x).denominator for x in q))
    cols = [[s * Fraction(x) for x in q]] + [[s * frame[i][k] for i in range(n)]
                                              for k in range(n)]
    h = max(abs(sum(r * c for r, c in zip(row, col))) for row in a for col in cols)
    eps = Fraction(1, int(h) + 2)
    return tuple(Fraction(q[i]) + sum(eps ** (k + 1) * frame[i][k] for k in range(n))
                 for i in range(n))


def open_faces(cone) -> dict[OpenCone, int]:
    """A deformed cone (sign, prims, closed), as cones.deformed_cone and
    cocycle.psi_cdg return it, expanded into open faces; None gives the
    zero cone function. A face C(v_i : i in S) has the coefficient sign
    exactly when every omitted generator is closed: the faces are
    C(open + T) for the subsets T of closed, the largest one on all prims."""
    if cone is None:
        return {}
    sign, prims, closed = cone
    positive = [i for i, s in enumerate(prims) if s in closed]
    required = tuple(i for i, s in enumerate(prims) if s not in closed)
    return {OpenCone(tuple(prims[i] for i in sorted(required + extra))): sign
            for k in range(len(positive) + 1) for extra in combinations(positive, k)}


def phi(f, matrices, q) -> PseudoMeasure:
    """The cocycle value psi_cdg(matrices, q) paired with the step function f,
    face by face."""
    return pair_cone_function(open_faces(psi_cdg(matrices, q)), f)


def measure_valued_by_faces(f: TestFunction, samples: int, q, seed: int = 0) -> bool:
    """cocycle.verify_measure_valued face by face, on the same seeded tuples:
    every open face of each cocycle value must pass the vanishing
    hypothesis on its rays, and its own pairing the series-side criterion."""
    for trial in range(samples):
        mats = tuple(random_congruence_element(f.n, f.M, seed * 1009 + trial * 31 + j)
                     for j in range(f.n))
        for cone in open_faces(psi_cdg(mats, q)):
            if not is_measure_vh(cone.generators, f):
                return False
            pm = pair_open_cone(cone, f)
            if pm.num and not is_measure_amice(pm, f.p):
                return False
    return True


# -- pseudo-measures and slices ---------------------------------------------


class GA(GroupAlgebraElement):
    """GroupAlgebraElement with its ring operations: sum, negation,
    difference and the convolution product delta_u * delta_v =
    delta_{u+v}. A library element may stand on the right of each
    operation, and on either side of a product; results are GA."""

    __slots__ = ()

    @staticmethod
    def lift(a: GroupAlgebraElement) -> "GA":
        return GA(a.terms)

    @staticmethod
    def zero() -> "GA":
        return GA()

    @staticmethod
    def delta(v, coeff=1) -> "GA":
        return GA({tuple(int(x) for x in v): coeff})

    @staticmethod
    def one(n: int) -> "GA":
        return GA.delta((0,) * n)

    def scale(self, c) -> "GA":
        return GA({v: c * x for v, x in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupAlgebraElement) and self.terms == other.terms

    def __add__(self, other: GroupAlgebraElement) -> "GA":
        out = dict(self.terms)
        for v, c in other.terms.items():
            out[v] = out.get(v, 0) + c
        return GA(out)

    def __neg__(self) -> "GA":
        return GA({v: -c for v, c in self.terms.items()})

    def __sub__(self, other: GroupAlgebraElement) -> "GA":
        return self + (-GA.lift(other))

    def __mul__(self, other: GroupAlgebraElement) -> "GA":
        out: dict = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                key = tuple(a + b for a, b in zip(u, v))
                out[key] = out.get(key, 0) + cu * cv
        return GA(out)

    __rmul__ = __mul__  # the group algebra is commutative

    def map_exponents(self, fn) -> "GA":
        """The sum of c * delta_{fn(v)} over the terms c * delta_v."""
        out: dict = {}
        for v, c in self.terms.items():
            key = tuple(int(x) for x in fn(v))
            out[key] = out.get(key, 0) + c
        return GA(out)


def pm_constant(n: int, c) -> PseudoMeasure:
    return PseudoMeasure(GA.one(n).scale(c), ())


def pm_neg(a: PseudoMeasure) -> PseudoMeasure:
    return PseudoMeasure(-GA.lift(a.num), a.den)


def pm_mul(a: PseudoMeasure, b: PseudoMeasure) -> PseudoMeasure:
    if not a.num or not b.num:
        return pm_zero()
    return PseudoMeasure(GA.lift(a.num) * b.num, tuple(sorted(a.den + b.den)))


# -- the pairwise pseudo-measure sum, the reference for solomon_hu.pm_sum ----
# _lcm_denominator, pm_add and pm_eq are the library's code before pm_sum
# replaced them (pm_eq renamed pm_eq_cross); denominator_product is rebuilt
# here by group-algebra products, so the reference shares no shift code.


def denominator_product(den, n: int) -> GA:
    out = GA.one(n)
    for u in den:
        out = out * (GA.one(n) - GA.delta(u))
    return out


def _lcm_denominator(
    a: tuple[IntVec, ...], b: tuple[IntVec, ...]
) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...], tuple[IntVec, ...]]:
    """Least common multiset of denominator factors.

    Returns (union, extra_for_a, extra_for_b). Sharing factors keeps the
    cross-multiplied numerators small when many summands use the same
    periods, which is the normal case for pairings of faces of one cone.
    """
    count_a: dict[IntVec, int] = {}
    count_b: dict[IntVec, int] = {}
    for u in a:
        count_a[u] = count_a.get(u, 0) + 1
    for u in b:
        count_b[u] = count_b.get(u, 0) + 1
    union: list[IntVec] = []
    extra_a: list[IntVec] = []
    extra_b: list[IntVec] = []
    for u in sorted(set(count_a) | set(count_b)):
        ca, cb = count_a.get(u, 0), count_b.get(u, 0)
        m = max(ca, cb)
        union.extend([u] * m)
        extra_a.extend([u] * (m - ca))
        extra_b.extend([u] * (m - cb))
    return tuple(union), tuple(extra_a), tuple(extra_b)


def pm_add(a: PseudoMeasure, b: PseudoMeasure) -> PseudoMeasure:
    if not a.num:
        return b
    if not b.num:
        return a
    n = a.dim
    union, extra_a, extra_b = _lcm_denominator(a.den, b.den)
    num = denominator_product(extra_a, n) * a.num + denominator_product(extra_b, n) * b.num
    return PseudoMeasure(num, union)


def pm_eq_cross(a: PseudoMeasure, b: PseudoMeasure) -> bool:
    """Equality in the localization, by cross-multiplication with the
    factors the denominators do not share (cancelling the shared ones is
    sound in an integral domain)."""
    if not a.num and not b.num:
        return True
    if not a.num or not b.num:
        return False
    n = a.dim
    _union, extra_a, extra_b = _lcm_denominator(a.den, b.den)
    return denominator_product(extra_a, n) * a.num == denominator_product(extra_b, n) * b.num


def pm_fold(terms) -> PseudoMeasure:
    """pm_add(...pm_add(pm_zero(), c_1 a_1)..., c_k a_k) over the (c, a) pairs."""
    out = pm_zero()
    for c, a in terms:
        out = pm_add(out, PseudoMeasure(GA.lift(a.num).scale(c), a.den))
    return out


@dataclass(frozen=True)
class SliceFunction:
    """One-dimensional restriction f(w + t v) as a table on Z/level."""

    level: int
    values: tuple[int, ...]


def line_slice(f, v, w) -> SliceFunction:
    """The slice t -> f(w + t v) for integer v != 0 and integer w."""
    if all(x == 0 for x in v):
        raise DependentInput("slice direction must be nonzero")
    M = f.M
    vals = tuple(
        value_at(f, tuple(int(w[j]) + t * int(v[j]) for j in range(f.n)))
        for t in range(M)
    )
    return SliceFunction(level=M, values=vals)


def haar(s: SliceFunction) -> Fraction:
    """Average over one period, normalized so the full line has mass 1."""
    return Fraction(sum(s.values), s.level)


def to_json(f) -> dict:
    return {
        "n": f.n,
        "p": f.p,
        "M": f.M,
        "terms": [
            {"residue": list(residue), "weight": weight}
            for residue, weight in f.values.items()
        ],
    }


# -- the slice identity -----------------------------------------------------


class NonPositiveDenominator(ShintaniError):
    """A denominator vector has nonpositive weight; geometric expansion
    would not be graded-finite."""


def truncated_q_expansion(a: PseudoMeasure, bound, weights) -> GA:
    """Geometric-series expansion of a pseudo-measure, graded by a positive
    linear functional.

    `weights` defines the functional; it must be strictly positive on every
    denominator vector, so each factor 1/(1 - delta_u) expands as a
    geometric series with finitely many terms of weight <= bound. The
    result agrees with the full expansion on all terms of weight <= bound.
    """
    wv = tuple(Fraction(x) for x in weights)
    bound = Fraction(bound)

    def weight(v) -> Fraction:
        return sum(Fraction(x) * w for x, w in zip(v, wv))

    for u in a.den:
        if weight(u) <= 0:
            raise NonPositiveDenominator(
                f"denominator vector {u} has nonpositive weight"
            )
    current = {v: c for v, c in a.num.terms.items() if weight(v) <= bound}
    for u in a.den:
        wu = weight(u)
        expanded: dict = {}
        for v, c in current.items():
            k = 0
            wv_val = weight(v)
            while wv_val + k * wu <= bound:
                key = tuple(x + k * y for x, y in zip(v, u))
                expanded[key] = expanded.get(key, Fraction(0)) + c
                k += 1
        current = {v: c for v, c in expanded.items() if c != 0}
    return GA(current)


def _line_projection(direction) -> tuple:
    """Integer projection Z^n -> Z^{n-1} with kernel exactly Q*direction.

    With s the primitive vector on the line, reference_hermite([s]) gives s * u =
    (1, 0, ..., 0) for a unimodular u. The columns 1..n-1 of u are
    orthogonal to s, and taken as rows they are n-1 rows of the unimodular
    u^T: they map Z^n onto Z^{n-1} with kernel exactly the line.
    """
    u = reference_hermite([linalg.primitive_vector(direction)])[1]
    return linalg.transpose(u)[1:]


def slice_identity_check(f, c: OpenCone, i: int, bound) -> bool:
    """Verify that clearing one pole and specializing along its ray turns
    the pairing into the generating series of slice averages.

    Concretely: with periods u_j = M * v_j for the primitive generators
    v_j, the coefficient of the projected point of w in (1 - delta_{u_i}) *
    <C, f>, specialized along v_i and renormalized by 1/M, must equal
    haar(slice(f, v_i, w)) for every integer w in the open face cone
    spanned by the other generators, up to the expansion bound.
    """
    n = f.n
    M = f.M
    pm = pair_open_cone(c, f)
    prims = c.generators
    periods = [tuple(M * x for x in s) for s in prims]
    u_i = periods[i]
    remaining = list(pm.den)
    if pm.num:
        remaining.remove(u_i)
        cleared = PseudoMeasure(pm.num, tuple(remaining))
    else:
        cleared = pm
    proj = _line_projection(prims[i])

    def project(v):
        return tuple(sum(row[j] * v[j] for j in range(n)) for row in proj)

    face_periods = [periods[j] for j in range(len(periods)) if j != i]
    num_proj = GA.lift(cleared.num).map_exponents(project)
    den_proj = tuple(project(u) for u in face_periods)

    if not face_periods:
        # 0-dimensional face: the only face point is the origin
        coeff = num_proj.terms.get((0,) * (n - 1), Fraction(0))
        target = M * haar(line_slice(f, prims[i], (0,) * n))
        return coeff == target

    phi = _positive_functional(den_proj)
    expansion = truncated_q_expansion(
        PseudoMeasure(num_proj, den_proj), Fraction(bound), phi
    )
    for w in _face_points(face_periods, Fraction(bound), n):
        coeff = expansion.terms.get(project(w), Fraction(0))
        if coeff != M * haar(line_slice(f, prims[i], w)):
            return False
    return True


def _positive_functional(vectors) -> tuple[Fraction, ...]:
    """A rational functional taking the value 1 on each given vector.

    The vectors must be linearly independent; the functional solves
    phi . v = 1 for every v and is supported on the first coordinates whose
    columns are independent.
    """
    m = len(vectors[0])
    columns = [tuple(v[j] for v in vectors) for j in range(m)]
    support: list[int] = []
    for j in range(m):
        if rank_by_minors([columns[k] for k in support + [j]]) > len(support):
            support.append(j)
    coords = _solve_coords([columns[j] for j in support], (1,) * len(vectors))
    if coords is None:
        raise DependentInput("projected face directions are dependent")
    phi = [Fraction(0)] * m
    for j, x in zip(support, coords):
        phi[j] = x
    return tuple(phi)


def _face_points(face_periods, bound: Fraction, n: int) -> list[tuple[int, ...]]:
    """Integer points w = sum t_j u_j with t_j > 0 and sum t_j <= bound."""
    # face_periods = coords * sat, with sat the leading rows of u_inv: a
    # basis of the saturation of the span
    coords, _u, u_inv, _sign = reference_hermite(face_periods)
    r = len(face_periods)
    sat = u_inv[:r]
    # box for y = C t with t in (0, bound]^r, in saturation coordinates
    lows, highs = [], []
    for k in range(r):
        lo = sum(min(0, coords[j][k]) * bound for j in range(r))
        hi = sum(max(0, coords[j][k]) * bound for j in range(r))
        lows.append(ceil(lo))
        highs.append(int(hi))
    # t = C^-1 y = adj y / d with d > 0: test adj y, with no solve per point
    adj, d = linalg.adjugate(linalg.transpose(coords))
    limit = bound * d
    out = []
    for y in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        ty = linalg.mat_vec(adj, y)
        if all(x > 0 for x in ty) and sum(ty) <= limit:
            w = tuple(sum(y[k] * sat[k][j] for k in range(r)) for j in range(n))
            out.append(w)
    return sorted(out)


# -- reference JSON readers ---------------------------------------------------


def _as_int(x) -> int:
    """A JSON integer or integer string; ValueError for a bool or a float."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def _only_keys(x, keys: tuple, what: str, optional: tuple = ()) -> None:
    """SchemaError naming the first key of the JSON object x outside `keys`
    and `optional` (a key that nothing reads is a misspelling or a value that
    would be lost), else the first of the required `keys` that x lacks."""
    if not isinstance(x, dict):
        return
    reads = keys + optional
    extra = [k for k in x if k not in reads]
    if extra:
        raise SchemaError(f"{what}: unknown key {extra[0]!r} (it reads {', '.join(reads)})")
    missing = [k for k in keys if k not in x]
    if missing:
        raise SchemaError(f"{what}: missing key {missing[0]!r}")


def reference_from_json(data: dict) -> TestFunction:
    _only_keys(data, ("n", "p", "M", "terms"), "test_function")
    try:
        n, p, M = (_as_int(data[key]) for key in ("n", "p", "M"))
        table: dict[IntVec, int] = {}
        for term in _as_list(data["terms"], "terms"):
            _only_keys(term, ("residue", "weight"), "term")
            residue = tuple(_as_int(x) for x in _as_list(term["residue"], "residue"))
            table[residue] = table.get(residue, 0) + _as_int(term["weight"])
        return TestFunction(n, p, M, table)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad test-function JSON: {exc}") from exc


def reference_parse_vector(raw, what: str, n: int) -> tuple:
    """A rational vector of the step function's dimension n."""
    try:
        v = tuple(Fraction(str(x)) for x in _as_list(raw, what))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad vector {raw!r}") from exc
    if len(v) != n:
        raise SchemaError(f"{what} {raw!r} has {len(v)} coordinates, "
                          f"but the step function has n = {n}")
    return v


def reference_pm_from_json(data: dict) -> PseudoMeasure:
    _only_keys(data, ("numerator", "denominator"), "pseudo-measure")
    try:
        num: dict[IntVec, Fraction] = {}
        for term in _as_list(data["numerator"], "numerator"):
            _only_keys(term, ("vector", "coeff"), "numerator term")
            v = tuple(_as_int(x) for x in _as_list(term["vector"], "vector"))
            c = term["coeff"]
            if type(c) is not int and type(c) is not str:  # a bool or a float
                raise ValueError(f"coefficient {c!r} is not an integer or a rational string")
            num[v] = num.get(v, Fraction(0)) + Fraction(c)
        den = tuple(sorted(tuple(_as_int(x) for x in _as_list(u, "denominator"))
                           for u in _as_list(data["denominator"], "denominator")))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad pseudo-measure JSON: {exc}") from exc
    lengths = {len(v) for v in num} | {len(u) for u in den}
    if len(lengths) > 1:
        raise SchemaError("bad pseudo-measure JSON: vectors of different lengths")
    if 0 in lengths:
        raise SchemaError("bad pseudo-measure JSON: a vector has no coordinates")
    if not all(any(u) for u in den):
        raise SchemaError("bad pseudo-measure JSON: a denominator vector is zero")
    return PseudoMeasure(GroupAlgebraElement(num), den)


# -- reference kernels ---------------------------------------------------------


def outcome(fn, *args) -> tuple:
    """("value", fn(*args)), or ("raised", the exception's type, its message)."""
    try:
        return ("value", fn(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def reference_mat_mul(a, b) -> tuple:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def reference_hermite(rows):
    """(h, u, u_inv, sign) of linalg.hermite as it was when it built u_inv
    too, sign = det u, with the three list rebuilds on every Euclid step."""
    m = len(rows[0]) if rows else 0
    r = len(rows)
    if not 0 < r <= m:
        raise DependentInput("vectors are linearly dependent")
    cols = [list(c) for c in zip(*rows)]  # column j of rows
    ut = [[0] * j + [1] + [0] * (m - 1 - j) for j in range(m)]  # column j of u
    ui = [[0] * j + [1] + [0] * (m - 1 - j) for j in range(m)]  # row j of u_inv
    sign = 1
    for i in range(r):
        for j in range(i + 1, m):
            # Euclid on columns i and j until row i has a zero in column j
            while cols[j][i]:
                q = cols[i][i] // cols[j][i]
                cols[i] = [x - q * y for x, y in zip(cols[i], cols[j])]
                ut[i] = [x - q * y for x, y in zip(ut[i], ut[j])]
                ui[j] = [x + q * y for x, y in zip(ui[j], ui[i])]
                for t in (cols, ut, ui):
                    t[i], t[j] = t[j], t[i]
                sign = -sign
        if cols[i][i] == 0:
            raise DependentInput("vectors are linearly dependent")
        if cols[i][i] < 0:
            for t in (cols, ut, ui):
                t[i] = [-x for x in t[i]]
            sign = -sign
    h = tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))
    return h, tuple(zip(*ut)), tuple(map(tuple, ui)), sign


def reference_det(m) -> int:
    """linalg.det as it was when it read det off a full hermite pass, on
    reference_hermite, so that it shares no elimination with the library."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1  # hermite takes at least one row
    try:
        h, _u, _u_inv, sign = reference_hermite(m)
    except DependentInput:
        return 0
    return sign * prod(h[i][i] for i in range(n))


def triangular_adjugate(h, d: int) -> list[list[int]]:
    """x = d * h^-1 for a lower-triangular h with a positive diagonal and
    d = +-prod h_ii, by forward substitution; x is integral, so each
    division is exact."""
    n = len(h)
    x = [[0] * n for _ in range(n)]
    for j in range(n):
        for i in range(j, n):
            s = d if i == j else -sum(h[i][k] * x[k][j] for k in range(j, i))
            x[i][j] = s // h[i][i]
    return x


def reference_adjugate(m) -> tuple:
    """linalg.adjugate as it was when it built u_inv too, on reference_hermite."""
    if any(len(row) != len(m) for row in m):
        raise ValueError("adjugate of a non-square matrix")
    h, u, _u_inv, sign = reference_hermite(m)
    d = sign * prod(h[i][i] for i in range(len(h)))
    return reference_mat_mul(u, triangular_adjugate(h, d)), d


def reference_deformed_cone(gens, q, frame=None):
    """cones.deformed_cone as it was when it built the whole adjugate for
    every q (reference_adjugate)."""
    if not gens:
        raise ValueError("a deformed cone needs at least one generator")
    n = len(gens[0])
    if any(len(g) != n for g in gens):
        raise ValueError("generators of mixed dimensions")
    if len(q) != n:
        raise ValueError(f"a deformation vector of length {len(q)} for generators of length {n}")
    if frame is not None and (len(frame) != n or any(len(row) != n for row in frame)):
        raise ValueError(f"a deformation frame that is not {n} x {n}")
    if len(gens) != n:
        raise DependentInput("deformed cones require n generators")
    try:
        prims = [linalg.primitive_vector(g) for g in gens]
        adj, d = reference_adjugate(linalg.transpose(prims))
    except DependentInput:
        return None
    b = linalg.mat_vec(adj, linalg.clear_denominators(q))
    if 0 in b:  # q lies on a face hyperplane: the frame breaks the tie
        tie = adj if frame is None else reference_mat_mul(adj, frame)
        b = [x or next((y for y in row if y), 0) for x, row in zip(b, tie)]
        if 0 in b:
            raise DependentInput("the deformation frame is singular")
    sign = 1 if d > 0 else -1
    return sign, prims, frozenset(s for s, x in zip(prims, b) if sign * x > 0)


def reference_pm_eq(a: PseudoMeasure, b: PseudoMeasure) -> bool:
    """Equality in the localization: a - b has a zero numerator, which is
    sound since the denominators are nonzero in an integral domain."""
    return not pm_sum(((1, a), (-1, b))).num


def reference_stabilizes(f: TestFunction, g) -> bool:
    """stabilizes by the residue loop alone, for every g of det 1 or -1."""
    gm = linalg.int_mat(g)
    if {len(gm), *map(len, gm)} != {f.n}:  # else mat_vec would drop coordinates
        raise ValueError(f"rows of lengths {[*map(len, gm)]} cannot act in dimension {f.n}")
    if abs(linalg.det(gm)) != 1:
        raise NotUnimodular("action requires determinant 1 or -1")
    M = f.M
    return all(f.values.get(tuple(x % M for x in linalg.mat_vec(gm, w))) == c
               for w, c in f.values.items())


# -- the pairing cell and the pseudo-measure sum before their leaner forms ----
# solomon_hu._cell, _pair_cell and pm_sum as they were before _cell took
# primitive steps, a unimodular cell skipped its box, the lifts became two
# flat lists and a zero sum skipped its normalising pass; kept verbatim, but for
# the module prefix on solomon_hu.denominator_product, whose name the group-algebra
# oracle above takes, and for the whole Hermite pass and the triangular adjugate,
# which are reference_hermite and triangular_adjugate above since linalg folded them.


def reference_cell(ws: Sequence[Sequence[int]], n: int, closed: Sequence[int] = ()
          ) -> tuple[list[list[int]], list[tuple[IntVec, int]]]:
    """Base points, as n coordinate columns, and steps (s_i, g_i) of the cell
    { sum x_i w_i : x_i in [0, 1) for i in closed, else (0, 1] } by one Hermite pass
    for every rank r: its points are a base point plus a lift sum k_i s_i, k_i < g_i.

    With w_i = g_i s_i, s_i primitive, and s * u = [h | 0], the first r rows b_j of
    u_inv are a basis of the saturated span and s_i = sum_j h_ij b_j. The box
    0 <= y_j < h_jj holds one point y.b of each class modulo the s_i, at cell
    coordinates x = adj(h)^T y / d with d = prod h_jj, and k = (adj(h)^T y - e) // d
    generators, e_i = 0 on closed i and 1 on the others (floor(x_i), ceil(x_i) - 1),
    move it into the cell of the s_i: the base point is y.b - sum k_i s_i. k and the
    base are weighted sums of whole columns, the box's in `product` order. The cell
    has d * prod g_i points, checked against CELL_POINT_BUDGET (CellTooLarge) first.
    """
    ws = [linalg.int_vec(w) for w in ws]
    gs = [gcd(*w) for w in ws]
    s = [tuple(a // (g or 1) for a in w) for w, g in zip(ws, gs)]  # hermite refuses a zero w
    r = len(s)
    try:
        h, _u, u_inv, _sign = reference_hermite(s) if r else ((), (), linalg.identity(n), 1)
    except DependentInput as exc:
        raise DependentInput("cell generators are linearly dependent") from exc
    count = (d := prod(sides := [h[j][j] for j in range(r)])) * prod(gs)
    if count > CELL_POINT_BUDGET:
        raise CellTooLarge(f"the cell of the generators {[list(w) for w in ws]} has "
                           f"{count} integer points, more than {CELL_POINT_BUDGET}")
    ys = [list(c) for c in zip(*product(*map(range, sides)))]  # the box, column by column
    ks = [[(x - e) // d for x in _weighted_sum(row, ys, d)] for e, row in zip(
        [int(i not in closed) for i in range(r)], zip(*triangular_adjugate(h, d)))]
    base = [_weighted_sum((*row[:r], *(-v[t] for v in s)), ys + ks, d)
            for t, row in enumerate(linalg.transpose(u_inv))]
    return base, list(zip(s, gs))


def reference_pair_cell(prims: frozenset[IntVec], closed: frozenset, f: TestFunction) -> PseudoMeasure:
    """pair_half_open's cell sum over (exponent key, residue key) pairs. A residue digit is
    R = (2M).bit_length() + 1 bits wide, so a digit d of a sum t of two reduced keys is at most
    2M - 2 < 2^(R-1). With K and H holding 2^(R-1) - M and 2^(R-1) in each digit, d + 2^(R-1) - M
    < 2^R carries into no other digit and reaches 2^(R-1) iff d >= M: t - M(((t + K) & H) >> (R-1))
    is t reduced mod M digit-wise. Lifts are int sums, axis by axis. f is read once per base point
    and lift residue class; when d = det h is prime to M a class is one lift, read ungrouped."""
    n, M = f.n, f.M
    if wrong := {len(s) for s in prims} - {n}:  # else their residues match none of f's
        raise ValueError(f"generators of length {min(wrong)} cannot pair in dimension {n}")
    if stray := closed - prims:  # else the cell would be the open one, memoised under this key
        raise ValueError(f"closed vector {list(min(stray))} is not among the generators")
    periods = [tuple(M * x for x in s) for s in sorted(prims)]
    base, steps = reference_cell(periods, n, [i for i, s in enumerate(sorted(prims)) if s in closed])
    edges = zip(*([(g - 1) * x for x in s] for s, g in steps))  # the lifts' box, by coordinate
    bound = max(map(abs, chain(*base))) + max(
        (max(sum(x for x in e if x > 0), -sum(x for x in e if x < 0)) for e in edges), default=0)
    W, R = _width(bound), (2 * M).bit_length() + 1
    H = (1 << R - 1) * (ones := sum(1 << R * i for i in range(n)))  # _pack refuses 2^(R-1)
    K, top = H - M * ones, R - 1
    lifts = [(0, 0)]
    for s, g in steps:  # one axis at a time
        se = _pack(s, W) if g > 1 else 0  # s itself need not fit W when g = 1
        ks = [(k * se, _pack([k * x % M for x in s], R)) for k in range(g)]
        lifts = [(le + ke, (t := lr + kr) - M * (((t + K) & H) >> top))
                 for le, lr in lifts for ke, kr in ks]
    if not (values := f.residues):  # f's support residues at R-bit digits, packed once per f
        values.update((_pack(rho, R), c) for rho, c in f.values.items())
    ys = zip(_pack_columns(base, W, d := len(base[0])),
             _pack_columns([[x % M for x in col] for col in base], R, d))
    if gcd(d, M) == 1:  # sum k_i s_i = (h^T k).b with det h = d: no two lifts share a residue
        terms = {py + pl: c for py, ry in ys for pl, rl in lifts
                 if (c := values.get((t := ry + rl) - M * (((t + K) & H) >> top)))}
    else:
        groups: dict[int, list[int]] = {}  # lift keys by residue key
        lifts.reverse()  # popped in order: a lift is freed once it is grouped
        while lifts:
            le, lr = lifts.pop()
            groups.setdefault(lr, []).append(le)
        terms = {py + pl: c for py, ry in ys for rl, pls in groups.items()
                 if (c := values.get((t := ry + rl) - M * (((t + K) & H) >> top))) for pl in pls}
    if not terms:
        return pm_zero()
    return PseudoMeasure(GroupAlgebraElement._of(terms, n, W, bound), tuple(periods))


def reference_pm_sum(terms: Iterable[tuple[int | Fraction, PseudoMeasure]]) -> PseudoMeasure:
    """Sum of c * a over the pairs (c, a), in one pass. The denominator is
    the sorted union, with the largest multiplicity of each factor, of the
    nonzero summands' denominators, and each nonzero numerator is shifted
    once by the factors its summand lacks, so the printed sum does not
    depend on the order of the terms. With no nonzero summand it is pm_zero().
    """
    live = [(c, a.num, Counter(a.den)) for c, a in terms if c and a.num]
    most: Counter[IntVec] = Counter()
    for _c, _x, den in live:
        most |= den
    union = tuple(sorted(most.elements()))
    bound = max((x.bound for _c, x, _d in live), default=0) + sum(max(map(abs, u)) for u in union)
    n, W = max((x.n for _c, x, _d in live), default=0), _width(bound)
    out: dict[int, int | Fraction] = {}
    get = out.get
    for c, x, den in live:  # shift-subtract once by the factors x lacks
        lacks = solomon_hu.denominator_product(list((most - den).elements()), W)
        num = x._at(W).items()
        for w, cw in lacks.items():
            cw *= c
            if w:
                for v, cv in num:
                    out[k] = get(k := v + w, 0) + cw * cv
            else:  # the unshifted pass
                for v, cv in num:
                    out[v] = get(v, 0) + cw * cv
    # the sums cancel terms and add Fractions up to integers
    out = {k: c if type(c) is int or c.denominator != 1 else c.numerator
           for k, c in out.items() if c}
    return PseudoMeasure(GroupAlgebraElement._of(out, n, W, bound), union)


def reference_moment_table(a: PseudoMeasure, p: int, n: int, top: int) -> list[tuple[IntVec, Fraction]]:
    """amice.moment_table as it was before its orders were packed ints: every
    order, power-sum index and basis monomial a tuple, the per-axis partial
    sums a recursive memo `summed` whose every level lives for the whole call,
    and the x^kk expansion a scan of the whole basis per monomial. The same
    rows, the same refusals and their messages."""
    if (a.num or a.den) and n != a.dim:
        raise ValueError(f"moment orders in n = {n} dimensions for a pseudo-measure in {a.dim}")
    if a.num:
        basis, d, cols, cs = reference_coordinates(a)
        if not reference_poles_vanish(a, p, d, cols, cs):
            raise NotAMeasure("series-side divisibility test fails")
        r = len(a.den)
    else:  # every moment is 0, and in the standard basis each x^kk is one monomial
        basis, d, cols, cs, r = linalg.identity(n), 1, [[]] * n, [], 0
    cden = lcm(*(c.denominator for c in cs))
    big, bern = _bernoulli(top)
    q = lcm(*range(1, top + 2))
    coef = [[comb(g + 1, k) * (q // (g + 1)) * d**k * b for k, b in enumerate(bern[:g + 1])]
            for g in range(top + 1)]  # c(g, k)
    # sums[j][t]: P_t summed over kappa_i on the axes i < j, where t_i = gamma_i;
    # sums[0] holds P_t for every t = 1_r + beta, |beta| <= top, walked depth first
    sums: list[dict[tuple[int, ...], int]] = [{} for _ in range(r + 1)]
    xs = [c.numerator * (cden // c.denominator) for c in cs]
    for col in cols[:r]:
        xs = list(map(mul, xs, col))
    stack = [((1,) * r + (0,) * (n - r), 0, xs)]  # (t, last axis of beta, [c y^t] per term)
    while stack:
        t, last, xs = stack.pop()
        sums[0][t] = sum(xs)
        if sum(t) < top + r:  # a child's list is its parent's times one column
            stack.extend((t[:j] + (t[j] + 1,) + t[j + 1:], j, list(map(mul, xs, cols[j])))
                         for j in range(last, n))

    def summed(j: int, t: tuple[int, ...]) -> int:
        if t not in sums[j]:
            g, head, tail = t[j - 1], t[:j - 1], t[j:]
            sums[j][t] = sum(c * summed(j - 1, head + (g - k + 1,) + tail)
                             for k, c in enumerate(coef[g]) if c)
        return sums[j][t]

    rows, polys = [], {(0,) * n: {(0,) * n: 1}}  # x^kk in basis monomials, for kk of one total
    for total in range(top + 1):
        if total:
            prev, polys = polys, {}
            for o, x in prev.items():  # o = kk - e_j, whose last axis is at most j
                for j in range(max((i for i, k in enumerate(o) if k), default=0), n):
                    polys[o[:j] + (o[j] + 1,) + o[j + 1:]] = step = {}
                    for gamma, w in x.items():
                        for i, b in enumerate(basis):
                            if b[j]:
                                g = gamma[:i] + (gamma[i] + 1,) + gamma[i + 1:]
                                step[g] = step.get(g, 0) + w * b[j]
            polys = dict(sorted(polys.items()))
        for kk, x in polys.items():
            num = sum(w * summed(r, g) for g, w in x.items() if w)
            rows.append((kk, Fraction((-1) ** r * num, cden * d ** (total + r) * (big * q) ** r)))
    return rows


def reference_coordinates(a: PseudoMeasure) -> tuple:
    """(basis, d, cols, cs) for a's own basis, amice._coordinates as it was
    before the pole test read packed keys: cols[i] lists the i-th coordinate
    of adj v and cs the coefficient c over the terms c delta_v of a's
    numerator in packed order, so adj v / d are v's basis coordinates."""
    basis = extend_denominator_basis(a, a.dim)[0]
    adj, d = linalg.adjugate(linalg.transpose(basis))
    return basis, d, a.num.columns(adj), list(a.num.packed.values())


def reference_poles_vanish(a: PseudoMeasure, p: int, d: int, cols: list, cs: list) -> bool:
    """amice._poles_vanish as it was, on the columns of reference_coordinates.
    With p^k the p-part of d, v and v' share a class of Z^n / (B Z^n + p^k Z^n),
    B the basis, exactly when y = y' mod p^k: adj B z = d z, and for d = p^k m,
    m(v - v') lies in B Z^n with m a unit mod p^k. So the fibre key of pole i
    is y with y_i taken mod p^k: the columns zipped, column i reduced."""
    pk = gcd(d, p ** d.bit_length())
    return all(_fibres_vanish(zip(zip(*cols[:i], [x % pk for x in cols[i]], *cols[i + 1:]), cs))
               for i in range(len(a.den)))


def reference_act_pm(g, a: PseudoMeasure) -> PseudoMeasure:
    """solomon_hu.act_pm as it was: every key rebuilt as sum_i v_i times the
    packed column i of g, over the unpacked coordinate lists."""
    gm = linalg.int_mat(g)
    if abs(linalg.det(gm)) != 1:
        raise NotUnimodular("pseudo-measure action requires determinant 1 or -1")
    if (a.num or a.den) and len(gm) != a.dim:  # else zip and mat_vec would drop coordinates
        raise ValueError(f"a {len(gm)}x{len(gm)} matrix cannot act in dimension {a.dim}")
    old, bound = a.num, max(sum(map(abs, row)) for row in gm) * a.num.bound  # g's row norm
    W = _width(bound)  # g is a bijection, so no two images of the terms meet
    keys = _weighted_sum(_pack_columns(gm, W, len(gm)), old.columns(), len(old.packed))
    num = GroupAlgebraElement._of(dict(zip(keys, old.packed.values())), old.n, W, bound)
    return PseudoMeasure(num, tuple(sorted(linalg.mat_vec(gm, u) for u in a.den)))
