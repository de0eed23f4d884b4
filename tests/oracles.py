"""Independent oracles and test-only helpers for the test suite.

The oracles are deliberately naive (cofactor expansion, box scans, a
Fraction solve, textbook recurrences) and share no code with the library
paths they check; fraction_moment_table, the Fraction moment table the
integer one replaced, shares the library's measure test and coordinates
and checks only the arithmetic. coset_lattice and coset_rep, the Hermite
classes the measure test used before it keyed them by coordinates, are the
reference for that key, enumerate_fundamental_domain lists the library's
pairing cell in order, and cell_lifts lists the cell's lifts as tuples, the
reference for the pairing's lift bound. The helpers at the end were library code that only the
tests called: evaluation and the action of SL_n(Z) on step functions by
full walks over (Z/M)^n, the additive group of cone functions, wedges,
cone membership and evaluation, the sign-twisted action on cone functions,
the deformed-cone limit rule, the ring operations of the group algebra,
the paired cocycle value, small pseudo-measure and slice constructors, and
the slice identity with its truncated q-expansion. They evaluate through
the oracles' Fraction solve and call the library only for the objects they
check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import ceil, comb, factorial, gcd, lcm, prod
from typing import Sequence

from shintani import linalg
from shintani.amice import _coordinates, _poles_vanish
from shintani.cocycle import psi_cdg
from shintani.cones import ConeFunction, OpenCone
from shintani.errors import (
    DependentInput,
    NotAMeasure,
    NotUnimodular,
    ShintaniError,
)
from shintani.linalg import IntVec
from shintani.solomon_hu import (
    GroupAlgebraElement,
    PseudoMeasure,
    _cell,
    pair_cone_function,
    pair_open_cone,
    pm_zero,
)
from shintani.testfunctions import TestFunction


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


def brute_cell_points(ws, n: int) -> list[tuple[int, ...]]:
    """Integer points of the half-open cell by bounding-box scan plus an
    exact coordinate check."""
    r = len(ws)
    lows = [sum(min(0, w[j]) for w in ws) for j in range(n)]
    highs = [sum(max(0, w[j]) for w in ws) for j in range(n)]
    out = []
    for pt in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        coords = _solve_coords(ws, pt)
        if coords is not None and all(0 < c <= 1 for c in coords):
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
    basis, d, terms = _coordinates(a)
    if not _poles_vanish(a, p, d, terms):
        raise NotAMeasure("series-side divisibility test fails")
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
    h = linalg.hermite(cols)[0]  # DependentInput when singular
    n = len(h)
    d = prod(h[i][i] for i in range(n))
    pk = gcd(d, p ** d.bit_length())
    return linalg.hermite([row + tuple(pk * x for x in e)
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
    """The lifts sum k_i s_i, 0 <= k_i < g_i, of the steps (s_i, g_i) that
    solomon_hu._cell returns, as tuples, one axis at a time."""
    lifts = [(0,) * n]
    for s, g in steps:
        lifts = [tuple(a + k * b for a, b in zip(v, s)) for v in lifts for k in range(g)]
    return lifts


def enumerate_fundamental_domain(ws, n: int) -> list[tuple[int, ...]]:
    """Sorted integer points of the half-open cell of the ws, the sums of
    one base point and one lift of solomon_hu._cell."""
    base, steps = _cell(ws, n)
    lifts = cell_lifts(steps, n)
    return sorted(tuple(a + b for a, b in zip(y, v)) for y in base for v in lifts)


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
    """Right action (f|g)(v) = f(g v) for g in SL_n(Z): the pullback read
    off every residue of (Z/M)^n, the reference for
    testfunctions.stabilizes."""
    if det_cofactor(g) != 1:
        raise NotUnimodular("action requires determinant 1")
    table = {}
    for x in product(range(f.M), repeat=f.n):
        val = value_at(f, [sum(a * b for a, b in zip(row, x)) for row in g])
        if val:
            table[x] = val
    return TestFunction(f.n, f.p, f.M, table)


# -- cone functions ---------------------------------------------------------


class CF(ConeFunction):
    """ConeFunction with its additive group operations."""

    @staticmethod
    def of(cone: OpenCone, coeff: int = 1) -> "CF":
        return CF(((coeff, cone),))

    def __add__(self, other: ConeFunction) -> "CF":
        return CF(self.terms + other.terms)

    def __neg__(self) -> "CF":
        return CF(tuple((-c, cone) for c, cone in self.terms))

    def __sub__(self, other: ConeFunction) -> "CF":
        return self + (-CF(other.terms))


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


def wedge_decompose(w: Wedge) -> ConeFunction:
    """Indicator of a wedge as a sum of three open cones, split by the sign
    of the coordinate along the doubled first generator."""
    gens = w.generators
    v1 = gens[0]
    return ConeFunction(
        (
            (1, OpenCone(gens)),
            (1, OpenCone((tuple(-x for x in v1),) + gens[1:])),
            (1, OpenCone(gens[1:])),
        )
    )


def cone_contains(c: OpenCone, w) -> bool:
    """Membership of w in the open cone: strictly positive coordinates in
    the generator basis (and, for r < n, lying in the span at all)."""
    if not c.generators:
        return all(x == 0 for x in w)
    coords = _solve_coords(c.generators, w)
    return coords is not None and all(a > 0 for a in coords)


def eval_cone_function(k: ConeFunction, w) -> int:
    return sum(c for c, cone in k.terms if cone_contains(cone, w))


def act_on_cone_function(g, k: ConeFunction) -> ConeFunction:
    """Sign-twisted pushforward: generators map through g, coefficients pick
    up sign(det g). Satisfies (g.k)(v) = sign(det g) * k(g^{-1} v)."""
    d = det_cofactor(g)
    if d == 0:
        raise DependentInput("group action by a singular matrix")
    sign = 1 if d > 0 else -1
    terms = []
    for coeff, cone in k.terms:
        new_gens = tuple(tuple(sum(a * x for a, x in zip(row, v)) for row in g)
                         for v in cone.generators)
        terms.append((sign * coeff, OpenCone(new_gens)))
    return ConeFunction(tuple(terms))


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


def phi(f, matrices, q) -> PseudoMeasure:
    """The cocycle value psi_cdg(matrices, q) paired with the step function f."""
    return pair_cone_function(psi_cdg(matrices, q), f)


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

    With s the primitive vector on the line, hermite([s]) gives s * u =
    (1, 0, ..., 0) for a unimodular u. The columns 1..n-1 of u are
    orthogonal to s, and taken as rows they are n-1 rows of the unimodular
    u^T: they map Z^n onto Z^{n-1} with kernel exactly the line.
    """
    u = linalg.hermite([linalg.primitive_vector(direction)])[1]
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
    coords, _u, u_inv, _sign = linalg.hermite(face_periods)
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
