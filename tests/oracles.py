"""Independent oracles for the test suite.

Everything here is deliberately naive (cofactor expansion, box scans,
textbook recurrences) and shares no code with the library paths it checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, lcm, prod


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
    M = f.ctx.M
    p = f.ctx.p
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
    M = f.ctx.M
    p = f.ctx.p
    n = f.ctx.n
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
    M, n = f.ctx.M, f.ctx.n
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
