"""Exact rational and integer linear algebra on small dense matrices.

Vectors are tuples of Fractions (or ints for lattice vectors), matrices are
tuples of row tuples. Everything is immutable and pure; no floating point
anywhere. Dimensions are desk scale (n <= 6), so one plain Gauss-Jordan
kernel (`_reduce`) and textbook Smith reduction are the right tools; cosets
of Z^n modulo a lattice are read off the Smith form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DependentInput, SingularMatrix, ZeroDirection

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]
IntVec = tuple[int, ...]
IntMat = tuple[tuple[int, ...], ...]


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def int_vec(entries: Iterable) -> IntVec:
    out = []
    for e in entries:
        f = Fraction(e)
        if f.denominator != 1:
            raise ValueError(f"not an integer: {e}")
        out.append(int(f))
    return tuple(out)


def int_mat(rows: Iterable[Iterable]) -> IntMat:
    return tuple(int_vec(r) for r in rows)


def identity(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(sum(map(mul, row, v)) for row in m)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def transpose(m: Sequence[Sequence]) -> tuple:
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def _reduce(rows: list[list[Fraction]], ncols: int) -> tuple[list[int], Fraction]:
    """Gauss-Jordan elimination on the first ncols columns of rows, in place.

    Each pivot is scaled to 1 and cleared from every other row; columns
    past ncols ride along as augmented right-hand sides. Returns the pivot
    columns, in row order, and the determinant of the leading square block:
    the product of the pivots times the sign of the row swaps, and 0 as
    soon as a column has no pivot.
    """
    pivots: list[int] = []
    d = Fraction(1)
    for col in range(ncols):
        top = len(pivots)
        pivot = next((i for i in range(top, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            d = Fraction(0)
            continue
        if pivot != top:
            rows[top], rows[pivot] = rows[pivot], rows[top]
            d = -d
        lead = rows[top][col]
        d *= lead
        if lead != 1:
            rows[top][col:] = [x / lead for x in rows[top][col:]]
        # the pivot row is zero left of col, so row operations start there
        head = rows[top][col:]
        for i, row in enumerate(rows):
            if i != top and row[col] != 0:
                factor = row[col]
                row[col:] = [x - factor * y for x, y in zip(row[col:], head)]
        pivots.append(col)
    return pivots, d


def _fractions(m: Sequence[Sequence]) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in m]


def det(m: Sequence[Sequence]) -> Fraction:
    """Exact determinant by fraction-preserving Gaussian elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    return _reduce(_fractions(m), n)[1]


def rank(m: Sequence[Sequence]) -> int:
    """Rank of a rational matrix."""
    return len(_reduce(_fractions(m), len(m[0]) if m else 0)[0])


def solve(m: Sequence[Sequence], b: Sequence) -> Vec:
    """Solve the square system m*x = b exactly.

    Raises SingularMatrix when det(m) = 0.
    """
    n = len(m)
    a = [row + [Fraction(b[i])] for i, row in enumerate(_fractions(m))]
    if len(_reduce(a, n)[0]) < n:
        raise SingularMatrix("system matrix is singular")
    return tuple(row[n] for row in a)


def _inverse(m: Sequence[Sequence]) -> tuple[Mat, Fraction]:
    """Exact inverse and determinant, by one elimination of m augmented
    with the identity."""
    n = len(m)
    a = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(_fractions(m))]
    pivots, d = _reduce(a, n)
    if len(pivots) < n:
        raise SingularMatrix("system matrix is singular")
    return tuple(tuple(row[n:]) for row in a), d


def mat_inv(m: Sequence[Sequence]) -> Mat:
    """Exact inverse."""
    return _inverse(m)[0]


def adjugate(m: Sequence[Sequence[int]]) -> tuple[IntMat, int]:
    """(adj, d) for a nonsingular integer matrix: d = |det m| and the
    integer matrix adj = d * m^-1 (the classical adjugate up to sign), so
    m^-1 v = adj v / d stays in integer arithmetic."""
    inv, d = _inverse(m)
    d = abs(int(d))
    return tuple(tuple(int(d * x) for x in row) for row in inv), d


def int_mat_inv(m: Sequence[Sequence[int]]) -> IntMat:
    """Inverse of a unimodular integer matrix, as an integer matrix."""
    inv = mat_inv(m)
    return int_mat(inv)


def solve_in_span(basis: Sequence[Vec], w: Sequence) -> Vec | None:
    """Exact coordinates of w in the span of `basis` (as columns), or None.

    `basis` holds r <= n linearly independent vectors. Returns the unique
    coefficient tuple a with sum a_i * basis_i = w, or None when w is
    outside the span.
    """
    r = len(basis)
    if r == 0:
        return () if all(Fraction(x) == 0 for x in w) else None
    a = [row + [Fraction(x)] for row, x in zip(_fractions(transpose(basis)), w, strict=True)]
    if len(_reduce(a, r)[0]) < r:
        raise DependentInput("span basis is linearly dependent")
    # consistency: rows below the pivots must have zero right-hand side
    if any(row[r] != 0 for row in a[r:]):
        return None
    return tuple(row[r] for row in a[:r])


def content(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive_vector(v: Sequence) -> IntVec:
    """Scale a nonzero rational vector by a positive rational to the
    primitive integer vector on the same ray."""
    fracs = [Fraction(x) for x in v]
    if all(x == 0 for x in fracs):
        raise ZeroDirection("cannot normalize the zero vector")
    mult = lcm(*(f.denominator for f in fracs))
    ints = [int(f * mult) for f in fracs]
    g = content(ints)
    return tuple(x // g for x in ints)


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form data: left * input * right = diag(d).

    d satisfies the divisibility chain d_1 | d_2 | ... ; left and right are
    unimodular, so coset representatives computed in diagonal coordinates
    can be mapped back to the original basis.
    """

    d: IntVec
    left: IntMat
    right: IntMat


def _smith(a_in: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Reduce a rectangular integer matrix to Smith form.

    Returns (left, d, right) with left * a_in * right = d, d diagonal with
    the divisibility chain, left/right unimodular.
    """
    rows = len(a_in)
    cols = len(a_in[0])
    a = [[int(x) for x in row] for row in a_in]
    left = [list(r) for r in identity(rows)]
    right = [list(r) for r in identity(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + c * y for x, y in zip(left[dst], left[src])]

    def add_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in right:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    k = 0
    limit = min(rows, cols)
    while k < limit:
        # move a minimal nonzero entry of the trailing block to (k, k)
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(k, best[0])
        swap_cols(k, best[1])
        dirty = False
        for i in range(k + 1, rows):
            if a[i][k] != 0:
                q = a[i][k] // a[k][k]
                add_row(i, k, -q)
                if a[i][k] != 0:
                    dirty = True
        for j in range(k + 1, cols):
            if a[k][j] != 0:
                q = a[k][j] // a[k][k]
                add_col(j, k, -q)
                if a[k][j] != 0:
                    dirty = True
        if dirty:
            continue
        # the pivot must divide the whole trailing block for the chain to hold
        witness = None
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if a[i][j] % a[k][k] != 0:
                    witness = i
                    break
            if witness is not None:
                break
        if witness is not None:
            add_row(k, witness, 1)
            continue
        if a[k][k] < 0:
            negate_row(k)
        k += 1
    return left, a, right


def snf(m: Sequence[Sequence[int]]) -> SnfResult:
    """Smith normal form of a nonsingular square integer matrix."""
    n = len(m)
    mi = int_mat(m)
    if det(mi) == 0:
        raise SingularMatrix("Smith form requested for a singular matrix")
    left, d, right = _smith(mi)
    diag = tuple(d[i][i] for i in range(n))
    return SnfResult(d=diag, left=int_mat(left), right=int_mat(right))


def cosets(cols: Sequence[Sequence[int]], p: int | None = None) -> tuple[IntMat, IntVec, list[IntVec]]:
    """Z^n modulo the lattice spanned by the columns of a nonsingular
    integer matrix, or Z_p^n modulo its p-adic completion when p is given.

    Returns (left, moduli, reps): v and w lie in one class exactly when
    left*v and left*w agree modulo moduli coordinatewise, and reps holds
    one integer vector per class, |det| of them (its p-part when p is
    given). Classes are read off the Smith form left * cols * right = diag(d).
    """
    res = snf(cols)
    moduli = res.d if p is None else tuple(gcd(d, p ** d.bit_length()) for d in res.d)
    left_inv = int_mat_inv(res.left)
    reps = [mat_vec(left_inv, digits) for digits in product(*(range(m) for m in moduli))]
    return res.left, moduli, reps


def saturation_and_complement(vs: Sequence[Sequence]) -> tuple[list[IntVec], list[IntVec]]:
    """Split Z^n into the saturation of span(vs) and a complement.

    Returns (sat, comp): sat is an integer basis of span_Q(vs) n Z^n, and
    sat + comp together form a basis of Z^n. Input vectors may be rational;
    they must be linearly independent.
    """
    r = len(vs)
    if r == 0:
        raise DependentInput("need at least one vector")
    n = len(vs[0])
    rows = []
    for v in vs:
        fracs = [Fraction(x) for x in v]
        mult = lcm(*(f.denominator for f in fracs))
        rows.append([int(f * mult) for f in fracs])
    left, d, right = _smith(rows)
    if any(d[i][i] == 0 for i in range(min(r, n))) or r > n:
        raise DependentInput("vectors are linearly dependent")
    right_inv = int_mat_inv(right)
    # rows of right_inv form a Z^n basis; the first r span the saturation
    return [tuple(right_inv[i]) for i in range(r)], [tuple(right_inv[i]) for i in range(r, n)]


def saturate_span(vs: Sequence[Sequence]) -> list[IntVec]:
    """Integer basis of span_Q(vs) n Z^n for linearly independent vs."""
    sat, _ = saturation_and_complement(vs)
    return sat
