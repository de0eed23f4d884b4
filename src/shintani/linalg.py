"""Exact rational and integer linear algebra on small dense matrices.

Vectors are tuples of Fractions (or ints for lattice vectors), matrices are
tuples of row tuples. Everything is immutable and pure; no floating point
anywhere. Dimensions are desk scale (n <= 6), so two plain kernels are the
right tools: Gauss-Jordan elimination over Q (`_reduce`) behind det, rank,
solve and inverses, and the integer column Hermite form (`hermite`) behind
every lattice job. Cosets of Z^n modulo a lattice are a box read off the
Hermite diagonal, and a saturation with its complement is read off the
unimodular transform, so neither needs an inverse.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
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


def hermite(rows: Sequence[Sequence[int]]) -> tuple[IntMat, IntMat, IntMat]:
    """Column Hermite form of an integer matrix with r independent rows of
    length m >= r.

    Returns (h, u, u_inv) with rows * u = [h | 0]: h is r x r, lower
    triangular with a positive diagonal (entries left of the diagonal are
    not reduced), u is unimodular and u_inv is its integer inverse. So the columns of h span the lattice in Z^r spanned by
    the columns of rows, and row i of rows is sum_j h_ij * u_inv_j. Only
    integer column operations run; each is mirrored on u and, inverted, on
    the rows of u_inv, so no inverse is ever computed. Raises DependentInput
    when the rows are dependent or r > m.
    """
    m = len(rows[0]) if rows else 0
    r = len(rows)
    if not 0 < r <= m:
        raise DependentInput("vectors are linearly dependent")
    cols = [list(c) for c in zip(*rows)]  # column j of rows
    ut = [list(e) for e in identity(m)]  # column j of u
    ui = [list(e) for e in identity(m)]  # row j of u_inv
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
        if cols[i][i] == 0:
            raise DependentInput("vectors are linearly dependent")
        if cols[i][i] < 0:
            for t in (cols, ut, ui):
                t[i] = [-x for x in t[i]]
    h = tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))
    return h, transpose(ut), tuple(map(tuple, ui))


def cosets(cols: Sequence[Sequence[int]], p: int | None = None) -> tuple[IntMat, list[IntVec]]:
    """Z^n modulo the lattice L spanned by the columns of a nonsingular
    integer matrix, or Z_p^n modulo its p-adic completion when p is given.

    Returns (h, reps): the columns of the lower-triangular h span L, and
    reps is the box 0 <= x_i < h_ii, one vector per class; `_coset_rep(h,
    v)` is the box vector in the class of v. At p the lattice is widened to
    L + p^k Z^n, with p^k the p-part of |det|; that lattice has the same
    classes in Z^n as the completion.
    """
    try:
        h = hermite(cols)[0]
    except DependentInput as exc:
        raise SingularMatrix("coset lattice is singular") from exc
    n = len(h)
    if p is not None:
        d = prod(h[i][i] for i in range(n))
        pk = gcd(d, p ** d.bit_length())
        h = hermite([row + tuple(pk * x for x in e) for row, e in zip(h, identity(n))])[0]
    return h, list(product(*(range(h[i][i]) for i in range(n))))


def _coset_rep(h: IntMat, v: Sequence[int]) -> IntVec:
    """The box vector 0 <= x_i < h_ii in the class of v modulo the columns
    of the lower-triangular h, reduced column by column."""
    x = list(v)
    for i, row in enumerate(h):
        q = x[i] // row[i]
        if q:
            for k in range(i, len(x)):
                x[k] -= q * h[k][i]
    return tuple(x)


def saturation_and_complement(vs: Sequence[Sequence[int]]) -> tuple[list[IntVec], list[IntVec], IntMat]:
    """Split Z^n into the saturation of span(vs) and a complement.

    Returns (sat, comp, coords): sat is an integer basis of span_Q(vs) n
    Z^n, sat + comp together form a basis of Z^n, and vs[i] = sum_j
    coords[i][j] * sat[j]. The integer vectors vs must be linearly
    independent. All three are read off hermite(vs): the rows of u_inv form
    a basis of Z^n, and vs = [h | 0] * u_inv.
    """
    h, _u, u_inv = hermite(vs)
    r = len(h)
    return list(u_inv[:r]), list(u_inv[r:]), h
