"""Exact integer linear algebra on small dense matrices.

Vectors are tuples of ints and matrices are tuples of row tuples.
Everything is immutable and pure; no floating point anywhere. Dimensions
are desk scale (n <= 6), so one plain kernel is the right tool: the integer
column Hermite form (`hermite`), m * u = [h | 0] with u unimodular. The
determinant is the product of the Hermite diagonal times det u, and the
classical adjugate is u times det u times the adjugate of the triangular
h, which forward substitution gives with exact divisions: one pass gives
both (`adjugate`), so a deformed cone reads dependence, orientation and
face signs off one elimination. The rows of u_inv are a basis of
Z^n whose first r rows saturate the span of the r input rows, and the
cosets of Z^n modulo a lattice are a box read off the Hermite diagonal,
so no job needs an inverse: one Hermite pass gives a pairing cell its
basis, its box of base points and its lifts (`solomon_hu._cell`), the only
code that reduces points by a Hermite form. The measure test reads its
classes off adjugate coordinates instead (`amice._poles_vanish`).
A rational vector is scaled to integers first (`clear_denominators`): its
primitive vector is unchanged by a positive rescaling.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .errors import DependentInput

IntVec = tuple[int, ...]
IntMat = tuple[tuple[int, ...], ...]


def int_vec(entries: Iterable) -> IntVec:
    out = []
    for e in entries:
        if type(e) is not int:
            f = Fraction(e)
            if f.denominator != 1:
                raise ValueError(f"not an integer: {e}")
            e = f.numerator
        out.append(e)
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


def clear_denominators(v: Sequence) -> tuple[IntVec, int]:
    """(w, s) with w = s * v integral, for the least positive integer s."""
    if all(type(x) is int for x in v):
        return tuple(v), 1
    fracs = [Fraction(x) for x in v]
    s = lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (s // f.denominator) for f in fracs), s


def primitive_vector(v: Sequence) -> IntVec:
    """Scale a nonzero rational vector by a positive rational to the
    primitive integer vector on the same ray."""
    ints, _s = clear_denominators(v)
    g = gcd(*ints)
    if g == 0:
        raise DependentInput("cannot normalize the zero vector")
    return tuple(x // g for x in ints)


def det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix, 0 when it is singular:
    m * u = h gives det = det(u) * prod h_ii."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1  # hermite takes at least one row
    try:
        h, _u, _u_inv, sign = hermite(m)
    except DependentInput:
        return 0
    return sign * prod(h[i][i] for i in range(n))


def adjugate(m: Sequence[Sequence[int]]) -> tuple[IntMat, int]:
    """(adj, d) for a nonsingular integer matrix: d = det m and the
    classical adjugate adj = d * m^-1, so adj * m = m * adj = d * I and
    m^-1 v = adj v / d stays in integer arithmetic. Raises DependentInput
    when m is singular.

    With m * u = h, adj = u * x for x = d * h^-1 and d = det(u) * prod h_ii.
    """
    h, u, _u_inv, sign = hermite(m)
    d = sign * prod(h[i][i] for i in range(len(h)))
    return mat_mul(u, _triangular_adjugate(h, d)), d


def _triangular_adjugate(h: IntMat, d: int) -> list[list[int]]:
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


def hermite(rows: Sequence[Sequence[int]]) -> tuple[IntMat, IntMat, IntMat, int]:
    """Column Hermite form of an integer matrix with r independent rows of
    length m >= r.

    Returns (h, u, u_inv, sign) with rows * u = [h | 0]: h is r x r, lower
    triangular with a positive diagonal (entries left of the diagonal are
    not reduced), u is unimodular with det u = sign, and u_inv is its
    integer inverse. So the columns of h span the lattice in Z^r spanned by
    the columns of rows, and row i of rows is sum_j h_ij * u_inv_j. Only
    integer column operations run; each is mirrored on u and, inverted, on
    the rows of u_inv, so no inverse is ever computed, and sign flips with
    each column swap and negation. Raises DependentInput when the rows are
    dependent or r > m.
    """
    m = len(rows[0]) if rows else 0
    r = len(rows)
    if not 0 < r <= m:
        raise DependentInput("vectors are linearly dependent")
    cols = [list(c) for c in zip(*rows)]  # column j of rows
    ut = [list(e) for e in identity(m)]  # column j of u
    ui = [list(e) for e in identity(m)]  # row j of u_inv
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
    return h, transpose(ut), tuple(map(tuple, ui)), sign
