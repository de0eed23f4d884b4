"""Exact integer linear algebra on small dense matrices.

Vectors are tuples of ints and matrices are tuples of row tuples.
Everything is immutable and pure; no floating point anywhere. Dimensions
are desk scale (n <= 6), so one plain kernel is the right tool: `hermite`,
the integer column Hermite form m * u = [h | 0] with u unimodular, by one
column Euclid loop that builds u only for callers that read it; det m =
det u * prod h_ii needs no u (`det`). The only other kernel is forward
substitution, d * h^-1 v with exact divisions (`triangular_solve`): the
classical adjugate is u * d h^-1, column by column (`adjugate`), a
deformed cone solves for its vector, and for its frame on a tie, and a
pairing cell for its basis: the first r rows b of u^-1 saturate the span
of the r rows of m = h b, so b = h^-1 m, solved with d = 1
(`solomon_hu._cell`). The cosets of Z^n modulo a lattice are a box read
off the Hermite diagonal, so no job needs an inverse; the trailing rows
of u^-1 = det(u) adj(u) complete a denominator basis (`amice`). A
rational vector is scaled to integers first (`clear_denominators`): its
primitive vector is unchanged by a positive rescaling.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

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
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(sum(map(mul, row, v)) for row in m)


def transpose(m: Sequence[Sequence]) -> tuple:
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def clear_denominators(v: Sequence) -> IntVec:
    """s * v for the least positive integer s that makes it integral."""
    if all(type(x) is int for x in v):
        return tuple(v)
    fracs = [Fraction(x) for x in v]
    s = lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (s // f.denominator) for f in fracs)


def primitive_vector(v: Sequence) -> IntVec:
    """Scale a nonzero rational vector by a positive rational to the
    primitive integer vector on the same ray."""
    ints = clear_denominators(v)
    g = gcd(*ints)
    if g == 0:
        raise DependentInput("cannot normalize the zero vector")
    return tuple(x // g for x in ints)


def det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix, 0 when it is singular:
    d = det(u) * prod h_ii of `hermite`, which builds no u."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1  # hermite takes at least one row
    try:
        return hermite(m)[2]
    except DependentInput:
        return 0


def adjugate(m: Sequence[Sequence[int]]) -> tuple[IntMat, int]:
    """(adj, d) for a nonsingular integer matrix: d = det m and the
    classical adjugate adj = d * m^-1, so adj * m = m * adj = d * I and
    m^-1 v = adj v / d stays in integer arithmetic. Raises DependentInput
    when m is singular. With m * u = h (u built), column j of adj
    is u * (d h^-1 e_j), by `triangular_solve`."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("adjugate of a non-square matrix")
    h, u, d = hermite(m, with_u=True)
    xs = [triangular_solve(h, d, e) for e in identity(n)]  # the columns of d h^-1
    return tuple(tuple(sum(map(mul, row, x)) for x in xs) for row in u), d


def triangular_solve(h: IntMat, d: int, v: Sequence[int]) -> list[int]:
    """z = d * h^-1 v for a lower-triangular h with a positive diagonal and
    an integer v, by forward substitution; each division is exact whenever
    z is integral: for every v when prod h_ii divides d, and with d = 1 when
    v lies in the lattice of h's columns."""
    z = []
    for row, x in zip(h, v):  # row meets the z found so far
        z.append((d * x - sum(map(mul, row, z))) // row[len(z)])
    return z


def hermite(rows: Sequence[Sequence[int]], with_u: bool = False) -> tuple[IntMat, IntMat, int]:
    """The one elimination kernel: rows * u = [h | 0] by column Euclid steps,
    for r independent integer rows of length m >= r. Returns (h, u, d): h is
    r x r, as rows, lower triangular with a positive diagonal (entries left of
    it are not reduced), so its columns span the lattice of the columns of
    rows; u is unimodular, built only with_u, else (); d = det(u) * prod h_ii,
    det(rows) when r = m. Raises DependentInput when the rows are dependent
    or r > m."""
    m = len(rows[0]) if rows else 0
    r = len(rows)
    if not 0 < r <= m:
        raise DependentInput("vectors are linearly dependent")
    cu = [[*c, *(0,) * j, 1, *(0,) * (m - 1 - j)] if with_u else list(c)
          for j, c in enumerate(zip(*rows))]  # column j of [h | 0], then of u
    sign = 1
    for i in range(r):
        for j in range(i + 1, m):
            # Euclid on columns i and j until row i has a zero in column j
            while cu[j][i]:
                if q := cu[i][i] // cu[j][i]:  # q = 0 leaves both as they are
                    cu[i] = [x - q * y for x, y in zip(cu[i], cu[j])]
                cu[i], cu[j] = cu[j], cu[i]
                sign = -sign
        if cu[i][i] == 0:
            raise DependentInput("vectors are linearly dependent")
        if cu[i][i] < 0:
            cu[i] = [-x for x in cu[i]]
            sign = -sign
    d = sign * prod(map(list.__getitem__, cu, range(r)))
    h = tuple(zip(*(c[:r] for c in cu[:r])))
    return h, tuple(zip(*(c[r:] for c in cu))) if with_u else (), d
