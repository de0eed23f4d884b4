"""Pseudo-measure arithmetic in the lattice group algebra and the pairing
of cone functions with step functions.

The group algebra is the ring of finite rational combinations of Dirac
symbols delta_v indexed by integer lattice vectors, with convolution
delta_u * delta_v = delta_{u+v}; it is a Laurent-polynomial ring, hence an
integral domain. A pseudo-measure is an unreduced fraction

    numerator / prod_u (1 - delta_u)

with nonzero lattice vectors u; equality is decided by cross-multiplication,
which is sound in an integral domain, so no canonical form is ever computed.

Pairing an open cone with a step function of level M scales the generators
positively to primitive vectors, multiplies by M to obtain periods, and sums
the function over the half-open fundamental cell of those periods; the
periods become the denominator factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add, mul
from typing import Mapping, Sequence

from . import linalg
from .cones import ConeFunction, OpenCone
from .errors import DependentInput, NotUnimodular, SchemaError, SingularMatrix
from .linalg import IntVec
from .testfunctions import TestFunction


class GroupAlgebraElement:
    """Finite rational combination of lattice Dirac symbols.

    Integral coefficients are stored as int, the others as Fraction; the
    operations build cleaned term dicts directly, so only the public
    constructor pays for normalizing arbitrary input.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[IntVec, Fraction] | None = None):
        cleaned: dict[IntVec, int | Fraction] = {}
        for v, c in (terms or {}).items():
            c = Fraction(c)
            if c != 0:
                cleaned[tuple(int(x) for x in v)] = c.numerator if c.denominator == 1 else c
        self.terms = cleaned

    @staticmethod
    def _of(terms: dict) -> "GroupAlgebraElement":
        """Wrap a dict with integer-tuple keys and int or Fraction values,
        dropping zeros and turning integral Fractions into int."""
        out = GroupAlgebraElement.__new__(GroupAlgebraElement)
        out.terms = {
            v: c if type(c) is int or c.denominator != 1 else c.numerator
            for v, c in terms.items()
            if c
        }
        return out

    @staticmethod
    def zero() -> "GroupAlgebraElement":
        return GroupAlgebraElement()

    @staticmethod
    def delta(v: Sequence[int], coeff=1) -> "GroupAlgebraElement":
        return GroupAlgebraElement({tuple(int(x) for x in v): coeff})

    @staticmethod
    def one(n: int) -> "GroupAlgebraElement":
        return GroupAlgebraElement.delta((0,) * n)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupAlgebraElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        out = dict(self.terms)
        for v, c in other.terms.items():
            out[v] = out.get(v, 0) + c
        return GroupAlgebraElement._of(out)

    def __neg__(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement._of({v: -c for v, c in self.terms.items()})

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + (-other)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        out: dict[IntVec, int | Fraction] = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                key = tuple(map(add, u, v))
                out[key] = out.get(key, 0) + cu * cv
        return GroupAlgebraElement._of(out)

    def scale(self, c) -> "GroupAlgebraElement":
        c = Fraction(c)
        c = c.numerator if c.denominator == 1 else c
        return GroupAlgebraElement._of({v: c * x for v, x in self.terms.items()})

    def map_exponents(self, fn) -> "GroupAlgebraElement":
        out: dict[IntVec, int | Fraction] = {}
        for v, c in self.terms.items():
            key = tuple(int(x) for x in fn(v))
            out[key] = out.get(key, 0) + c
        return GroupAlgebraElement._of(out)

    def __repr__(self):
        if not self.terms:
            return "GA(0)"
        body = " + ".join(f"{c}*d{list(v)}" for v, c in sorted(self.terms.items()))
        return f"GA({body})"


def denominator_product(den: Sequence[IntVec], n: int) -> GroupAlgebraElement:
    out = GroupAlgebraElement.one(n)
    for u in den:
        # out * (1 - delta_u) = out minus out shifted by u
        terms = dict(out.terms)
        for v, c in out.terms.items():
            key = tuple(map(add, v, u))
            terms[key] = terms.get(key, 0) - c
        out = GroupAlgebraElement._of(terms)
    return out


@dataclass(frozen=True)
class PseudoMeasure:
    """Unreduced fraction numerator / prod (1 - delta_u)."""

    num: GroupAlgebraElement
    den: tuple[IntVec, ...]

    def __post_init__(self):
        den = tuple(sorted(tuple(int(x) for x in u) for u in self.den))
        for u in den:
            if all(x == 0 for x in u):
                raise ValueError("denominator vectors must be nonzero")
        object.__setattr__(self, "den", den)

    @property
    def dim(self) -> int:
        if self.den:
            return len(self.den[0])
        for v in self.num.terms:
            return len(v)
        raise ValueError("dimension of the zero pseudo-measure is ambiguous")


def pm_zero() -> PseudoMeasure:
    return PseudoMeasure(GroupAlgebraElement.zero(), ())


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
    num = a.num * denominator_product(extra_a, n) + b.num * denominator_product(extra_b, n)
    return PseudoMeasure(num, union)


def pm_scale(a: PseudoMeasure, c) -> PseudoMeasure:
    return PseudoMeasure(a.num.scale(c), a.den)


def pm_eq(a: PseudoMeasure, b: PseudoMeasure) -> bool:
    """Equality in the localization, by cross-multiplication with the
    factors the denominators do not share (cancelling the shared ones is
    sound in an integral domain)."""
    if not a.num and not b.num:
        return True
    if not a.num or not b.num:
        return False
    n = a.dim
    _union, extra_a, extra_b = _lcm_denominator(a.den, b.den)
    return a.num * denominator_product(extra_a, n) == b.num * denominator_product(extra_b, n)


def pm_is_integer_constant(a: PseudoMeasure) -> int | None:
    """Return m when a equals m * delta_0 with m an integer, else None."""
    if not a.num:
        return 0
    n = a.dim
    dprod = denominator_product(a.den, n)
    anchor = min(dprod.terms)
    coeff = a.num.terms.get(anchor)
    if coeff is None:
        return None
    m = Fraction(coeff, dprod.terms[anchor])
    if m.denominator != 1:
        return None
    return m.numerator if a.num == dprod.scale(m.numerator) else None


def act_pm(g: Sequence[Sequence[int]], a: PseudoMeasure) -> PseudoMeasure:
    """Push a pseudo-measure forward along g in SL_n(Z): delta_v -> delta_{gv}."""
    gm = linalg.int_mat(g)
    if linalg.det(gm) != 1:
        raise NotUnimodular("pseudo-measure action requires determinant 1")
    num = a.num.map_exponents(lambda v: linalg.mat_vec(gm, v))
    den = tuple(tuple(int(x) for x in linalg.mat_vec(gm, u)) for u in a.den)
    return PseudoMeasure(num, den)


def enumerate_fundamental_domain(ws: Sequence[Sequence[int]], n: int) -> list[IntVec]:
    """Integer points of the half-open cell { sum x_i w_i : x_i in (0, 1] }.

    For r = n the count is |det|; every residue class mod the lattice
    spanned by ws has exactly one representative in the cell, so the points
    are enumerated through Hermite-form coset representatives and shifted
    into the cell, with no box scanning. For r < n the enumeration runs
    inside the saturation of the span, on the coordinates of ws there.
    """
    ws_int = [linalg.int_vec(w) for w in ws]
    r = len(ws_int)
    if r == 0:
        return [(0,) * n]
    if r == n:
        return _cell_points_full(ws_int)
    sat, _comp, coords = linalg.saturation_and_complement(ws_int)
    inner = _cell_points_full(coords)
    out = []
    for y in inner:
        v = tuple(sum(y[k] * sat[k][j] for k in range(r)) for j in range(n))
        out.append(v)
    return sorted(out)


def _cell_points_full(ws: Sequence[IntVec]) -> list[IntVec]:
    cols = linalg.transpose(ws)
    try:
        adj, d = linalg.adjugate(cols)
    except SingularMatrix as exc:
        raise DependentInput("cell generators are linearly dependent") from exc
    # one cell point per coset of the column lattice: a representative in
    # the Hermite box has cell coordinates x = adj * rep / d and moves into
    # (0, 1]^r by ceil(x) - 1 = (adj * rep - 1) // d periods
    h = linalg.coset_lattice(cols)
    out = []
    for rep in product(*(range(h[i][i]) for i in range(len(h)))):
        shift = [(sum(map(mul, row, rep)) - 1) // d for row in adj]
        out.append(tuple(x - sum(map(mul, row, shift)) for x, row in zip(rep, cols)))
    return sorted(out)


def pair_open_cone(c: OpenCone, f: TestFunction) -> PseudoMeasure:
    """Pair one open cone with a step function.

    Generators are positively rescaled to primitive vectors and multiplied
    by the level M so they become periods of f; the result is

        sum_{v in cell} f(v) delta_v / prod_i (1 - delta_{M v_i}),

    with integer coefficients. The rank-0 cone contributes f(0) * delta_0.
    The result depends only on the set of primitive generators, which the
    cone stores, so it is memoised on f under that set
    (`TestFunction.pairings`).
    """
    prims = frozenset(c.generators)
    hit = f.pairings.get(prims)
    if hit is None:
        hit = f.pairings[prims] = _pair_cell(prims, f)
    return hit


def _pair_cell(prims: frozenset[IntVec], f: TestFunction) -> PseudoMeasure:
    n, M = f.ctx.n, f.ctx.M
    periods = [tuple(M * x for x in s) for s in sorted(prims)]
    pts = enumerate_fundamental_domain(periods, n)
    terms = {}
    for v in pts:
        val = f.value_at(v)
        if val:
            terms[v] = val
    if not terms:
        return pm_zero()
    return PseudoMeasure(GroupAlgebraElement._of(terms), tuple(periods))


def pair_cone_function(k: ConeFunction, f: TestFunction) -> PseudoMeasure:
    out = pm_zero()
    for coeff, cone in k.terms:
        out = pm_add(out, pm_scale(pair_open_cone(cone, f), coeff))
    return out


def pm_to_json(a: PseudoMeasure) -> dict:
    return {
        "numerator": [
            {"vector": list(v), "coeff": str(c)}
            for v, c in sorted(a.num.terms.items())
        ],
        "denominator": [list(u) for u in a.den],
    }


def pm_from_json(data: dict) -> PseudoMeasure:
    try:
        num: dict[IntVec, Fraction] = {}
        for term in data["numerator"]:
            v = tuple(int(x) for x in term["vector"])
            num[v] = num.get(v, Fraction(0)) + Fraction(term["coeff"])
        den = tuple(tuple(int(x) for x in u) for u in data["denominator"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad pseudo-measure JSON: {exc}") from exc
    if len({len(v) for v in num} | {len(u) for u in den}) > 1:
        raise SchemaError("bad pseudo-measure JSON: vectors of different lengths")
    return PseudoMeasure(GroupAlgebraElement(num), den)
