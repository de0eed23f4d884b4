"""Pseudo-measure arithmetic in the lattice group algebra and the pairing
of cone functions with step functions.

The group algebra is the ring of finite rational combinations of Dirac
symbols delta_v indexed by integer lattice vectors, with convolution
delta_u * delta_v = delta_{u+v}; it is a Laurent-polynomial ring, hence an
integral domain. A pseudo-measure is an unreduced fraction

    numerator / prod_u (1 - delta_u)

with nonzero lattice vectors u; sums are taken over the least common
denominator, and equality is a zero difference, which is sound in an
integral domain, so no canonical form is ever computed.

Pairing an open cone with a step function of level M scales the generators
positively to primitive vectors, multiplies by M to obtain periods, and sums
the function over the half-open fundamental cell of those periods, which is
the cell of the primitive vectors lifted by their multiples below M; the
periods become the denominator factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, prod
from operator import add, mul
from typing import Iterable, Mapping, Sequence

from . import linalg
from .cones import ConeFunction, OpenCone
from .errors import CellTooLarge, DependentInput, NotUnimodular, SchemaError
from .linalg import IntVec
from .testfunctions import TestFunction, _as_int

# most integer points a pairing cell may have
CELL_POINT_BUDGET = 10**6


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


def _accumulate(terms: list) -> tuple[dict, tuple[IntVec, ...], int]:
    """The numerator of sum c * a over the least common denominator of the
    nonzero summands, that denominator, and the length of the last proper
    prefix of the terms that sums to zero."""
    live = [(c, a) for c, a in terms if c and a.num]
    most: dict[IntVec, int] = {}
    for _c, a in live:
        for u in set(a.den):
            most[u] = max(most.get(u, 0), a.den.count(u))
    union = tuple(u for u in sorted(most) for _ in range(most[u]))
    out: dict[IntVec, int | Fraction] = {}
    start, zero = 0, True
    for i, (c, a) in enumerate(terms):
        if c and a.num:
            missing = [u for u, m in most.items() for _ in range(m - a.den.count(u))]
            if missing:  # shift-subtract once by the factors a lacks
                n = len(next(iter(a.num.terms)))
                shifts = [(w, c * x) for w, x in denominator_product(missing, n).terms.items()]
                for v, x in a.num.terms.items():
                    for w, cw in shifts:
                        key = tuple(map(add, v, w))
                        out[key] = out.get(key, 0) + cw * x
            else:
                for v, x in a.num.terms.items():
                    out[v] = out.get(v, 0) + c * x
            zero = not any(out.values())
        if zero and i + 1 < len(terms):
            start = i + 1
    return out, union, start


def pm_sum(terms: Iterable[tuple[int | Fraction, PseudoMeasure]]) -> PseudoMeasure:
    """Sum of c * a over the pairs (c, a), each numerator shifted once by
    the denominator factors it lacks. As in the left fold of pairwise sums
    from zero, which takes over the next summand whenever the running sum
    is zero and skips a zero summand otherwise, the denominator is the union
    (largest multiplicity per factor) of the nonzero summands after the last
    proper prefix that sums to zero; a zero summand alone after it is the sum.
    """
    terms = list(terms) or [(1, pm_zero())]  # the empty sum is zero
    out, union, start = _accumulate(terms)
    c, a = terms[start]
    if not (c and a.num):
        return PseudoMeasure(GroupAlgebraElement.zero(), a.den)
    if start:
        out, union, _start = _accumulate(terms[start:])
    return PseudoMeasure(GroupAlgebraElement._of(out), union)


def pm_eq(a: PseudoMeasure, b: PseudoMeasure) -> bool:
    """Equality in the localization: a - b has a zero numerator, which is
    sound since the denominators are nonzero in an integral domain."""
    return not pm_sum(((1, a), (-1, b))).num


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
    """Sorted integer points of the half-open cell { sum x_i w_i : x_i in
    (0, 1] }, by one Hermite pass for every rank r.

    With w_i = g_i s_i, s_i primitive, and s * u = [h | 0], the first r rows
    b_j of u_inv are a basis of the saturated span and s_i = sum_j h_ij b_j.
    The box 0 <= y_j < h_jj holds one point y.b of each class modulo the
    s_i, at cell coordinates x = adj(h)^T y / d with d = prod h_jj, and
    ceil(x) - 1 = (adj(h)^T y - 1) // d generators move it into the cell of
    the s_i. The periodic lift adds every sum k.s with 0 <= k_i < g_i, so
    the cell has d * prod g_i points, a count checked against
    CELL_POINT_BUDGET (CellTooLarge) before any point is made.
    """
    ws = [linalg.int_vec(w) for w in ws]
    gs = [gcd(*w) for w in ws]
    s = [tuple(a // (g or 1) for a in w) for w, g in zip(ws, gs)]  # hermite refuses a zero w
    r = len(s)
    try:
        h, _u, u_inv, _sign = linalg.hermite(s) if r else ((), (), linalg.identity(n), 1)
    except DependentInput as exc:
        raise DependentInput("cell generators are linearly dependent") from exc
    d = prod(h[j][j] for j in range(r))
    count = d * prod(gs)
    if count > CELL_POINT_BUDGET:
        raise CellTooLarge(f"the cell of the generators {[list(w) for w in ws]} has "
                           f"{count} integer points, more than {CELL_POINT_BUDGET}")
    xt, ht = list(zip(*linalg._triangular_adjugate(h, d))), list(zip(*h))  # adj(h)^T, h^T
    basis = [row[:r] for row in linalg.transpose(u_inv)]  # coordinate t of each b_j
    pts = []
    for y in product(*(range(h[j][j]) for j in range(r))):
        k = [(sum(map(mul, y, row)) - 1) // d for row in xt]
        z = [a - sum(map(mul, row, k)) for a, row in zip(y, ht)]
        pts.append(tuple(sum(map(mul, z, b)) for b in basis))
    for si, g in zip(s, gs):
        steps = [tuple(k * a for a in si) for k in range(g)]
        pts = [tuple(map(add, v, step)) for v in pts for step in steps]
    pts.sort()
    return pts


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
    values = f.values  # nonzero values by residue mod M
    terms = {}
    for v in enumerate_fundamental_domain(periods, n):
        val = values.get(tuple([x % M for x in v]))
        if val:
            terms[v] = val
    if not terms:
        return pm_zero()
    return PseudoMeasure(GroupAlgebraElement._of(terms), tuple(periods))


def pair_cone_function(k: ConeFunction, f: TestFunction) -> PseudoMeasure:
    return pm_sum([(coeff, pair_open_cone(cone, f)) for coeff, cone in k.terms])


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
            v = tuple(_as_int(x) for x in term["vector"])
            c = term["coeff"]
            if type(c) is not int and type(c) is not str:  # a bool or a float
                raise ValueError(f"coefficient {c!r} is not an integer or a rational string")
            num[v] = num.get(v, Fraction(0)) + Fraction(c)
        den = tuple(tuple(_as_int(x) for x in u) for u in data["denominator"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad pseudo-measure JSON: {exc}") from exc
    if len({len(v) for v in num} | {len(u) for u in den}) > 1:
        raise SchemaError("bad pseudo-measure JSON: vectors of different lengths")
    return PseudoMeasure(GroupAlgebraElement(num), den)
