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

Exponents are packed (Kronecker substitution): v is the int sum_i v_i
2^(W(n-1-i)) with |v_i| < 2^(W-1), so a shift is one int addition and the
ints sort as the tuples do. W is the least multiple of 64 above the bound
each element carries: for a cell the base-point plus the lift bound, for a
sum the largest summand bound plus its denominator's max-norms.

Pairing an open cone with a step function of level M scales the generators
positively to primitive vectors, multiplies by M to obtain periods, and sums
the function over the half-open fundamental cell of those periods, which is
the cell of the primitive vectors lifted by their multiples below M; the
periods become the denominator factors. Residues mod M are packed as well,
and a sum of two is reduced by one carry-free digit-wise step (_pair_cell).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import gcd, prod
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import linalg
from .cones import ConeFunction, OpenCone
from .errors import CellTooLarge, DependentInput, NotUnimodular, SchemaError
from .linalg import IntVec
from .testfunctions import TestFunction, _as_int, _as_list, _only_keys

# most integer points a pairing cell may have
CELL_POINT_BUDGET = 10**6


def _width(bound: int) -> int:  # the least multiple W of 64 with bound < 2^(W-1)
    return 64 * (bound.bit_length() // 64 + 1)


def _pack(v: Iterable[int], W: int) -> int:
    """sum_i v_i 2^(W(n-1-i)); OverflowError unless every |v_i| < 2^(W-1)."""
    half, key = 1 << (W - 1), 0
    for x in v:
        if not -half < x < half:
            raise OverflowError(f"coordinate {x} does not fit a {W}-bit digit")
        key = (key << W) + x
    return key


def _unpack(key: int, n: int, W: int) -> IntVec:
    half, mask, out = 1 << (W - 1), (1 << W) - 1, [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = x = ((key + half) & mask) - half
        key = (key - x) >> W
    return tuple(out)


class GroupAlgebraElement:
    """Finite rational combination of lattice Dirac symbols: `packed` maps
    exponents packed at width W, all |v_i| <= bound, to nonzero int or
    non-integral Fraction coefficients. The public constructor normalizes
    arbitrary input; every internal result is built clean."""

    __slots__ = ("packed", "n", "W", "bound")

    def __init__(self, terms: Mapping[IntVec, Fraction] | None = None):
        cleaned: dict[IntVec, int | Fraction] = {}
        for v, c in (terms or {}).items():
            c = Fraction(c)
            if c != 0:
                cleaned[tuple(int(x) for x in v)] = c.numerator if c.denominator == 1 else c
        self.bound = max((abs(x) for v in cleaned for x in v), default=0)
        self.n, self.W = len(next(iter(cleaned), ())), _width(self.bound)
        self.packed = {_pack(v, self.W): c for v, c in cleaned.items()}

    @staticmethod
    def _of(packed: dict, n: int, W: int, bound: int) -> "GroupAlgebraElement":
        """Wrap a packed dict that holds no zero and no integral Fraction."""
        out = GroupAlgebraElement.__new__(GroupAlgebraElement)
        out.packed, out.n, out.W, out.bound = packed, n, W, bound
        return out

    def _at(self, W: int) -> dict:  # the packed dict at a width W >= self.W
        return self.packed if W == self.W else {
            _pack(_unpack(k, self.n, self.W), W): c for k, c in self.packed.items()}

    @property
    def terms(self) -> Mapping[IntVec, int | Fraction]:  # a read-only tuple-keyed view
        return MappingProxyType({_unpack(k, self.n, self.W): c for k, c in self.packed.items()})

    def __bool__(self) -> bool:
        return bool(self.packed)


def denominator_product(den: Sequence[IntVec], W: int) -> dict:
    """prod_u (1 - delta_u), packed at a width W whose digits hold the sum
    of the max-norms of the u, which bounds every exponent."""
    out = {0: 1}
    for u in den:  # out * (1 - delta_u) = out minus out shifted by u
        s, terms = _pack(u, W), dict(out)
        for k, c in out.items():
            terms[k + s] = terms.get(k + s, 0) - c
        out = terms
    return {k: c for k, c in out.items() if c}  # the shifts cancel some terms


@dataclass(frozen=True, eq=False)
class PseudoMeasure:
    """Unreduced fraction numerator / prod (1 - delta_u), with the nonzero
    vectors u sorted. Equality is pm_eq, a zero difference."""

    num: GroupAlgebraElement
    den: tuple[IntVec, ...]

    @property
    def dim(self) -> int:
        if self.den:
            return len(self.den[0])
        if self.num:
            return self.num.n
        raise ValueError("dimension of the zero pseudo-measure is ambiguous")


def pm_zero() -> PseudoMeasure:
    return PseudoMeasure(GroupAlgebraElement._of({}, 0, _width(0), 0), ())


def _accumulate(terms: list) -> tuple[GroupAlgebraElement, tuple[IntVec, ...], int]:
    """The numerator of sum c * a over the least common denominator of the
    nonzero summands, that denominator, and the length of the last proper
    prefix of the terms that sums to zero."""
    live = [(c, a) for c, a in terms if c and a.num]
    most: dict[IntVec, int] = {}
    for _c, a in live:
        for u in set(a.den):
            most[u] = max(most.get(u, 0), a.den.count(u))
    union = tuple(u for u in sorted(most) for _ in range(most[u]))
    bound = max((a.num.bound for _c, a in live), default=0) + sum(max(map(abs, u)) for u in union)
    n, W = max((a.num.n for _c, a in live), default=0), _width(bound)
    out: dict[int, int | Fraction] = {}
    start, zero = 0, True
    for i, (c, a) in enumerate(terms):
        if c and a.num:
            missing = [u for u, m in most.items() for _ in range(m - a.den.count(u))]
            if missing:  # shift-subtract once by the factors a lacks
                shifts = [(w, c * x) for w, x in denominator_product(missing, W).items()]
                for v, x in a.num._at(W).items():
                    for w, cw in shifts:
                        out[v + w] = out.get(v + w, 0) + cw * x
            else:
                for v, x in a.num._at(W).items():
                    out[v] = out.get(v, 0) + c * x
            zero = not any(out.values())
        if zero and i + 1 < len(terms):
            start = i + 1
    # the sums cancel terms and add Fractions up to integers
    out = {k: c if type(c) is int or c.denominator != 1 else c.numerator
           for k, c in out.items() if c}
    return GroupAlgebraElement._of(out, n, W, bound), union, start


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
        return PseudoMeasure(pm_zero().num, a.den)
    if any(c and a.num for c, a in terms[:start]):  # else the prefix added nothing
        out, union, _start = _accumulate(terms[start:])
    return PseudoMeasure(out, union)


def pm_eq(a: PseudoMeasure, b: PseudoMeasure) -> bool:
    """Equality in the localization: a - b has a zero numerator, which is
    sound since the denominators are nonzero in an integral domain."""
    return not pm_sum(((1, a), (-1, b))).num


def pm_is_integer_constant(a: PseudoMeasure) -> int | None:
    """Return m when a equals m * delta_0 with m an integer, else None."""
    if not a.num:
        return 0
    W = max(a.num.W, _width(sum(max(map(abs, u)) for u in a.den)))
    dprod, num = denominator_product(a.den, W), a.num._at(W)
    m = Fraction(num[min(num)], dprod[min(dprod)])  # the ratio at the lowest exponents
    ok = m.denominator == 1 and num == {k: m * c for k, c in dprod.items()}
    return m.numerator if ok else None


def act_pm(g: Sequence[Sequence[int]], a: PseudoMeasure) -> PseudoMeasure:
    """Push a pseudo-measure forward along g in SL_n(Z): delta_v -> delta_{gv}."""
    gm = linalg.int_mat(g)
    if linalg.det(gm) != 1:
        raise NotUnimodular("pseudo-measure action requires determinant 1")
    old, bound = a.num, max(sum(map(abs, row)) for row in gm) * a.num.bound  # g's row norm
    W = _width(bound)  # g is a bijection, so no two images of the terms meet
    num = {_pack(linalg.mat_vec(gm, _unpack(k, old.n, old.W)), W): c
           for k, c in old.packed.items()}
    den = tuple(sorted(linalg.mat_vec(gm, u) for u in a.den))
    return PseudoMeasure(GroupAlgebraElement._of(num, old.n, W, bound), den)


def _cell(ws: Sequence[Sequence[int]], n: int) -> tuple[list[IntVec], list[tuple[IntVec, int]]]:
    """Base points and steps (s_i, g_i) of the half-open cell { sum x_i w_i :
    x_i in (0, 1] } by one Hermite pass for every rank r: its integer points
    are the sums of a base point and a lift sum k_i s_i, 0 <= k_i < g_i.

    With w_i = g_i s_i, s_i primitive, and s * u = [h | 0], the first r rows
    b_j of u_inv are a basis of the saturated span and s_i = sum_j h_ij b_j.
    The box 0 <= y_j < h_jj holds one point y.b of each class modulo the
    s_i, at cell coordinates x = adj(h)^T y / d with d = prod h_jj, and
    ceil(x) - 1 = (adj(h)^T y - 1) // d generators move it into the cell of
    the s_i: that is a base point. The cell has d * prod g_i points, a count
    checked against CELL_POINT_BUDGET (CellTooLarge) before any point is made.
    """
    ws = [linalg.int_vec(w) for w in ws]
    gs = [gcd(*w) for w in ws]
    s = [tuple(a // (g or 1) for a in w) for w, g in zip(ws, gs)]  # hermite refuses a zero w
    r = len(s)
    try:
        h, _u, u_inv, _sign = linalg.hermite(s) if r else ((), (), linalg.identity(n), 1)
    except DependentInput as exc:
        raise DependentInput("cell generators are linearly dependent") from exc
    count = (d := prod(h[j][j] for j in range(r))) * prod(gs)
    if count > CELL_POINT_BUDGET:
        raise CellTooLarge(f"the cell of the generators {[list(w) for w in ws]} has "
                           f"{count} integer points, more than {CELL_POINT_BUDGET}")
    xt, ht = list(zip(*linalg._triangular_adjugate(h, d))), list(zip(*h))  # adj(h)^T, h^T
    basis = [row[:r] for row in linalg.transpose(u_inv)]  # coordinate t of each b_j
    base = []
    for y in product(*(range(h[j][j]) for j in range(r))):
        k = [(sum(map(mul, y, row)) - 1) // d for row in xt]
        z = [a - sum(map(mul, row, k)) for a, row in zip(y, ht)]
        base.append(tuple(sum(map(mul, z, b)) for b in basis))
    return base, list(zip(s, gs))


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
    """pair_open_cone's cell sum over (exponent key, residue key) pairs. A
    residue digit is R = (2M).bit_length() + 1 bits wide, so a digit d of a
    sum t of two reduced keys is at most 2M - 2 < 2^(R-1). K and H hold
    2^(R-1) - M and 2^(R-1) in each digit: d + 2^(R-1) - M < 2^R carries into
    no other digit and reaches 2^(R-1) iff d >= M, so t - M(((t + K) & H) >>
    (R-1)) is t reduced mod M digit-wise. The lifts are int sums, axis by axis."""
    n, M = f.n, f.M
    periods = [tuple(M * x for x in s) for s in sorted(prims)]
    base, steps = _cell(periods, n)
    edges = zip(*([(g - 1) * x for x in s] for s, g in steps))  # the lifts' box, by coordinate
    bound = max(map(abs, chain(*base))) + max(
        (max(sum(x for x in e if x > 0), -sum(x for x in e if x < 0)) for e in edges), default=0)
    W, R = _width(bound), (2 * M).bit_length() + 1
    H = (1 << R - 1) * (ones := sum(1 << R * i for i in range(n)))  # _pack refuses 2^(R-1)
    K, top = H - M * ones, R - 1
    lifts = [(0, 0)]
    for s, g in steps:  # one axis at a time
        ks = [(_pack([k * x for x in s], W), _pack([k * x % M for x in s], R)) for k in range(g)]
        lifts = [(le + ke, (t := lr + kr) - M * (((t + K) & H) >> top))
                 for le, lr in lifts for ke, kr in ks]
    if not (values := f.residues):  # f's support residues at R-bit digits, packed once per f
        values.update((_pack(rho, R), c) for rho, c in f.values.items())
    ys = [(_pack(y, W), _pack([x % M for x in y], R)) for y in base]
    terms = {py + pl: c for py, ry in ys for pl, rl in lifts
             if (c := values.get((t := ry + rl) - M * (((t + K) & H) >> top)))}
    if not terms:
        return pm_zero()
    return PseudoMeasure(GroupAlgebraElement._of(terms, n, W, bound), tuple(periods))


def pair_cone_function(k: ConeFunction, f: TestFunction) -> PseudoMeasure:
    return pm_sum([(coeff, pair_open_cone(cone, f)) for coeff, cone in k.terms])


def pm_to_json(a: PseudoMeasure) -> dict:
    return {
        "numerator": [
            {"vector": list(_unpack(k, a.num.n, a.num.W)), "coeff": str(c)}
            for k, c in sorted(a.num.packed.items())
        ],
        "denominator": [list(u) for u in a.den],
    }


def pm_from_json(data: dict) -> PseudoMeasure:
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
