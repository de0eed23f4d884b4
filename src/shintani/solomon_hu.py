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
ints sort as the tuples do. W is the least multiple of 16 above the bound
each element carries: for a cell the base-point plus the lift bound, for a
sum the largest summand bound plus its denominator's max-norms. The 16-bit
step keeps the keys of small exponents short, so they hash and add fast, and
is coarse enough that the summands of one sum rarely need repacking. Bulk readers
take the exponents column by column: adding 2^(W-1) to every digit puts it in
[0, 2^W) with no borrow, so coordinate i of every key is a shift and a mask
(_unpack_columns); matrices act on the coordinate lists, and as packing is
linear, the key of g v is sum_i v_i times the key of column i of g (act_pm).

Pairing a cone with a step function of level M scales the generators positively
to primitive vectors s, and sums the function over the half-open fundamental
cell of the periods M s, which is the cell of the s (_cell, on the steps (s, M))
lifted by their multiples below M; the periods become the denominator factors.
A cell coordinate lies in (0, 1] on an open generator and in [0, 1) on a closed
one, so a deformed cone pairs as one cell. Base points are built column by
column, and a unimodular cell has one, the sum of its open s, with no box.
Residues mod M are packed, a sum of two reduced by one carry-free step, so the
residue of each lift is the previous one's plus a step's; f is read once per
base point and lift residue (_pair_cell).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import chain, product
from math import gcd, prod
from types import MappingProxyType

from . import linalg
from .cones import OpenCone
from .errors import CellTooLarge, DependentInput, NotUnimodular, SchemaError, _ReadOnly
from .linalg import IntVec
from .testfunctions import MAX_DIMENSION, TestFunction, _as_int, _as_list, _as_rational, _only_keys

# most integer points a pairing cell may have
CELL_POINT_BUDGET = 10**6


def _width(bound: int) -> int:  # the least multiple W of 16 with bound < 2^(W-1)
    # 16-bit steps: keys of small exponents stay short (48 bits at n = 3, not 192) and
    # hash and add faster; at 8, pm_sum repacks summands whose bounds straddle a step
    return 16 * (bound.bit_length() // 16 + 1)


def _pack(v: Iterable[int], W: int) -> int:
    """sum_i v_i 2^(W(n-1-i)); OverflowError unless every |v_i| < 2^(W-1)."""
    half, key = 1 << (W - 1), 0
    for x in v:
        if not -half < x < half:
            raise OverflowError(f"coordinate {x} does not fit a {W}-bit digit")
        key = (key << W) + x
    return key


def _unpack_columns(keys: list[int], n: int, W: int) -> list[list[int]]:
    """Coordinate i of every key, for each i < n, digits lifted by 2^(W-1)."""
    half, mask, lift = 1 << (W - 1), (1 << W) - 1, sum(1 << W * i + W - 1 for i in range(n))
    keys = [k + lift for k in keys]
    return [[(k >> W * i & mask) - half for k in keys] for i in range(n - 1, -1, -1)]


def _weighted_sum(weights: Iterable[int], cols: Iterable[list[int]], count: int) -> list[int]:
    """sum_i w_i cols[i], entry by entry, for lists of count entries."""
    out = [0] * count
    for w, col in zip(weights, cols):
        if w:
            out = [s + w * x for s, x in zip(out, col)]
    return out


def _pack_columns(cols: Sequence[list[int]], W: int, count: int) -> list[int]:
    return _weighted_sum([1 << W * i for i in range(len(cols) - 1, -1, -1)], cols, count)


class GroupAlgebraElement:
    """Finite rational combination of lattice Dirac symbols: `packed` maps
    exponents packed at width W, all |v_i| <= bound, to nonzero int or
    non-integral Fraction coefficients. The public constructor normalizes
    arbitrary input; every internal result is built clean."""

    __slots__ = ("packed", "n", "W", "bound")

    def __init__(self, terms: Mapping[IntVec, Fraction] | None = None):
        cleaned: dict[IntVec, int | Fraction] = {}
        for v, c in (terms or {}).items():
            if type(c) is not int and (c := Fraction(c)).denominator == 1:
                c = c.numerator
            if c != 0:
                cleaned[tuple(map(int, v))] = c
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
        return self.packed if W == self.W else dict(
            zip(_pack_columns(self.columns(), W, len(self.packed)), self.packed.values()))

    @property
    def terms(self) -> Mapping[IntVec, int | Fraction]:  # a read-only view, in packed order
        vectors = zip(*self.columns()) if self.n else [()] * len(self.packed)  # () at n = 0
        return MappingProxyType(dict(zip(vectors, self.packed.values())))

    def columns(self, m: Sequence[Sequence[int]] | None = None) -> list[list[int]]:
        """The coordinate lists of the exponents v, or of m v, in `packed` order."""
        cols = _unpack_columns(list(self.packed), self.n, self.W)
        return cols if m is None else [_weighted_sum(row, cols, len(self.packed)) for row in m]

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


class PseudoMeasure(_ReadOnly):
    """Unreduced fraction numerator / prod (1 - delta_u), with the nonzero
    vectors u sorted. Read-only; equality is pm_eq, a zero difference, and
    == compares identity."""

    __slots__ = ("num", "den")

    def __init__(self, num: GroupAlgebraElement, den: tuple[IntVec, ...]):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def dim(self) -> int:
        if self.den:
            return len(self.den[0])
        if self.num:
            return self.num.n
        raise ValueError("dimension of the zero pseudo-measure is ambiguous")


def pm_zero() -> PseudoMeasure:
    return PseudoMeasure(GroupAlgebraElement._of({}, 0, _width(0), 0), ())


def pm_sum(terms: Iterable[tuple[int | Fraction, PseudoMeasure]]) -> PseudoMeasure:
    """Sum of c * a over the pairs (c, a), in one pass. The denominator is
    the sorted union, with the largest multiplicity of each factor, of the
    nonzero summands' denominators, and each nonzero numerator is shifted
    once by the factors its summand lacks, so the printed sum does not
    depend on the order of the terms. With no nonzero summand it is pm_zero().
    Nonzero summands of two dimensions raise ValueError naming both.
    """
    live = [(c, a.num, Counter(a.den)) for c, a in terms if c and a.num]
    n = live[0][1].n if live else 0
    most: Counter[IntVec] = Counter()
    for _c, x, den in live:
        if x.n != n:  # else a shorter exponent packs as if padded with leading zeros
            raise ValueError(f"cannot add pseudo-measures of dimensions {n} and {x.n}")
        most |= den
    union = tuple(sorted(most.elements()))
    bound = max((x.bound for _c, x, _d in live), default=0) + sum(max(map(abs, u)) for u in union)
    W = _width(bound)
    out: dict[int, int | Fraction] = {}
    get = out.get
    for c, x, den in live:  # shift-subtract once by the factors x lacks
        lacks = denominator_product(list((most - den).elements()), W)
        num = x._at(W)
        for w, cw in lacks.items():
            cw *= c
            if w:
                for v, cv in num.items():
                    out[k] = get(k := v + w, 0) + cw * cv
            elif cw == 1 and not out:  # the first pass into an empty sum
                out.update(num)
            else:  # the unshifted pass
                for v, cv in num.items():
                    out[v] = get(v, 0) + cw * cv
    # the sums cancel terms and add Fractions up to integers; a sum that cancels
    # to zero, as every wedge does, needs no pass over its terms
    out = {k: c if type(c) is int or c.denominator != 1 else c.numerator
           for k, c in out.items() if c} if any(out.values()) else {}
    return PseudoMeasure(GroupAlgebraElement._of(out, n, W, bound), union)


def pm_eq(a: PseudoMeasure, b: PseudoMeasure) -> bool:
    """Equality in the localization: a - b has a zero numerator, which is
    sound since the denominators are nonzero in an integral domain. On equal
    denominators (sorted tuples, so equal multisets) that is equal numerators,
    compared as packed dicts at their common width. Nonzero numerators of two
    dimensions raise ValueError naming both."""
    if a.num.n != b.num.n and a.num.packed and b.num.packed:
        raise ValueError(f"cannot compare pseudo-measures of dimensions {a.num.n} and {b.num.n}")
    if a.den == b.den:
        W = max(a.num.W, b.num.W)
        return a.num._at(W) == b.num._at(W)
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
    """Push a pseudo-measure forward along g in GL_n(Z): delta_v -> delta_{gv}."""
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


def _cell(steps: Sequence[tuple[IntVec, int]], n: int, closed: Sequence[int] = ()
          ) -> list[list[int]]:
    """Base points, as n coordinate columns, of the cell
    { sum x_i g_i s_i : x_i in [0, 1) for i in closed, else (0, 1] } of the steps (s_i, g_i),
    s_i primitive and g_i >= 1, by one Hermite pass for every rank r: its points are a base
    point plus a lift sum k_i s_i, k_i < g_i.

    With s * u = [h | 0], the first r rows b_j of u^-1 are a basis of the saturated span and
    s = h b: column t of b is h^-1 (s_i[t])_i, an exact solve with d = 1 (`triangular_solve`).
    The box 0 <= y_j < h_jj holds one point y.b of each class modulo the s_i, at cell
    coordinates x = adj(h)^T y / d, d = prod h_jj and adj(h) = d * h^-1 by columns, and
    k = (adj(h)^T y - e) // d generators, e_i = 0 on closed i and 1 on the others (floor(x_i),
    ceil(x_i) - 1), move it into the cell of the s_i: the base point is y.b - sum k_i s_i. k and
    the base are weighted sums of whole columns, the box's in `product` order. A unimodular cell
    (d = 1, rank 0 included) has the one base point y = 0, k = -e: the sum of its open s_i, with
    no box. The cell's d * prod g_i points are checked against CELL_POINT_BUDGET (CellTooLarge).
    """
    s = [v for v, _g in steps]
    r = len(s)
    try:
        h = linalg.hermite(s)[0] if r else ()
    except DependentInput as exc:
        raise DependentInput("cell generators are linearly dependent") from exc
    count = (d := prod(sides := [h[j][j] for j in range(r)])) * prod(g for _v, g in steps)
    if count > CELL_POINT_BUDGET:
        raise CellTooLarge(f"the cell of the generators {[[g * x for x in v] for v, g in steps]} "
                           f"has {count} integer points, more than {CELL_POINT_BUDGET}")
    if d == 1:
        return [[sum(c)] for c in zip((0,) * n, *(v for i, v in enumerate(s) if i not in closed))]
    ys = [list(c) for c in zip(*product(*map(range, sides)))]  # the box, column by column
    ks = [[(x - e) // d for x in _weighted_sum(linalg.triangular_solve(h, d, unit), ys, d)]
          for e, unit in zip([int(i not in closed) for i in range(r)], linalg.identity(r))]
    return [_weighted_sum((*linalg.triangular_solve(h, 1, col), *(-x for x in col)), ys + ks, d)
            for col in zip(*s)]


def pair_open_cone(c: OpenCone, f: TestFunction) -> PseudoMeasure:
    """pair_half_open on the cone's primitive generators, none of them closed."""
    return pair_half_open(frozenset(c.generators), frozenset(), f)


def pair_half_open(prims: frozenset[IntVec], closed: frozenset, f: TestFunction) -> PseudoMeasure:
    """Pair f with the cone on the independent primitive vectors prims, closed at those
    in `closed` (ValueError names one not in prims) and open at the others, memoised
    on f under (prims, closed) (`TestFunction.pairings`): the integer coefficients

        sum_{v in cell} f(v) delta_v / prod_{s in prims} (1 - delta_{M s})

    over the half-open cell of the periods M s, with coordinates in [0, 1) on
    closed s and (0, 1] on the others; the rank-0 cone gives f(0) delta_0."""
    hit = f.pairings.get(key := (prims, closed))
    if hit is None:
        hit = f.pairings[key] = _pair_cell(prims, closed, f)
    return hit


def _pair_cell(prims: frozenset[IntVec], closed: frozenset, f: TestFunction) -> PseudoMeasure:
    """pair_half_open's cell sum over (exponent key, residue key) pairs. A residue digit is
    R = (2M).bit_length() + 1 bits wide, so a digit d of a sum t of two reduced keys is at most
    2M - 2 < 2^(R-1). With K and H holding 2^(R-1) - M and 2^(R-1) in each digit, d + 2^(R-1) - M
    < 2^R carries into no other digit and reaches 2^(R-1) iff d >= M: t - M(((t + K) & H) >> (R-1))
    is t reduced mod M digit-wise. The lifts are two flat lists, of exponent keys and of residue
    keys, built axis by axis: the residue of k s is that of (k - 1) s plus that of s, reduced.
    f is read once per base point and lift residue class; when d = det h is prime to M a class
    is one lift, read ungrouped."""
    n, M = f.n, f.M
    if wrong := {len(s) for s in prims} - {n}:  # else their residues match none of f's
        raise ValueError(f"generators of length {min(wrong)} cannot pair in dimension {n}")
    if stray := closed - prims:  # else the cell would be the open one, memoised under this key
        raise ValueError(f"closed vector {list(min(stray))} is not among the generators")
    ordered = sorted(prims)
    base = _cell([(s, M) for s in ordered], n, [i for i, s in enumerate(ordered) if s in closed])
    edges = zip(*([(M - 1) * x for x in s] for s in ordered))  # the lifts' box, by coordinate
    bound = max(map(abs, chain(*base))) + max(
        (max(sum(x for x in e if x > 0), -sum(x for x in e if x < 0)) for e in edges), default=0)
    W, R = _width(bound), (2 * M).bit_length() + 1
    H = (1 << R - 1) * (ones := sum(1 << R * i for i in range(n)))  # _pack refuses 2^(R-1)
    K, top = H - M * ones, R - 1
    keys, res = [0], [0]  # the lifts' exponent and residue keys
    if M > 1:  # at M = 1 every step has g = 1: no lift, and s itself need not fit W
        for s in ordered:  # one axis at a time
            se, sr = _pack(s, W), _pack([x % M for x in s], R)
            ke, kr = [0], [0]  # k s for k < M
            for _k in range(M - 1):
                ke.append(ke[-1] + se)
                kr.append((t := kr[-1] + sr) - M * (((t + K) & H) >> top))
            keys = [le + e for le in keys for e in ke]
            res = [(t := lr + r) - M * (((t + K) & H) >> top) for lr in res for r in kr]
    if not (values := f.residues):  # f's support residues at R-bit digits, packed once per f
        values.update(zip(_pack_columns(list(zip(*f.values)), R, len(f.values)), f.values.values()))
    ys = zip(_pack_columns(base, W, d := len(base[0])),
             _pack_columns([[x % M for x in col] for col in base], R, d))
    if gcd(d, M) == 1:  # sum k_i s_i = (h^T k).b with det h = d: no two lifts share a residue
        terms = {py + pl: c for py, ry in ys for pl, rl in zip(keys, res)
                 if (c := values.get((t := ry + rl) - M * (((t + K) & H) >> top)))}
    else:
        groups: dict[int, list[int]] = {}  # lift keys by residue key
        for le, lr in zip(keys, res):
            groups.setdefault(lr, []).append(le)
        del keys, res  # freed before the terms are built
        terms = {py + pl: c for py, ry in ys for rl, pls in groups.items()
                 if (c := values.get((t := ry + rl) - M * (((t + K) & H) >> top))) for pl in pls}
    if not terms:
        return pm_zero()
    return PseudoMeasure(GroupAlgebraElement._of(terms, n, W, bound),
                         tuple(tuple(M * x for x in s) for s in ordered))


def pair_cone_function(k: Mapping[OpenCone, int], f: TestFunction) -> PseudoMeasure:
    """The cone function {cone: coefficient} paired with f, cone by cone."""
    return pm_sum([(coeff, pair_open_cone(cone, f)) for cone, coeff in k.items()])


def pm_to_json(a: PseudoMeasure, limit: int | None = None) -> dict:
    ks, num = sorted(a.num.packed)[:limit], a.num  # the `limit` lowest: keys sort as vectors do
    vs = zip(*_unpack_columns(ks, num.n, num.W)) if num.n else [()] * len(ks)  # printed keys only
    return {"numerator": [{"vector": list(v), "coeff": str(num.packed[k])} for k, v in zip(ks, vs)],
            "denominator": [list(u) for u in a.den]}


def pm_from_json(data: dict) -> PseudoMeasure:
    """pm_to_json's format: a coeff that is a JSON int or an integer string is read as an int, only
    a non-integral one ("3/4") becomes a Fraction, and a bool or a float is refused by name."""
    _only_keys(data, ("numerator", "denominator"), "pseudo-measure")
    try:
        num: dict[IntVec, int | Fraction] = {}
        for term in _as_list(data["numerator"], "numerator"):
            _only_keys(term, ("vector", "coeff"), "numerator term")
            v = tuple(map(_as_int, _as_list(term["vector"], "vector")))
            c = term["coeff"]
            if type(c) is not int and type(c) is not str:  # a bool or a float
                raise ValueError(f"coefficient {c!r} is not an integer or a rational string")
            num[v] = num.get(v, 0) + _as_rational(c)
        den = tuple(sorted(tuple(map(_as_int, _as_list(u, "denominator")))
                           for u in _as_list(data["denominator"], "denominator")))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad pseudo-measure JSON: {exc}") from exc
    lengths = {len(v) for v in num} | {len(u) for u in den}
    if len(lengths) > 1:
        raise SchemaError("bad pseudo-measure JSON: vectors of different lengths")
    if 0 in lengths:
        raise SchemaError("bad pseudo-measure JSON: a vector has no coordinates")
    if (n := max(lengths, default=0)) > MAX_DIMENSION:  # else elimination could run for minutes
        raise SchemaError(f"bad pseudo-measure JSON: dimension n = {n} is above {MAX_DIMENSION = }")
    if not all(any(u) for u in den):
        raise SchemaError("bad pseudo-measure JSON: a denominator vector is zero")
    return PseudoMeasure(GroupAlgebraElement(num), den)
