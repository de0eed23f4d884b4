"""Power-series realization of pseudo-measures on Z_p^n.

A measure on Z_p^n corresponds to a power series in n variables through
delta_{b_i} -> 1 + T_i for a basis b_1,...,b_n; the coefficient at a
multi-index k is the binomial moment of the measure. The transform runs in
the pseudo-measure's own basis, which starts with its denominator vectors,
so each denominator factor 1 - delta_{b_i} is exactly -T_i and the fraction
is an honest power series exactly when the numerator vanishes at every
T_i = 0. That divisibility test is the series-side measure criterion. Poles
are decided exactly, on sums of numerator coefficients, and the test must
agree with the vanishing-hypothesis test on slices on single-coset inputs.

When the denominator lattice has p-power index in Z^n, the numerator is
split along cosets: each coset contributes a Dirac prefactor times a
measure candidate on the sublattice, and the whole pseudo-measure is a
measure when every coset passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, gcd, prod
from typing import Mapping, Sequence

from . import linalg
from .cones import OpenCone
from .errors import (
    NonUnitDenominator,
    NotAMeasure,
    NotPIntegral,
    SingularMatrix,
    TruncationTooSmall,
)
from .linalg import IntVec
from .padic import PadicScalar
from .solomon_hu import GroupAlgebraElement, PseudoMeasure
from .testfunctions import TestFunction, check_vh

DEFAULT_PRECISION = 20
DEFAULT_DEGREE = 12


@dataclass(frozen=True)
class AmiceSeries:
    """Truncated multivariate power series with p-adic coefficients."""

    p: int
    nvars: int
    degree: int
    coeffs: Mapping[tuple[int, ...], PadicScalar]

    def __post_init__(self):
        cleaned = {
            exp: c
            for exp, c in self.coeffs.items()
            if sum(exp) <= self.degree and not c.is_exact_zero
        }
        object.__setattr__(self, "coeffs", cleaned)

    def coefficient(self, exp: Sequence[int]) -> PadicScalar:
        return self.coeffs.get(tuple(exp), PadicScalar.exact_zero(self.p))

    def __add__(self, other: "AmiceSeries") -> "AmiceSeries":
        degree = min(self.degree, other.degree)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out[exp] + c if exp in out else c
        return AmiceSeries(self.p, self.nvars, degree, out)

    def __mul__(self, other: "AmiceSeries") -> "AmiceSeries":
        degree = min(self.degree, other.degree)
        out: dict[tuple[int, ...], PadicScalar] = {}
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            for e2, c2 in other.coeffs.items():
                if d1 + sum(e2) > degree:
                    continue
                key = tuple(a + b for a, b in zip(e1, e2))
                term = c1 * c2
                out[key] = out[key] + term if key in out else term
        return AmiceSeries(self.p, self.nvars, degree, out)

    def scale(self, c: PadicScalar) -> "AmiceSeries":
        return AmiceSeries(
            self.p, self.nvars, self.degree, {e: c * x for e, x in self.coeffs.items()}
        )


def binom_pow(x, p: int, prec: int = DEFAULT_PRECISION, degree: int = DEFAULT_DEGREE) -> AmiceSeries:
    """(1 + T)^x as a one-variable truncated series, for p-integral x.

    The coefficients are the binomial values binom(x, j), which stay
    p-integral whenever x is.
    """
    x = Fraction(x)
    if x.denominator % p == 0:
        raise NotPIntegral(f"{x} has p in its denominator")
    coeffs, c = {}, Fraction(1)
    for j in range(degree + 1):
        if c != 0:
            coeffs[(j,)] = PadicScalar.from_rational(c, p, prec)
        c = c * (x - j) / (j + 1)
    return AmiceSeries(p, 1, degree, coeffs)


def extend_denominator_basis(a: PseudoMeasure, n: int) -> list[IntVec]:
    """Basis of Q^n starting with the denominator vectors of a, completed
    by a complement of the saturation of their span."""
    dens = list(dict.fromkeys(a.den))
    if len(dens) != len(a.den):
        raise NonUnitDenominator("repeated denominator factors are not aligned")
    if not dens:
        return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    _sat, comp, _coords = linalg.saturation_and_complement(dens)
    return dens + comp


def _coset_split(
    a: PseudoMeasure, basis: Sequence[IntVec], p: int
) -> list[tuple[IntVec, dict[IntVec, Fraction]]]:
    """Split the numerator along cosets of the basis lattice at p.

    Returns (representative, terms) pairs where each term key is the
    original lattice point minus the representative, guaranteed p-integral
    in basis coordinates. A term's representative is its reduction into
    the Hermite box.
    """
    h, reps = linalg.cosets(linalg.transpose(basis), p)
    buckets: dict[IntVec, dict[IntVec, Fraction]] = {rep: {} for rep in reps}
    for v, c in a.num.terms.items():
        rep = linalg._coset_rep(h, v)
        shifted = tuple(x - y for x, y in zip(v, rep))
        buckets[rep][shifted] = buckets[rep].get(shifted, 0) + c
    return [(rep, terms) for rep, terms in buckets.items() if terms]


def _coordinate_map(basis: Sequence[IntVec], p: int):
    """(coords, d) for a nonsingular integer basis: d = |det| and coords(v)
    is d times the basis coordinates of v, an integer vector, after checking
    that those coordinates are p-integral (p^v_p(d) divides each)."""
    adj, d = linalg.adjugate(linalg.transpose(basis))
    p_part = gcd(d, p ** d.bit_length())

    def coords(v: Sequence[int]) -> IntVec:
        y = linalg.mat_vec(adj, v)
        for x in y:
            if x % p_part:
                raise NotPIntegral(f"coordinate {Fraction(x, d)} is not p-integral")
        return y

    return coords, d


def _pole_axis(terms: Mapping[IntVec, int | Fraction], r: int) -> int | None:
    """The first i < r at which the numerator with these terms, keyed by
    scaled basis coordinates (see _coordinate_map), does not vanish at
    T_i = 0; None when it vanishes at all of them.

    Setting T_i = 0 leaves the transform of the Diracs obtained by dropping
    the i-th basis coordinate, and that transform is injective, so the
    series vanishes exactly when every fibre sum of the coefficients is
    zero: the test is exact and needs no precision or degree.
    """
    for i in range(r):
        groups: dict[IntVec, int | Fraction] = {}
        for y, c in terms.items():
            key = y[:i] + y[i + 1:]
            groups[key] = groups.get(key, 0) + c
        if any(groups.values()):
            return i
    return None


def amice_in_basis(
    a: PseudoMeasure,
    basis: Sequence[Sequence[int]],
    p: int,
    prec: int = DEFAULT_PRECISION,
    degree: int = DEFAULT_DEGREE,
) -> AmiceSeries:
    """Transform of a pseudo-measure, correct to total degree `degree`, in a
    basis that starts with its r denominator vectors in order, as
    extend_denominator_basis builds it; any other basis raises
    NonUnitDenominator.

    Every numerator point must have p-integral basis coordinates. Each
    factor 1 - delta_{b_i}, i < r, transforms to exactly -T_i, so the
    fraction is a power series iff the numerator vanishes at every such
    T_i = 0. That is decided exactly (NotAMeasure otherwise), and the
    division is a sign flip and an exponent shift of the numerator series
    built to degree + r.
    """
    basis = [linalg.int_vec(b) for b in basis]
    n, r = len(basis), len(a.den)
    if tuple(basis[:r]) != a.den:
        raise NonUnitDenominator("transform basis does not start with the denominator vectors")
    try:
        coords, d = _coordinate_map(basis, p)
    except SingularMatrix as exc:
        raise SingularMatrix("transform basis is singular") from exc
    terms = {coords(v): c for v, c in a.num.terms.items()}
    pole = _pole_axis(terms, r)
    if pole is not None:
        raise NotAMeasure(
            f"numerator does not vanish at T_{pole} = 0; genuine pole at delta_{basis[pole]}"
        )
    top = degree + r
    one = AmiceSeries(p, n, top, {(0,) * n: PadicScalar.from_rational(1, p, prec)})
    axis_series: dict[tuple[int, int], AmiceSeries] = {}  # (1 + T_i)^(y/d), for this call
    num = AmiceSeries(p, n, top, {})
    for coords_v, c in terms.items():
        dirac = one
        for i, y in enumerate(coords_v):
            if y != 0:
                if (i, y) not in axis_series:
                    axis_series[i, y] = AmiceSeries(p, n, top, {
                        tuple(j[0] if k == i else 0 for k in range(n)): cj
                        for j, cj in binom_pow(Fraction(y, d), p, prec, top).coeffs.items()
                    })
                dirac = dirac * axis_series[i, y]
        num = num + dirac.scale(PadicScalar.from_rational(c, p, prec))
    # divide by prod_{i < r} (-T_i): every surviving term carries each T_i
    return AmiceSeries(p, n, degree, {
        tuple(x - 1 if k < r else x for k, x in enumerate(exp)): -c if r % 2 else c
        for exp, c in num.coeffs.items()
        if all(exp[:r])
    })


def amice_transform(
    a: PseudoMeasure,
    p: int,
    prec: int = DEFAULT_PRECISION,
    degree: int = DEFAULT_DEGREE,
) -> list[tuple[IntVec, AmiceSeries]]:
    """Per-coset transform of a pseudo-measure in its own denominator basis.

    Returns (representative, series) pairs: the pseudo-measure is the sum
    over pairs of delta_rep convolved with the measure of the series, read
    in basis coordinates.
    """
    basis = extend_denominator_basis(a, a.dim)
    out = []
    for rep, terms in _coset_split(a, basis, p):
        shifted = PseudoMeasure(GroupAlgebraElement(terms), a.den)
        out.append((rep, amice_in_basis(shifted, basis, p, prec, degree)))
    return out


def is_measure_vh(c: OpenCone, f: TestFunction) -> bool:
    """Exact measure criterion: the vanishing hypothesis must hold for
    every extremal ray of the cone."""
    return all(check_vh(f, g) for g in c.generators)


def is_measure_amice(a: PseudoMeasure, p: int) -> bool:
    """Series-side measure criterion, per coset of the denominator lattice.

    True iff for every coset and every denominator ray, the coset numerator
    vanishes at T_i = 0, decided exactly on fibre sums (see _pole_axis). On
    single-coset inputs it agrees with the vanishing-hypothesis test by the
    divisibility criterion.
    """
    if not a.num:
        return True
    basis = extend_denominator_basis(a, a.dim)
    coords, _d = _coordinate_map(basis, p)
    return all(
        _pole_axis({coords(v): c for v, c in terms.items()}, len(a.den)) is None
        for _rep, terms in _coset_split(a, basis, p)
    )


def _stirling2(k: int, j: int) -> int:
    if j == 0:
        return 1 if k == 0 else 0
    return sum((-1) ** (j - t) * comb(j, t) * t**k for t in range(j + 1)) // prod(
        range(1, j + 1)
    )


def moments(s: AmiceSeries, kk: Sequence[int]) -> PadicScalar:
    """Power moment int x^kk dmu from the binomial-coefficient series.

    Uses x^k = sum_j S(k, j) j! binom(x, j) coordinatewise (S = Stirling
    numbers of the second kind), so the answer is a finite combination
    of series coefficients.
    """
    kk = tuple(int(k) for k in kk)
    if sum(kk) > s.degree:
        raise TruncationTooSmall(
            f"moment {kk} needs series degree {sum(kk)} > {s.degree}"
        )
    total = PadicScalar.exact_zero(s.p)
    for j in product(*(range(k + 1) for k in kk)):
        factor = 1
        for ki, ji in zip(kk, j):
            factor *= _stirling2(ki, ji) * prod(range(1, ji + 1))
        if factor == 0:
            continue
        coeff = s.coefficient(j)
        if coeff.is_exact_zero:
            continue
        total = total + coeff * PadicScalar.from_rational(factor, s.p, max(coeff.prec, 1))
    return total


def power_moments(
    a: PseudoMeasure, p: int, kk: Sequence[int], prec: int = DEFAULT_PRECISION
) -> PadicScalar:
    """Moment int x^kk dmu of a pseudo-measure that is a measure, in the
    standard coordinates of the ambient lattice."""
    return moment_table(a, p, [kk], prec)[0]


def moment_table(
    a: PseudoMeasure, p: int, orders: Sequence[Sequence[int]], prec: int = DEFAULT_PRECISION
) -> list[PadicScalar]:
    """The moment power_moments gives for each order in orders, all read
    off one transform of a, to the largest total order requested."""
    orders = [tuple(int(k) for k in kk) for kk in orders]
    basis = extend_denominator_basis(a, a.dim)
    transform = amice_transform(a, p, prec, max((sum(kk) for kk in orders), default=0))
    return [_moment(transform, basis, kk, p, prec) for kk in orders]


def _moment(transform, basis: list[IntVec], kk: tuple[int, ...], p: int, prec: int) -> PadicScalar:
    """Each coset contributes int (rep + B c)^kk dmu_rep(c) where B is the
    denominator basis; the integrand expands into basis-coordinate
    monomials whose moments come from the coset series."""
    n = len(basis)
    total = PadicScalar.exact_zero(p)
    for rep, series in transform:
        # expand prod_j (rep_j + sum_i B_{ji} c_i)^{kk_j} into c-monomials
        poly: dict[tuple[int, ...], Fraction] = {(0,) * n: Fraction(1)}
        for j in range(n):
            base: dict[tuple[int, ...], Fraction] = {(0,) * n: Fraction(rep[j])}
            for i in range(n):
                if basis[i][j]:
                    e = tuple(1 if t == i else 0 for t in range(n))
                    base[e] = base.get(e, Fraction(0)) + Fraction(basis[i][j])
            for _ in range(kk[j]):
                poly = _poly_mul(poly, base)
        for exp, coeff in poly.items():
            if coeff == 0:
                continue
            m = moments(series, exp)
            total = total + m * PadicScalar.from_rational(coeff, p, prec)
    return total


def _poly_mul(
    a: dict[tuple[int, ...], Fraction], b: dict[tuple[int, ...], Fraction]
) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}

