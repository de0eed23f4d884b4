"""Power-series realization of pseudo-measures on Z_p^n.

A measure on Z_p^n corresponds to a power series in n variables through
delta_{b_i} -> 1 + T_i for a basis b_1,...,b_n; the coefficient at a
multi-index k is the binomial moment of the measure. Pseudo-measures built
by the cone pairing have denominator factors aligned with basis rays, whose
transform is T_i times a unit series, so the fraction is an honest power
series exactly when the numerator vanishes at every T_i = 0. That
divisibility test is the series-side measure criterion. It is decided
exactly, on sums of numerator coefficients, and must agree with the
vanishing-hypothesis test on slices on single-coset inputs.

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
    PrecisionExhausted,
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

    @staticmethod
    def zero(p: int, nvars: int, degree: int) -> "AmiceSeries":
        return AmiceSeries(p, nvars, degree, {})

    @staticmethod
    def constant(p: int, nvars: int, degree: int, c: PadicScalar) -> "AmiceSeries":
        return AmiceSeries(p, nvars, degree, {(0,) * nvars: c})

    def coefficient(self, exp: Sequence[int]) -> PadicScalar:
        return self.coeffs.get(tuple(exp), PadicScalar.exact_zero(self.p))

    def __add__(self, other: "AmiceSeries") -> "AmiceSeries":
        degree = min(self.degree, other.degree)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out[exp] + c if exp in out else c
        return AmiceSeries(self.p, self.nvars, degree, out)

    def __neg__(self) -> "AmiceSeries":
        return AmiceSeries(
            self.p, self.nvars, self.degree, {e: -c for e, c in self.coeffs.items()}
        )

    def __sub__(self, other: "AmiceSeries") -> "AmiceSeries":
        return self + (-other)

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

    def at_zero(self, i: int) -> "AmiceSeries":
        """Set T_i = 0: keep only terms with zero exponent in slot i."""
        return AmiceSeries(
            self.p,
            self.nvars,
            self.degree,
            {e: c for e, c in self.coeffs.items() if e[i] == 0},
        )

    def is_zero_at_precision(self) -> bool:
        """Every coefficient is indistinguishable from zero, with at least
        one surviving digit of absolute precision each."""
        for c in self.coeffs.values():
            if not c.is_zero:
                return False
            if c.abs_prec < 1:
                raise PrecisionExhausted(
                    "coefficient known to fewer than one digit; raise the precision"
                )
        return True


def _binomials(x: Fraction, count: int) -> list[Fraction]:
    """binom(x, j) for j < count."""
    out = [Fraction(1)]
    for t in range(count - 1):
        out.append(out[-1] * (x - t) / (t + 1))
    return out


def binom_pow(x, p: int, prec: int = DEFAULT_PRECISION, degree: int = DEFAULT_DEGREE) -> AmiceSeries:
    """(1 + T)^x as a one-variable truncated series, for p-integral x.

    The coefficients are the binomial values binom(x, j), which stay
    p-integral whenever x is.
    """
    x = Fraction(x)
    if x.denominator % p == 0:
        raise NotPIntegral(f"{x} has p in its denominator")
    coeffs = {}
    for j, c in enumerate(_binomials(x, degree + 1)):
        if c != 0:
            coeffs[(j,)] = PadicScalar.from_rational(c, p, prec)
    return AmiceSeries(p, 1, degree, coeffs)


def _invert_unit_series(s: AmiceSeries) -> AmiceSeries:
    """Reciprocal of a series with unit constant term, by the usual
    triangular recursion on total degree."""
    const = s.coefficient((0,) * s.nvars)
    if const.is_zero or const.val != 0:
        raise NonUnitDenominator("series has no unit constant term")
    one = PadicScalar.from_rational(1, s.p, const.prec)
    inv_const = one / const
    # split s = const * (1 - t) with t of positive order, invert by geometric sum
    t = AmiceSeries(
        s.p,
        s.nvars,
        s.degree,
        {e: -(c / const) for e, c in s.coeffs.items() if sum(e) > 0},
    )
    acc = AmiceSeries.constant(s.p, s.nvars, s.degree, one)
    power = AmiceSeries.constant(s.p, s.nvars, s.degree, one)
    for _ in range(s.degree):
        power = power * t
        if not power.coeffs:
            break
        acc = acc + power
    return acc.scale(inv_const)


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


def _aligned_axis(y: Sequence[int], d: int, p: int) -> tuple[int, Fraction]:
    """Axis index and scalar for a denominator vector with scaled basis
    coordinates y (see _coordinate_map) that is a p-unit multiple of a
    basis vector."""
    nonzero = [(i, Fraction(x, d)) for i, x in enumerate(y) if x != 0]
    if len(nonzero) != 1:
        raise NonUnitDenominator(
            "denominator vector is not aligned with a single basis direction"
        )
    i, alpha = nonzero[0]
    if alpha.numerator % p == 0 or alpha.denominator % p == 0:
        raise NonUnitDenominator(f"denominator coordinate {alpha} is not a p-unit")
    return i, alpha


def amice_in_basis(
    a: PseudoMeasure,
    basis: Sequence[Sequence[int]],
    p: int,
    prec: int = DEFAULT_PRECISION,
    degree: int = DEFAULT_DEGREE,
) -> AmiceSeries:
    """Truncated transform of a pseudo-measure in the given basis.

    Every numerator point and denominator vector must have p-integral basis
    coordinates, each denominator vector must be a p-unit multiple of a
    basis vector (so its transform is T_i times a unit series), and the
    numerator must be divisible by the corresponding T_i's; otherwise the
    fraction has a pole and NotAMeasure is raised.
    """
    basis = [linalg.int_vec(b) for b in basis]
    n = len(basis)
    try:
        coords, d = _coordinate_map(basis, p)
    except SingularMatrix as exc:
        raise SingularMatrix("transform basis is singular") from exc
    one = AmiceSeries.constant(p, n, degree, PadicScalar.from_rational(1, p, prec))
    axis_series: dict[tuple[int, int], AmiceSeries] = {}  # (1 + T_i)^(y/d), for this call
    out = AmiceSeries.zero(p, n, degree)
    for v, c in a.num.terms.items():
        dirac = one
        for i, y in enumerate(coords(v)):
            if y != 0:
                if (i, y) not in axis_series:
                    axis_series[i, y] = AmiceSeries(p, n, degree, {
                        tuple(j[0] if k == i else 0 for k in range(n)): cj
                        for j, cj in binom_pow(Fraction(y, d), p, prec, degree).coeffs.items()
                    })
                dirac = dirac * axis_series[i, y]
        out = out + dirac.scale(PadicScalar.from_rational(c, p, prec))
    for u in a.den:
        i, alpha = _aligned_axis(coords(u), d, p)
        # 1 - (1+T_i)^alpha = -T_i * E with E a unit series in T_i
        e_coeffs = {}
        for j, cj in enumerate(_binomials(alpha, degree + 2)):
            if j >= 1 and cj != 0:
                e_coeffs[tuple(j - 1 if k == i else 0 for k in range(n))] = (
                    PadicScalar.from_rational(-cj, p, prec)
                )
        unit_series = AmiceSeries(p, n, degree, e_coeffs)
        # divide by T_i: every surviving term must carry T_i
        blocked = out.at_zero(i)
        if not blocked.is_zero_at_precision():
            raise NotAMeasure(
                f"numerator does not vanish at T_{i} = 0; genuine pole at delta_{u}"
            )
        shifted = {
            tuple(x - 1 if k == i else x for k, x in enumerate(exp)): c
            for exp, c in out.coeffs.items()
            if exp[i] >= 1
        }
        out = AmiceSeries(p, n, degree, shifted) * _invert_unit_series(unit_series)
    return out


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
    n = a.dim
    basis = extend_denominator_basis(a, n)
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
    vanishes at T_i = 0. Setting T_i = 0 leaves the transform of the Diracs
    obtained by dropping the i-th basis coordinate, and that transform is
    injective, so the series vanishes exactly when every fibre sum of the
    coefficients is zero; the test is exact and needs no precision. On
    single-coset inputs it agrees with the vanishing-hypothesis test by the
    divisibility criterion.
    """
    if not a.num:
        return True
    n = a.dim
    basis = extend_denominator_basis(a, n)
    coords, d = _coordinate_map(basis, p)
    axes = [_aligned_axis(coords(u), d, p)[0] for u in a.den]
    for _rep, terms in _coset_split(a, basis, p):
        coords_of = {v: coords(v) for v in terms}
        for i in axes:
            groups: dict[IntVec, int | Fraction] = {}
            for v, c in terms.items():
                key = coords_of[v][:i] + coords_of[v][i + 1:]
                groups[key] = groups.get(key, 0) + c
            if any(groups.values()):
                return False
    return True


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
    a: PseudoMeasure,
    p: int,
    kk: Sequence[int],
    prec: int = DEFAULT_PRECISION,
    degree: int = DEFAULT_DEGREE,
) -> PadicScalar:
    """Moment int x^kk dmu of a pseudo-measure that is a measure, in the
    standard coordinates of the ambient lattice."""
    return moment_table(a, p, [kk], prec, degree)[0]


def moment_table(
    a: PseudoMeasure,
    p: int,
    orders: Sequence[Sequence[int]],
    prec: int = DEFAULT_PRECISION,
    degree: int = DEFAULT_DEGREE,
) -> list[PadicScalar]:
    """The moment power_moments gives for each order in orders, all read
    off one transform of a."""
    basis = extend_denominator_basis(a, a.dim)
    transform = amice_transform(a, p, prec, degree)
    return [_moment(transform, basis, tuple(int(k) for k in kk), p, prec) for kk in orders]


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

