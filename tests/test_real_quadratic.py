"""Real quadratic fields through the deformed cone: the paper's zeta values
and the unit group acting on its own step function.

K has the Z-basis (1, w) of its integers, rho(u) is the matrix of
multiplication by u in that basis, eps is the fundamental unit (of norm 1
here) and N(a + b w) is the norm form. For a degree-1 prime l = (ell, w - r)
the step function f = 1 - ell [x in l] on (Z/ell)^2 is smoothed (CDG), and
the paired cocycle value psi_cdg([I, rho(eps)], q) is a signed Shintani
domain for the units: its N(x)^m moment is (1 - ell^(1+m)) zeta_K(-m),
which quadratic_zeta_neg computes from generalized Bernoulli numbers.
rho(eps) multiplies l into itself, so it stabilizes f, although it lies in
no Gamma(M) that the CLI samples; a unit of norm -1 has det -1 and acts
with the sign of its determinant. The domain psi_cdg([I, rho(eps)^2], q)
covers the units twice, and twisting f by a quadratic character chi
through the norm gives L-values: L_K(s, chi o N) = L(s, chi) L(s, chi chi_D).
The cubic field Q(zeta_7)^+ (n = 3) closes the file: there a signed sum of
two cocycle values is a domain for the totally positive units, and its
moments are the zeta values that cyclic_cubic_zeta_neg computes.
"""

import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from shintani import amice, cocycle, linalg
from shintani.amice import is_measure_vh, moment_table
from shintani.cocycle import (
    psi_cdg,
    sample_deformation,
    verify_cocycle,
    verify_equivariance,
)
from shintani.errors import DependentInput
from shintani.solomon_hu import GroupAlgebraElement, PseudoMeasure, pair_half_open, pm_sum
from shintani.testfunctions import TestFunction, stabilizes

from oracles import (
    cyclic_cubic_zeta_neg,
    dirichlet_l_neg,
    kronecker,
    quadratic_zeta_neg,
    reference_mat_mul,
    restrictions,
)

I2 = ((1, 0), (0, 1))
# name: (discriminant, norm form (a^2, ab, b^2), rho(eps) as rows, ell, r)
FIELDS = {
    "Q(sqrt 5)": (5, (1, 1, -1), ((1, 1), (1, 2)), 11, 4),
    "Q(sqrt 2)": (8, (1, 0, -2), ((3, 4), (2, 3)), 7, 3),
    "Q(sqrt 13)": (13, (1, 1, -3), ((4, 9), (3, 7)), 17, 5),
}


def smoothed(ell, r):
    """f = 1 - ell [x in l] for l = (ell, w - r): a + b w lies in l iff a + r b = 0 mod ell."""
    return TestFunction(2, 3, ell, {(a, b): 1 - ell if (a + r * b) % ell == 0 else 1
                                    for a in range(ell) for b in range(ell)})


def norm_power(form, m):
    """N^m as {exponents: coefficient} for the norm form N of degree n given as
    {exponents: coefficient}, or for n = 2 as the coefficients of (a^2, ab, b^2)."""
    if not isinstance(form, dict):
        form = dict(zip(((2, 0), (1, 1), (0, 2)), form))
    poly = {(0,) * len(next(iter(form))): 1}
    for _ in range(m):
        step = {}
        for e, c in poly.items():
            for de, w in form.items():
                key = tuple(map(sum, zip(e, de)))
                step[key] = step.get(key, 0) + c * w
        poly = step
    return poly


def domain_moments(f, p, form, mats, q, ms):
    """[the N^m moment at p of sign * the paired cocycle value psi_cdg(mats, q)], m in ms."""
    n = len(mats)
    sign, prims, closed = psi_cdg(mats, q)
    table = dict(moment_table(pair_half_open(frozenset(prims), closed, f), p, n, n * max(ms)))
    return [sign * sum(c * table[o] for o, c in norm_power(form, m).items()) for m in ms]


def norm_moments(name, ms=(1, 3, 5)):
    """Per seeded q: ([the N^m moment of sign * the paired cocycle value], the
    expected [(1 - ell^(1+m)) zeta_K(-m)]), for m in ms."""
    D, form, rho, ell, r = FIELDS[name]
    f, rng = smoothed(ell, r), random.Random(f"zeta:{name}")
    want = [(1 - ell ** (1 + m)) * quadratic_zeta_neg(D, m + 1) for m in ms]
    return [(domain_moments(f, 3, form, [I2, rho], sample_deformation(2, rng), ms), want)
            for _ in range(3)]


def test_the_oracle_gives_the_known_zeta_values():
    assert [quadratic_zeta_neg(D, 2) for D in (5, 8, 13)] == [F(1, 30), F(1, 12), F(1, 6)]
    assert quadratic_zeta_neg(5, 4) == F(1, 60)  # zeta_{Q(sqrt 5)}(-3)


def test_norm_moments_of_the_shintani_domain_are_zeta_values():
    # 3 fields x 3 seeded q x m = 1, 3, 5: 27 exact equalities, the sign pinned
    # to + for the orientation [1 | eps]; at m = 1 they read -4, -4 and -48
    for name in FIELDS:
        for got, want in norm_moments(name):
            assert got == want, (name, got, want)
    assert [norm_moments(name, (1,))[0][0] for name in FIELDS] == [[-4], [-4], [-48]]


def test_a_wrong_bernoulli_sign_breaks_the_higher_moments(monkeypatch):
    # negative control: with L B_1's sign flipped in the moment table, m = 3
    # and m = 5 fail in all 9 (field, q) cases (m = 1 still agrees in all 9)
    bernoulli = amice._bernoulli

    def flipped(k):
        big, out = bernoulli(k)
        return big, [out[0], -out[1], *out[2:]]

    monkeypatch.setattr(amice, "_bernoulli", flipped)
    for name in FIELDS:
        for got, want in norm_moments(name, (3, 5)):
            assert got[0] != want[0] and got[1] != want[1], name


def test_the_unit_group_stabilizes_its_smoothed_function():
    # in Q(sqrt 5) at ell = 11: the cocycle identity on [I, rho(eps), rho(eps)^2]
    # holds and its corrupt_sign control fails, and equivariance under rho(eps)
    # holds with the non-congruence frame adj(rho(eps)); six seeded q and
    # three on face hyperplanes, q = 0 among them
    _D, _form, rho, ell, r = FIELDS["Q(sqrt 5)"]
    f, rng = smoothed(ell, r), random.Random("units:Q(sqrt 5)")
    tuple3 = [I2, rho, reference_mat_mul(rho, rho)]
    for q in [sample_deformation(2, rng) for _ in range(6)] + [(0, 0), (1, 1), (1, 0)]:
        assert verify_cocycle(f, tuple3, q) is None, q
        assert verify_cocycle(f, tuple3, q, corrupt_sign=True) is not None, q
        assert verify_equivariance(f, rho, [I2, rho], q), q


def norm_minus_one_cases():
    """(f, g, mats, q) in Q(sqrt 2) at ell = 7, for g = rho(eps) and rho(eps)^3 of
    eps = 1 + sqrt 2, of norm -1 and so of det -1: three tuples, six seeded q, and
    q = 0 and the first columns of the g a_i, which lie on face hyperplanes."""
    rho = ((1, 2), (1, 1))  # columns eps = (1, 1) and eps sqrt 2 = (2, 1)
    rho2 = reference_mat_mul(rho, rho)
    rng = random.Random("det -1:Q(sqrt 2)")
    qs = [sample_deformation(2, rng) for _ in range(6)]
    f = smoothed(7, 3)
    return [(f, g, mats, q) for g in (rho, reference_mat_mul(rho2, rho))
            for mats in ([I2, rho], [rho, rho2], [I2, reference_mat_mul(rho2, rho)])
            for q in qs + [(0, 0)] + [linalg.mat_vec(g, [row[0] for row in m]) for m in mats]]


def test_a_unit_of_norm_minus_one_acts_with_its_frame(monkeypatch):
    # equivariance under g of det -1 holds in 54 of 54 cases, with g^-1 = -adj(g)
    # as the vector's map and the frame; with the identity frame in its place the
    # check fails in 14 of them, each at a q on a face hyperplane
    cases = norm_minus_one_cases()
    for f, g, mats, q in cases:
        assert linalg.det(g) == -1 and stabilizes(f, g)
        assert verify_equivariance(f, g, mats, q), (g, mats, q)
    paired = cocycle._paired
    monkeypatch.setattr(cocycle, "_paired", lambda f, gens, q, frame=None: paired(f, gens, q))
    failed = [q for f, g, mats, q in cases if not verify_equivariance(f, g, mats, q)]
    assert len(cases) == 54 and len(failed) == 14
    assert all(type(x) is int for q in failed for x in q)  # none of the seeded, rational q


def doubled_domains(count):
    """Per field and each of count seeded q: (the field, the moments of [I, rho(eps)],
    those of [I, rho(eps)^2]), m = 1, 3, 5, 7, 9."""
    out = []
    for name, (_D, form, rho, ell, r) in FIELDS.items():
        f, rng = smoothed(ell, r), random.Random(f"square:{name}")
        for q in [sample_deformation(2, rng) for _ in range(count)]:
            out.append((name, *(domain_moments(f, 3, form, [I2, mats], q, (1, 3, 5, 7, 9))
                                 for mats in (rho, reference_mat_mul(rho, rho)))))
    return out


def test_the_squared_unit_gives_twice_the_moments():
    # the cocycle identity at work: psi_cdg([I, rho(eps)^2]) is the domain of
    # [I, rho(eps)] and its rho(eps)-translate, so every moment doubles; 3 fields
    # x 2 seeded q x m = 1, 3, 5, 7, 9
    for name, once, twice in doubled_domains(2):
        assert twice == [2 * x for x in once], name


def test_a_wrong_bernoulli_sign_breaks_the_doubling(monkeypatch):
    # negative control: with L B_1's sign flipped in the moment table, the
    # doubling fails in every field (at the first seeded q of each)
    bernoulli = amice._bernoulli

    def flipped(k):
        big, out = bernoulli(k)
        return big, [out[0], -out[1], *out[2:]]

    monkeypatch.setattr(amice, "_bernoulli", flipped)
    broken = {name for name, once, twice in doubled_domains(1) if twice != [2 * x for x in once]}
    assert broken == set(FIELDS)


KUMMER_KS = (1, 3, 5, 7, 9)


def depleted_moments(name):
    """The 3-depleted N^k moments, k in KUMMER_KS, of sign * the paired cocycle value
    psi_cdg([I, rho(eps)], q) at one seeded q, by two routes: mu minus its restriction to
    3 Z_3^2 (the class 0 of oracles.restrictions), and m_k(f) - 3^(2k) m_k(f(3.)), since the
    cone's points in 3 Z^2 are 3 times its points in Z^2."""
    _D, form, rho, ell, r = FIELDS[name]
    f = smoothed(ell, r)
    f3 = TestFunction(2, 3, ell, {x: f.values[tuple(3 * y % ell for y in x)]
                                  for x in product(range(ell), repeat=2)})
    sign, prims, closed = psi_cdg([I2, rho], sample_deformation(2, random.Random(f"kummer:{name}")))
    pm = pair_half_open(frozenset(prims), closed, f)
    classes, den = restrictions(pm, 3, 1)
    tables = [dict(moment_table(a, 3, 2, 2 * max(KUMMER_KS))) for a in (
        pm, PseudoMeasure(GroupAlgebraElement(classes[(0, 0)]), den),
        pair_half_open(frozenset(prims), closed, f3))]
    mu, ball, scaled = ([sign * sum(c * t[o] for o, c in norm_power(form, k).items())
                         for k in KUMMER_KS] for t in tables)
    return ([x - y for x, y in zip(mu, ball)],
            [x - 9**k * y for k, x, y in zip(KUMMER_KS, mu, scaled)])


def kummer_failures(ds, p=3, ks=KUMMER_KS):
    """The (k, k', j), j = 1, 2, with k = k' mod (p - 1) p^(j-1) whose p-integral
    depleted moments in ds, one per k in ks, differ mod p^j."""
    return [(k, kk, j) for (k, x), (kk, y) in combinations(zip(ks, ds), 2) for j in (1, 2)
            if (kk - k) % ((p - 1) * p ** (j - 1)) == 0 and (x - y).numerator % p**j]


def test_depleted_moments_satisfy_the_kummer_congruences():
    # 3 is inert in Q(sqrt 5) and Q(sqrt 2), so N(x) is a 3-adic unit off
    # 3 Z_3^2: the depleted N^k moments, k odd <= 9, are 3-integral and agree
    # mod 3^j when k = k' mod 2 * 3^(j-1), j = 1, 2 (Cassou-Nogues;
    # Deligne-Ribet), and the two depletion routes agree, at the Euler-factored
    # zeta values. Control: any one moment shifted by 1 breaks a congruence
    # mod 3 (L B_1's flipped sign breaks none: it leaves the measure Z_3-valued)
    for name in ("Q(sqrt 5)", "Q(sqrt 2)"):
        D, _form, _rho, ell, _r = FIELDS[name]
        ds, again = depleted_moments(name)
        assert ds == again == [(1 - 9**k) * (1 - ell ** (1 + k)) * quadratic_zeta_neg(D, k + 1)
                               for k in KUMMER_KS], name
        assert all(x.denominator % 3 for x in ds), (name, ds)
        assert kummer_failures(ds) == [], (name, ds)
        for i in range(len(ds)):
            assert kummer_failures([x + (t == i) for t, x in enumerate(ds)]), (name, i)


# (field, discriminant c of the odd character chi_c = (c/.) of conductor |c|, p, the m checked)
TWISTS = [("Q(sqrt 5)", -4, 3, (0, 2, 4)), ("Q(sqrt 5)", -3, 7, (0, 2, 4)),
          ("Q(sqrt 2)", -3, 5, (0, 2, 4)), ("Q(sqrt 13)", -4, 3, (0, 2))]


def twisted(name, c, p, by_norm=True):
    """f = chi_c(N(x)) (1 - ell [x in l]) on (Z/ell|c|)^2, or chi_c(a) in place of
    chi_c(N(a + b w)) unless by_norm."""
    _D, (u, v, w), _rho, ell, r = FIELDS[name]
    M = ell * abs(c)

    def chi(x):
        return kronecker(c, x % abs(c)) if x % abs(c) else 0

    values = {(a, b): chi(u * a * a + v * a * b + w * b * b if by_norm else a)
              * (1 - ell if (a + r * b) % ell == 0 else 1) for a, b in product(range(M), repeat=2)}
    return TestFunction(2, p, M, {x: y for x, y in values.items() if y})


def twisted_moments(name, c, p, ms, by_norm=True):
    """Per seeded q: (f = twisted(name, c, p, by_norm), the generators of
    psi_cdg([I, rho(eps)], q), their N^m moments for f, the expected
    (1 - chi(ell) ell^(1+m)) L(-m, chi) L(-m, chi chi_D)), for m in ms."""
    D, form, rho, ell, _r = FIELDS[name]
    f, rng = twisted(name, c, p, by_norm), random.Random(f"twist:{name}:{c}")
    want = [(1 - kronecker(c, ell) * ell ** (1 + m)) * dirichlet_l_neg(c, m)
            * dirichlet_l_neg(c * D, m) for m in ms]
    out = []
    for q in [sample_deformation(2, rng) for _ in range(3)]:
        prims = psi_cdg([I2, rho], q)[1]
        out.append((f, prims, domain_moments(f, p, form, [I2, rho], q, ms), want))
    return out


TWISTED_KS = (0, 2, 4, 6, 8)


def test_depleted_twisted_moments_satisfy_the_kummer_congruences():
    # the second family: the twisted measures at p inert in K (3 and 7 in Q(sqrt 5),
    # 5 in Q(sqrt 2)) are Z_p-valued too, so their depleted N^k moments, k even <= 8,
    # are p-integral and agree mod p^j when k = k' mod (p - 1) p^(j-1). Two depletion
    # routes: mu minus its restriction to p Z_p^2, and (1 - p^(2k)) m_k, since
    # f(p.) = f (chi(p)^2 = 1, and p is a unit mod ell); both equal (1 - p^(2k))
    # (1 - chi(ell) ell^(1+k)) L(-k, chi) L(-k, chi chi_D). Control: any one moment
    # with a partner k' shifted by 1 breaks a congruence (at p = 7, k = 4 has none)
    for name, c, p in (("Q(sqrt 5)", -4, 3), ("Q(sqrt 5)", -3, 7), ("Q(sqrt 2)", -3, 5)):
        D, form, rho, ell, _r = FIELDS[name]
        f = twisted(name, c, p)
        assert all(f.values.get(tuple(p * y % f.M for y in x), 0) == v for x, v in f.values.items())
        sign, prims, closed = psi_cdg([I2, rho], sample_deformation(2, random.Random(f"kummer:{name}:{c}")))
        pm = pair_half_open(frozenset(prims), closed, f)
        classes, den = restrictions(pm, p, 1)
        mu, ball = ([sign * sum(w * t[o] for o, w in norm_power(form, k).items()) for k in TWISTED_KS]
                    for t in (dict(moment_table(a, p, 2, 2 * max(TWISTED_KS))) for a in (
                        pm, PseudoMeasure(GroupAlgebraElement(classes[(0, 0)]), den))))
        ds = [x - y for x, y in zip(mu, ball)]
        assert ds == [(1 - p ** (2 * k)) * x for k, x in zip(TWISTED_KS, mu)] == [
            (1 - p ** (2 * k)) * (1 - kronecker(c, ell) * ell ** (1 + k)) * dirichlet_l_neg(c, k)
            * dirichlet_l_neg(c * D, k) for k in TWISTED_KS], (name, c)
        assert all(x.denominator % p for x in ds), (name, c, ds)
        assert kummer_failures(ds, p, TWISTED_KS) == [], (name, c, ds)
        partnered = [i for i, k in enumerate(TWISTED_KS)
                     if any(k != kk and (k - kk) % (p - 1) == 0 for kk in TWISTED_KS)]
        assert len(partnered) == (4 if p == 7 else 5), (name, partnered)
        for i in partnered:
            assert kummer_failures([x + (t == i) for t, x in enumerate(ds)], p, TWISTED_KS), (name, i)


def test_the_l_value_oracle_at_negative_discriminants():
    # kronecker at c = -3, -4 is the residue rule, and at cD it is chi_c chi_D;
    # L(0, chi_D) = 2h/w, and L(-2m, chi_-4) = E_2m / 2 (Euler numbers)
    for a in range(1, 300):
        assert kronecker(-4, a) == (0, 1, 0, -1)[a % 4] and kronecker(-3, a) == (0, 1, -1)[a % 3]
        for c, D in ((-4, 5), (-3, 5), (-3, 8), (-4, 13)):
            assert kronecker(c * D, a) == kronecker(c, a) * kronecker(D, a), (c, D, a)
    assert [dirichlet_l_neg(D, 0) for D in (-3, -4, -15, -20, -24, -52)] == [
        F(1, 3), F(1, 2), 2, 2, 2, 2]
    assert [dirichlet_l_neg(-4, m) for m in (2, 4)] == [F(-1, 2), F(5, 2)]


def test_twisted_norm_moments_are_l_values():
    # 4 (field, chi) pairs x 3 seeded q at levels ell|c| = 21-68 x m = 0, 2, 4
    # (0, 2 for Q(sqrt 13)): 33 exact equalities, the sign + as for zeta_K;
    # rho(eps) stabilizes f, since N(eps) = 1; Q(sqrt 5) with chi_-4 reads 12,
    # 19980 and 1418062860
    seen = {}
    for name, c, p, ms in TWISTS:
        for f, _prims, got, want in twisted_moments(name, c, p, ms):
            assert stabilizes(f, FIELDS[name][2]), (name, c)
            assert got == want, (name, c, got, want)
        seen[name, c] = got
    assert seen["Q(sqrt 5)", -4] == [12, 19980, 1418062860]


def test_a_twist_that_is_not_unit_invariant_gives_wrong_l_values():
    # negative control: chi(a) in place of chi(N(a + b w)) is not rho(eps)-invariant;
    # vh still holds on both generators, so the measure is built, but its moments
    # miss the L-values in all 12 (pair, q) cases
    for name, c, p, ms in TWISTS:
        for f, prims, got, want in twisted_moments(name, c, p, ms, by_norm=False):
            assert not stabilizes(f, FIELDS[name][2]), (name, c)
            assert is_measure_vh(prims, f), (name, c)
            assert got != want, (name, c)


# K = Q(zeta_7)^+ = Q(theta), theta = 2 cos(2 pi / 7), theta^3 + theta^2 - 2 theta - 1 = 0,
# with the basis (1, theta, theta^2): rho(theta) has the columns (0, 1, 0), (0, 0, 1) and
# (1, 2, -1); eps_1 = theta^2 and eps_2 = (1 + theta)^2 are totally positive units, and
# l = (13, theta - 7) is a prime of degree 1
THETA = ((0, 0, 1), (1, 0, 2), (0, 1, -1))
CUBIC_NORM = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (2, 1, 0): -1, (2, 0, 1): 5,
              (1, 0, 2): 6, (1, 2, 0): -2, (0, 2, 1): -1, (1, 1, 1): -1, (0, 1, 2): -2}
I3 = linalg.identity(3)


def cubic_domain(q, ms):
    """For the smoothed f = 1 - 13 [x in l] at p = 5: the two signed cones
    psi_cdg(I, rho(eps_1), rho(eps_1 eps_2)) and psi_cdg(I, rho(eps_2), rho(eps_2 eps_1))
    at q, and [the N^m moment of the first minus that of the second], m in ms, by
    summing the two cones' moment tables."""
    ell, r = 13, 7
    f = TestFunction(3, 5, ell, {(a, b, c): 1 - ell if (a + r * b + r * r * c) % ell == 0 else 1
                                 for a, b, c in product(range(ell), repeat=3)})
    rho1 = reference_mat_mul(THETA, THETA)
    one_plus = tuple(tuple(x + y for x, y in zip(u, v)) for u, v in zip(I3, THETA))
    rho2 = reference_mat_mul(one_plus, one_plus)
    rho12 = reference_mat_mul(rho1, rho2)
    first = domain_moments(f, 5, CUBIC_NORM, [I3, rho1, rho12], q, ms)
    second = domain_moments(f, 5, CUBIC_NORM, [I3, rho2, rho12], q, ms)
    cones = [psi_cdg(mats, q) for mats in ([I3, rho1, rho12], [I3, rho2, rho12])]
    return f, cones, [a - b for a, b in zip(first, second)]


def test_the_cubic_oracle_and_norm_form():
    # zeta_K(-1) = -1/21 and zeta_K(-3) = 79/210 for the field of conductor 7;
    # CUBIC_NORM is det rho(a + b theta + c theta^2) on a grid
    assert [cyclic_cubic_zeta_neg(7, k) for k in (2, 4)] == [F(-1, 21), F(79, 210)]
    theta2 = reference_mat_mul(THETA, THETA)
    for a, b, c in product(range(-2, 3), repeat=3):
        m = [[a * x + b * y + c * z for x, y, z in zip(*rows)] for rows in zip(I3, THETA, theta2)]
        assert linalg.det(m) == sum(w * a ** i * b ** j * c ** k
                                    for (i, j, k), w in CUBIC_NORM.items()), (a, b, c)


def test_the_cubic_signed_domain_gives_zeta_values():
    # the N^m moment of [eps_1 | eps_2] - [eps_2 | eps_1] is -(1 - 13^(1+m)) zeta_K(-m):
    # -8 for m = 1 at 4 seeded q, and 10744 for m = 3 at the first 2 (a table of
    # order 9 per cone); the sign - is the orientation of that signed fundamental
    # domain (Colmez; Diaz y Diaz and Friedman). The two cones' periods are
    # dependent, so the sum of their pseudo-measures has no single moment table:
    # the per-cone tables are summed
    rng = random.Random("zeta:Q(zeta_7)^+")
    want = [-(1 - 13 ** (1 + m)) * cyclic_cubic_zeta_neg(7, m + 1) for m in (1, 3)]
    assert want == [-8, 10744]
    for i, q in enumerate(sample_deformation(3, rng) for _ in range(4)):
        f, cones, got = cubic_domain(q, (1, 3) if i < 2 else (1,))
        assert got == want[:len(got)], (q, got)
    total = pm_sum([(sign, pair_half_open(frozenset(prims), closed, f))
                    for sign, prims, closed in cones])
    with pytest.raises(DependentInput, match="are linearly dependent$"):
        moment_table(total, 5, 3, 3)


def test_a_wrong_bernoulli_sign_breaks_the_cubic_zeta_values(monkeypatch):
    # negative control: with L B_1's sign flipped in the moment table, m = 1
    # and m = 3 both miss (at the first seeded q)
    bernoulli = amice._bernoulli

    def flipped(k):
        big, out = bernoulli(k)
        return big, [out[0], -out[1], *out[2:]]

    monkeypatch.setattr(amice, "_bernoulli", flipped)
    q = sample_deformation(3, random.Random("zeta:Q(zeta_7)^+"))
    got = cubic_domain(q, (1, 3))[2]
    assert got[0] != -8 and got[1] != 10744, got
