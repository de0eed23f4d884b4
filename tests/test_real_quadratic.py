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
no Gamma(M) that the CLI samples. The domain psi_cdg([I, rho(eps)^2], q)
covers the units twice, and twisting f by a quadratic character chi
through the norm gives L-values: L_K(s, chi o N) = L(s, chi) L(s, chi chi_D).
"""

import random
from fractions import Fraction as F
from itertools import product

from shintani import amice, linalg
from shintani.amice import is_measure_vh, moment_table
from shintani.cocycle import (
    psi_cdg,
    sample_deformation,
    verify_cocycle,
    verify_equivariance,
)
from shintani.solomon_hu import pair_half_open
from shintani.testfunctions import TestFunction, stabilizes

from oracles import dirichlet_l_neg, kronecker, quadratic_zeta_neg

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
    """N(a, b)^m as {(i, j): coefficient of a^i b^j}."""
    poly = {(0, 0): 1}
    for _ in range(m):
        step = {}
        for (i, j), c in poly.items():
            for (di, dj), w in zip(((2, 0), (1, 1), (0, 2)), form):
                step[i + di, j + dj] = step.get((i + di, j + dj), 0) + c * w
        poly = step
    return poly


def domain_moments(f, p, form, mats, q, ms):
    """[the N^m moment at p of sign * the paired cocycle value psi_cdg(mats, q)], m in ms."""
    sign, prims, closed = psi_cdg(mats, q)
    table = dict(moment_table(pair_half_open(frozenset(prims), closed, f), p, 2, 2 * max(ms)))
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
    tuple3 = [I2, rho, linalg.mat_mul(rho, rho)]
    for q in [sample_deformation(2, rng) for _ in range(6)] + [(0, 0), (1, 1), (1, 0)]:
        assert verify_cocycle(f, tuple3, q) is None, q
        assert verify_cocycle(f, tuple3, q, corrupt_sign=True) is not None, q
        assert verify_equivariance(f, rho, [I2, rho], q), q


def doubled_domains(count):
    """Per field and each of count seeded q: (the field, the moments of [I, rho(eps)],
    those of [I, rho(eps)^2]), m = 1, 3, 5, 7, 9."""
    out = []
    for name, (_D, form, rho, ell, r) in FIELDS.items():
        f, rng = smoothed(ell, r), random.Random(f"square:{name}")
        for q in [sample_deformation(2, rng) for _ in range(count)]:
            out.append((name, *(domain_moments(f, 3, form, [I2, mats], q, (1, 3, 5, 7, 9))
                                 for mats in (rho, linalg.mat_mul(rho, rho)))))
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
