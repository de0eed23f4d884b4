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
no Gamma(M) that the CLI samples.
"""

import random
from fractions import Fraction as F

from shintani import amice, linalg
from shintani.amice import moment_table
from shintani.cocycle import (
    psi_cdg,
    sample_deformation,
    verify_cocycle,
    verify_equivariance,
)
from shintani.solomon_hu import pair_half_open
from shintani.testfunctions import TestFunction

from oracles import quadratic_zeta_neg

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


def norm_moments(name, ms=(1, 3, 5)):
    """Per seeded q: ([the N^m moment of sign * the paired cocycle value], the
    expected [(1 - ell^(1+m)) zeta_K(-m)]), for m in ms."""
    D, form, rho, ell, r = FIELDS[name]
    f, rng = smoothed(ell, r), random.Random(f"zeta:{name}")
    out = []
    for _ in range(3):
        sign, prims, closed = psi_cdg([I2, rho], sample_deformation(2, rng))
        table = dict(moment_table(pair_half_open(frozenset(prims), closed, f), 3, 2, 2 * max(ms)))
        got = [sign * sum(c * table[o] for o, c in norm_power(form, m).items()) for m in ms]
        out.append((got, [(1 - ell ** (1 + m)) * quadratic_zeta_neg(D, m + 1) for m in ms]))
    return out


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
