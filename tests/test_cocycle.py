import random
from fractions import Fraction as F
from itertools import product

import pytest

from shintani import linalg
from shintani.cocycle import (
    psi_cdg,
    sample_congruence_tuple,
    sample_deformation,
    verify_cocycle,
    verify_equivariance,
    verify_measure_valued,
)
from shintani.cones import deformed_cone_decompose
from shintani.errors import NotStabilizer
from shintani.solomon_hu import PseudoMeasure as PM, act_pm, pm_eq, pm_zero
from shintani.testfunctions import TestFunction, random_congruence_element

from oracles import (
    GA,
    NonGenericDeformation,
    deformed_cone_eval,
    eval_cone_function,
    phi,
    pm_neg,
)

I2 = ((1, 0), (0, 1))
ROT = ((0, -1), (1, 0))
Q_GOOD = (F(-1, 2), F(1, 3))


def balanced_f(n, p, M):
    """Difference along e1 on every column: vanishing hypothesis holds for
    every primitive ray congruent to e1 mod M."""
    table = {}
    for rest in product(range(M), repeat=n - 1):
        table[(1,) + rest] = 1
        table[(3 % M,) + rest] = table.get((3 % M,) + rest, 0) - 1
    return TestFunction(n, p, M, table)


def test_psi_zero_on_dependent_columns():
    assert psi_cdg((I2, I2), Q_GOOD).terms == ()


def test_psi_trivial_on_mirabolic_tuples():
    rng = random.Random(3)
    for _ in range(10):
        mats = []
        for _j in range(2):
            b = rng.randint(-5, 5)
            d = rng.choice((-3, -2, -1, 1, 2, 3))
            mats.append(((1, b), (0, d)))  # fixes e1
        assert psi_cdg(mats, Q_GOOD).terms == ()


def test_psi_is_the_decomposer_on_first_columns():
    # one Hermite pass decides the tuple: psi_cdg adds nothing to it, on
    # either orientation and on dependent columns
    rng = random.Random(8)
    signs = set()
    for _ in range(30):
        a, b = (random_congruence_element(2, 3, rng.randrange(10**6)) for _ in range(2))
        mats = [a, rng.choice((a, b, ((0, 1), (1, 0))))]
        cols = [tuple(row[0] for row in m) for m in mats]
        q = sample_deformation(2, rng)
        k = psi_cdg(mats, q)
        assert k == deformed_cone_decompose(cols, q)
        signs |= {c for c, _cone in k.terms} or {0}
    assert signs == {-1, 0, 1}


def test_psi_worked_example():
    k = psi_cdg((I2, ROT), Q_GOOD)
    gens = sorted(cone.generators for _c, cone in k.terms)
    assert gens == [((F(1), F(0)),), ((F(1), F(0)), (F(0), F(1)))]
    assert all(c == 1 for c, _ in k.terms)


def test_q_given_as_strings():
    # q is read through Fraction, so strings give the same cone function
    k = psi_cdg((I2, ROT), (F(1, 2), F(-1, 3)))
    assert k.terms
    assert psi_cdg((I2, ROT), ("1/2", "-1/3")) == k
    f = balanced_f(2, 3, 4)
    g = random_congruence_element(2, 4, 1)
    assert verify_equivariance(f, g, (I2, ROT), ("1/2", "-1/3"))


def test_psi_support_on_columns():
    rng = random.Random(5)
    for t in range(20):
        mats = sample_congruence_tuple(2, 4, 2, 400 + t)
        q = sample_deformation(2, rng)
        cols = {linalg.primitive_vector(linalg.mat_vec(m, (1, 0))) for m in mats}
        k = psi_cdg(mats, q)
        for _c, cone in k.terms:
            for g in cone.generators:
                assert linalg.primitive_vector(g) in cols


def test_phi_worked_example():
    f = balanced_f(2, 3, 4)
    pm = phi(f, (I2, ROT), (F(-1, 2), F(-1, 3)))
    exp_num = GA.zero()
    for j in range(1, 5):
        exp_num = exp_num + GA.delta((1, j)) - GA.delta((3, j))
    expected = PM(exp_num, ((0, 4), (4, 0)))
    assert pm_eq(pm, expected)


def test_phi_zero_and_sign():
    f = balanced_f(2, 3, 4)
    assert pm_eq(phi(f, (I2, I2), Q_GOOD), pm_zero())
    # swapping the two arguments flips the column determinant, so the
    # cocycle value changes sign while the underlying cone is unchanged
    a = phi(f, (I2, ROT), Q_GOOD)
    b = phi(f, (ROT, I2), Q_GOOD)
    assert pm_eq(b, pm_neg(a))
    with pytest.raises(ValueError):
        phi(f, (((F(1, 2), F(0)), (F(0), F(2))), I2), Q_GOOD)


def test_singular_matrices_are_refused():
    singular = ((1, 2), (2, 4))
    halves = ((F(1, 2), F(0)), (F(0), F(2)))
    f = balanced_f(2, 3, 4)
    # each public entry checks its matrices once, up front, before the
    # stabilizer check
    for mats in ((singular, I2), (I2, singular)):
        with pytest.raises(ValueError, match="must be invertible"):
            psi_cdg(mats, Q_GOOD)
        with pytest.raises(ValueError, match="must be invertible"):
            verify_equivariance(f, I2, mats, Q_GOOD)
    for mats in ((halves, I2), (I2, halves)):
        with pytest.raises(ValueError, match="not an integer"):
            psi_cdg(mats, Q_GOOD)
        with pytest.raises(ValueError, match="not an integer"):
            verify_equivariance(f, I2, mats, Q_GOOD)
    for i in range(3):
        mats = [I2, ROT, I2]
        mats[i] = singular
        with pytest.raises(ValueError, match="must be invertible"):
            verify_cocycle(f, tuple(mats), Q_GOOD)


def test_verify_cocycle_explicit():
    f = balanced_f(2, 3, 4)
    same = (I2, I2, I2)
    assert verify_cocycle(f, same, Q_GOOD)
    ts = linalg.int_mat(linalg.mat_mul(((1, 1), (0, 1)), ROT))
    assert verify_cocycle(f, (I2, ROT, ts), Q_GOOD)
    assert not verify_cocycle(f, (I2, ROT, ts), Q_GOOD, corrupt_sign=True)


def test_verify_cocycle_congruence_samples():
    f = balanced_f(2, 3, 4)
    rng = random.Random(9)
    for t in range(10):
        mats = sample_congruence_tuple(2, 4, 3, 800 + t)
        q = sample_deformation(2, rng)
        assert verify_cocycle(f, mats, q)


def test_verify_cocycle_multiple_deformations():
    f = balanced_f(2, 3, 4)
    mats = sample_congruence_tuple(2, 4, 3, 77)
    rng = random.Random(123)
    drawn = [sample_deformation(2, rng) for _ in range(3)]
    for q in [Q_GOOD] + drawn:
        assert verify_cocycle(f, mats, q), q
    assert len({Q_GOOD, *drawn}) == 4


def test_harnesses_verify_at_the_given_q():
    # a vector on a face hyperplane gets an exact verdict at that vector:
    # the infinitesimal frame breaks the tie, and nothing is re-sampled
    f = balanced_f(2, 3, 4)
    ts = linalg.int_mat(linalg.mat_mul(((1, 1), (0, 1)), ROT))
    for on_face in ((F(1), F(0)), (F(0), F(0)), (F(0), F(-2, 7))):
        assert verify_cocycle(f, (I2, ROT, ts), on_face), on_face
        assert not verify_cocycle(f, (I2, ROT, ts), on_face, corrupt_sign=True), on_face
        assert verify_measure_valued(f, 3, on_face, seed=2), on_face
    control = TestFunction(2, 3, 4, {(1, 0): 1})
    assert not verify_measure_valued(control, 3, (F(1), F(0)), seed=2)


def test_deformation_robustness():
    # same sign pattern gives identical face sets; different patterns
    # still satisfy the identity
    inp1 = psi_cdg((I2, ROT), (F(-1, 2), F(1, 3)))
    inp2 = psi_cdg((I2, ROT), (F(-1, 5), F(2, 7)))
    assert sorted(c.generators for _x, c in inp1.terms) == sorted(
        c.generators for _x, c in inp2.terms
    )
    f = balanced_f(2, 3, 4)
    mats = sample_congruence_tuple(2, 4, 3, 31)
    for q in [(F(-1, 2), F(1, 3)), (F(1, 2), F(1, 3)), (F(-1, 2), F(-1, 3))]:
        assert verify_cocycle(f, mats, q)


def test_verify_equivariance():
    f = balanced_f(2, 3, 4)
    mats = (I2, ROT)
    assert verify_equivariance(f, I2, mats, Q_GOOD)
    for seed in range(8):
        g = random_congruence_element(2, 4, seed)
        assert verify_equivariance(f, g, mats, Q_GOOD)
    lopsided = TestFunction(2, 3, 4, {(1, 0): 1})
    with pytest.raises(NotStabilizer):
        verify_equivariance(lopsided, ROT, mats, Q_GOOD)


def test_verify_measure_valued():
    f = balanced_f(2, 3, 4)
    assert verify_measure_valued(f, 5, Q_GOOD, seed=2)
    control = TestFunction(2, 3, 4, {(1, 0): 1})
    assert not verify_measure_valued(control, 3, Q_GOOD, seed=2)


def test_psi_pointwise_against_deformed_eval():
    # the cocycle value is the signed deformed-cone indicator on the columns
    rng = random.Random(21)
    done = 0
    while done < 15:
        mats = []
        for _ in range(2):
            m = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            if linalg.det(m) == 0:
                continue
            mats.append(tuple(tuple(row) for row in m))
        if len(mats) < 2:
            continue
        cols = [linalg.mat_vec(m, (1, 0)) for m in mats]
        if linalg.det(cols) == 0:
            continue
        q = sample_deformation(2, rng)
        try:
            k = psi_cdg(mats, q)
            sign = 1 if linalg.det(linalg.transpose(cols)) > 0 else -1
            for _ in range(6):
                w = tuple(F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(2))
                expected = sign * deformed_cone_eval(cols, q, w)
                assert eval_cone_function(k, w) == expected
        except NonGenericDeformation:
            continue
        done += 1


def _degenerate_qs(mats, n):
    """q = 0, which lies on every face hyperplane, the first column of the
    first matrix, which lies on those of every n-subset of columns holding
    it, and e_n."""
    first = tuple(F(row[0]) for row in mats[0])
    return [(F(0),) * n, first, tuple(F(int(i == n - 1)) for i in range(n))]


def _live_tuples(n, M, count, seed):
    """The first count seeded (n+1)-tuples of level M with at least two
    n-subsets of independent first columns, so that the alternating sums add
    up nonzero terms."""
    out = []
    while len(out) < count:
        mats = sample_congruence_tuple(n, M, n + 1, seed)
        cols = [tuple(row[0] for row in m) for m in mats]
        if sum(linalg.det(cols[:i] + cols[i + 1:]) != 0 for i in range(n + 1)) >= 2:
            out.append(mats)
        seed += 1
    return out


def _random_f(rng, n, M):
    return TestFunction(n, 3, M, {r: rng.randint(-2, 2) for r in product(range(M), repeat=n)})


@pytest.mark.parametrize("n, M, tuples", [(2, 4, 20), (3, 2, 12), (3, 4, 8)])
def test_cocycle_identity_at_degenerate_q(n, M, tuples):
    rng = random.Random(1000 * n + M)
    for t, mats in enumerate(_live_tuples(n, M, tuples, 5000 + 97 * n + 13 * M)):
        f = _random_f(rng, n, M)
        for q in _degenerate_qs(mats, n):
            assert verify_cocycle(f, mats, q), (t, q)
            if phi(f, mats[1:], q).num:  # the term corrupt_sign flips
                assert not verify_cocycle(f, mats, q, corrupt_sign=True), (t, q)


def test_equivariance_carries_the_frame_at_degenerate_q():
    # g^-1 q_eps = g^-1 q + eps g^-1 e_1 + ...: the right-hand side is
    # deformed along the frame adj(g) = g^-1. The identity frame on both
    # sides is a negative control: it must break the identity somewhere.
    rng = random.Random(4242)
    identity_frame_failures = 0
    for n, M in ((2, 4), (3, 2), (3, 4)):
        seed = 7000 + 31 * n + M
        for t in range(8):
            while True:  # n matrices with independent first columns
                mats = sample_congruence_tuple(n, M, n, seed)
                seed += 1
                if linalg.det([tuple(row[0] for row in m) for m in mats]):
                    break
            f = _random_f(rng, n, M)
            g = random_congruence_element(n, M, 9000 + 31 * n + M + t)
            adj, _d = linalg.adjugate(g)
            gmats = tuple(linalg.mat_mul(g, m) for m in mats)
            for q in _degenerate_qs(mats, n)[:2]:
                assert verify_equivariance(f, g, mats, q), (n, M, t, q)
                left = phi(f, gmats, q)
                right = act_pm(g, phi(f, mats, linalg.mat_vec(adj, q)))
                identity_frame_failures += not pm_eq(left, right)
    assert identity_frame_failures > 0
