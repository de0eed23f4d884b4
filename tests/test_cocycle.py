import random
from fractions import Fraction as F
from itertools import product

import pytest

from shintani import cocycle, linalg
from shintani.amice import is_measure_amice, is_measure_vh
from shintani.cocycle import (
    _alternating_sum,
    psi_cdg,
    sample_congruence_tuple,
    sample_deformation,
    verify_cocycle,
    verify_equivariance,
    verify_measure_valued,
)
from shintani.cones import deformed_cone
from shintani.errors import NotStabilizer
from shintani.solomon_hu import (
    PseudoMeasure as PM,
    act_pm,
    pair_cone_function,
    pair_half_open,
    pair_open_cone,
    pm_eq,
    pm_sum,
    pm_to_json,
    pm_zero,
)
from shintani.testfunctions import TestFunction, check_vh, random_congruence_element

from oracles import (
    GA,
    NonGenericDeformation,
    deformed_cone_eval,
    eval_cone_function,
    measure_valued_by_faces,
    open_faces,
    phi,
    pm_neg,
    reference_mat_mul,
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
    assert psi_cdg((I2, I2), Q_GOOD) is None


def test_psi_trivial_on_mirabolic_tuples():
    rng = random.Random(3)
    for _ in range(10):
        mats = []
        for _j in range(2):
            b = rng.randint(-5, 5)
            d = rng.choice((-3, -2, -1, 1, 2, 3))
            mats.append(((1, b), (0, d)))  # fixes e1
        assert psi_cdg(mats, Q_GOOD) is None


def test_psi_is_the_deformed_cone_on_first_columns():
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
        assert k == deformed_cone(cols, q)
        signs.add(0 if k is None else k[0])
    assert signs == {-1, 0, 1}


def test_psi_worked_example():
    k = psi_cdg((I2, ROT), Q_GOOD)
    # q = -e_1/2 + e_2/3 points into e_2: the cone is closed there
    assert k == (1, [(1, 0), (0, 1)], frozenset({(0, 1)}))
    faces = open_faces(k)
    gens = sorted(cone.generators for cone in faces)
    assert gens == [((F(1), F(0)),), ((F(1), F(0)), (F(0), F(1)))]
    assert all(c == 1 for c in faces.values())


def test_q_given_as_strings():
    # q is read through Fraction, so strings give the same deformed cone
    k = psi_cdg((I2, ROT), (F(1, 2), F(-1, 3)))
    assert k == (1, [(1, 0), (0, 1)], frozenset({(1, 0)}))
    assert psi_cdg((I2, ROT), ("1/2", "-1/3")) == k
    f = balanced_f(2, 3, 4)
    g = random_congruence_element(2, 4, 1)
    assert verify_equivariance(f, g, (I2, ROT), ("1/2", "-1/3"))


def test_psi_support_on_columns():
    rng = random.Random(5)
    cones = 0
    for t in range(20):
        mats = sample_congruence_tuple(2, 4, 2, 400 + t)
        q = sample_deformation(2, rng)
        cols = {linalg.primitive_vector(linalg.mat_vec(m, (1, 0))) for m in mats}
        if (k := psi_cdg(mats, q)) is not None:
            _sign, prims, closed = k
            assert set(prims) <= cols and closed <= set(prims)
            cones += 1
    assert cones


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
    assert verify_cocycle(f, same, Q_GOOD) is None
    ts = linalg.int_mat(reference_mat_mul(((1, 1), (0, 1)), ROT))
    assert verify_cocycle(f, (I2, ROT, ts), Q_GOOD) is None
    assert verify_cocycle(f, (I2, ROT, ts), Q_GOOD, corrupt_sign=True) is not None


def test_verify_cocycle_congruence_samples():
    f = balanced_f(2, 3, 4)
    rng = random.Random(9)
    for t in range(10):
        mats = sample_congruence_tuple(2, 4, 3, 800 + t)
        q = sample_deformation(2, rng)
        assert verify_cocycle(f, mats, q) is None


def test_verify_cocycle_multiple_deformations():
    f = balanced_f(2, 3, 4)
    mats = sample_congruence_tuple(2, 4, 3, 77)
    rng = random.Random(123)
    drawn = [sample_deformation(2, rng) for _ in range(3)]
    for q in [Q_GOOD] + drawn:
        assert verify_cocycle(f, mats, q) is None, q
    assert len({Q_GOOD, *drawn}) == 4


def test_harnesses_verify_at_the_given_q():
    # a vector on a face hyperplane gets an exact verdict at that vector:
    # the infinitesimal frame breaks the tie, and nothing is re-sampled
    f = balanced_f(2, 3, 4)
    ts = linalg.int_mat(reference_mat_mul(((1, 1), (0, 1)), ROT))
    for on_face in ((F(1), F(0)), (F(0), F(0)), (F(0), F(-2, 7))):
        assert verify_cocycle(f, (I2, ROT, ts), on_face) is None, on_face
        assert verify_cocycle(f, (I2, ROT, ts), on_face, corrupt_sign=True) is not None, on_face
        assert verify_measure_valued(f, 3, on_face, seed=2), on_face
    control = TestFunction(2, 3, 4, {(1, 0): 1})
    assert not verify_measure_valued(control, 3, (F(1), F(0)), seed=2)


def test_deformation_robustness():
    # same sign pattern gives the same deformed cone; different patterns
    # still satisfy the identity
    inp1 = psi_cdg((I2, ROT), (F(-1, 2), F(1, 3)))
    inp2 = psi_cdg((I2, ROT), (F(-1, 5), F(2, 7)))
    assert inp1 == inp2
    f = balanced_f(2, 3, 4)
    mats = sample_congruence_tuple(2, 4, 3, 31)
    for q in [(F(-1, 2), F(1, 3)), (F(1, 2), F(1, 3)), (F(-1, 2), F(-1, 3))]:
        assert verify_cocycle(f, mats, q) is None


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


def _smoothed(table, M, s):
    """The difference f(x) - f(x - s) of a table on (Z/M)^n: vh holds for s."""
    return {r: w - table[tuple((x - a) % M for x, a in zip(r, s))] for r, w in table.items()}


@pytest.mark.parametrize("stub", [None, "is_measure_vh", "is_measure_amice"])
def test_measure_valued_matches_the_face_reference(stub, monkeypatch):
    # pairing the half-open cone once gives the verdict of the per-face check
    # (oracles.measure_valued_by_faces), on step functions smoothed along e_1,
    # whose cocycle values are measures, and on unsmoothed ones, which fail.
    # Either criterion decides alone: with the other stubbed to accept in
    # cocycle, the verdicts stay those of the reference
    if stub:
        monkeypatch.setattr(cocycle, stub, lambda *args: True)
    rng = random.Random(2500)
    verdicts = []
    for n in (1, 2, 3):
        for M in range(2, 6):
            p = next(p for p in (3, 5, 7) if M % p)
            for t in range(4):
                table = {r: rng.randint(-2, 2) for r in product(range(M), repeat=n)}
                if t % 2 == 0:
                    table = _smoothed(table, M, (1,) + (0,) * (n - 1))
                for q in (sample_deformation(n, rng), (F(0),) * n):
                    got = verify_measure_valued(TestFunction(n, p, M, table), 3, q, seed=t)
                    want = measure_valued_by_faces(TestFunction(n, p, M, table), 3, q, seed=t)
                    assert got == want, (n, M, t, q)
                    verdicts.append(got)
    assert len(verdicts) == 96 and 30 <= sum(verdicts) <= 66


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_vh_on_every_prim_makes_the_half_open_cone_and_its_faces_measures(n):
    # on arbitrary independent columns, with f smoothed along some of the
    # primitive columns, so that vh holds on some rays and fails on others:
    # when vh holds on every prim, the half-open pairing and every open
    # face's pairing pass the series-side test
    rng = random.Random(2600 + n)
    held, done = {"all": 0, "some": 0}, 0
    while done < 30:
        M = rng.choice((2, 3, 4, 5) if n < 4 else (2, 3))
        p = rng.choice([p for p in (2, 3, 5, 7) if M % p])
        cols = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
        if not 0 < abs(linalg.det(cols)) * M ** n <= 3000:
            continue
        cone = deformed_cone(cols, sample_deformation(n, rng) if done % 3 else (0,) * n)
        _sign, prims, closed = cone
        table = {r: rng.randint(-2, 2) for r in product(range(M), repeat=n)}
        for s in prims:
            if rng.random() < 0.6:
                table = _smoothed(table, M, s)
        f = TestFunction(n, p, M, table)
        vh = [check_vh(f, s) for s in prims]
        assert is_measure_vh(prims, f) == all(vh)
        if all(vh):
            assert is_measure_amice(pair_half_open(frozenset(prims), closed, f), p)
            for face in open_faces(cone):
                assert is_measure_amice(pair_open_cone(face, f), p)
            held["all"] += 1
        elif any(vh):
            held["some"] += 1
        done += 1
    assert held["all"] >= 5 and (n == 1 or held["some"] >= 5), held


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
            k = open_faces(psi_cdg(mats, q))
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
            assert verify_cocycle(f, mats, q) is None, (t, q)
            if phi(f, mats[1:], q).num:  # the term corrupt_sign flips
                assert verify_cocycle(f, mats, q, corrupt_sign=True) is not None, (t, q)


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
            gmats = tuple(reference_mat_mul(g, m) for m in mats)
            for q in _degenerate_qs(mats, n)[:2]:
                assert verify_equivariance(f, g, mats, q), (n, M, t, q)
                left = phi(f, gmats, q)
                right = act_pm(g, phi(f, mats, linalg.mat_vec(adj, q)))
                identity_frame_failures += not pm_eq(left, right)
    assert identity_frame_failures > 0


def _with_first_column(c):
    """An invertible integer matrix with first column c: the other columns
    are the unit vectors but e_k, for the first k with c_k != 0."""
    k = next(i for i, x in enumerate(c) if x)
    units = [tuple(int(i == j) for i in range(len(c))) for j in range(len(c)) if j != k]
    return tuple(zip(c, *units))


def _face_sum(f, gens, q, frame=None):
    """The face path: the deformed cone as open faces, each paired and summed."""
    return pair_cone_function(open_faces(deformed_cone(gens, q, frame)), f)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_half_open_pairing_matches_the_face_sum(n):
    # the harnesses pair each deformed cone as one half-open cell; its printed
    # pseudo-measure, the signed alternating sum and the equivariance verdict
    # are those of the open faces paired and summed, for a random q, q = 0 and
    # q on face hyperplanes, under the identity frame and the frame adj(g),
    # f = 0 included
    rng = random.Random(2400 + n)
    cases, closed_seen = 0, set()
    for M in range(2, 6):
        for t in range(3):
            while True:  # two independent n-subsets, and cells that stay small at this level
                cols = [tuple(rng.choice((0, 0, -2, -1, 1, 2)) for _ in range(n))
                        for _ in range(n + 1)]
                dets = [abs(linalg.det(cols[:i] + cols[i + 1:])) for i in range(n + 1)]
                if all(any(c) for c in cols) and sum(map(bool, dets)) >= 2 and sum(
                        dets) * M ** n <= 6000:
                    break
            mats = [_with_first_column(c) for c in cols]
            g = random_congruence_element(n, M, 100 * M + t)
            adj, _d = linalg.adjugate(g)
            for q in [sample_deformation(n, rng)] + _degenerate_qs(mats, n)[:2]:
                table = {r: rng.randint(-2, 2) for r in product(range(M), repeat=n)}
                for f in (TestFunction(n, 7, M, table), TestFunction(n, 7, M, {})):
                    for i in range(n + 1):
                        sub = cols[:i] + cols[i + 1:]
                        for qq, frame in ((q, None), (linalg.mat_vec(adj, q), adj)):
                            cone = deformed_cone(sub, qq, frame)
                            half = pm_zero() if cone is None else pm_sum(
                                [(cone[0], pair_half_open(frozenset(cone[1]), cone[2], f))])
                            assert pm_to_json(half) == pm_to_json(_face_sum(f, sub, qq, frame))
                            if cone is not None:
                                closed_seen.add(len(cone[2]))
                    for corrupt in (False, True):
                        want = pm_sum([((-1) ** i * (-1 if corrupt and i == 0 else 1),
                                        phi(f, mats[:i] + mats[i + 1:], q)) for i in range(n + 1)])
                        total, _cones = _alternating_sum(f, mats, q, corrupt)
                        assert pm_to_json(total) == pm_to_json(want)
                    right = act_pm(g, _face_sum(f, cols[:n], linalg.mat_vec(adj, q), adj))
                    left = phi(f, [reference_mat_mul(g, m) for m in mats[:n]], q)
                    assert verify_equivariance(f, g, mats[:n], q) == pm_eq(left, right)
                    cases += 1
    assert cases == 4 * 3 * 3 * 2
    # cells with a closed generator and cells with an open one both ran
    assert closed_seen == set(range(n + 1))


def test_matrices_of_the_wrong_dimension_are_refused():
    # four 3 x 3 congruence matrices and a q of length 3 against a step
    # function on (Z/4)^2 are refused naming the sizes before anything is
    # paired: at seed 15 a term has independent columns, a cone in Z^3; at
    # seed 11 every term's columns are dependent, so nothing would be
    # paired and a zero sum would let the identity hold
    f = balanced_f(2, 3, 4)
    q = (F(1, 7), F(2, 7), F(3, 7))
    msg = r"^a matrix with rows of lengths \[3, 3, 3\] is not 2 x 2$"
    for seed, paired in ((15, True), (11, False)):
        mats = sample_congruence_tuple(3, 4, 4, seed)
        cols = [tuple(row[0] for row in m) for m in mats]
        assert any(linalg.det(cols[:i] + cols[i + 1:]) for i in range(4)) == paired
        for call in (lambda: verify_cocycle(f, mats, q),
                     lambda: verify_equivariance(f, linalg.identity(3), mats[:3], q),
                     lambda: verify_equivariance(f, linalg.identity(2), mats[:2], q[:2])):
            with pytest.raises(ValueError, match=msg):
                call()
    # a matrix of the wrong size among the right ones, and a ragged one
    mats = (I2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ROT)
    with pytest.raises(ValueError, match=msg):
        verify_cocycle(f, mats, Q_GOOD)
    with pytest.raises(ValueError, match=r"^a matrix with rows of lengths \[2, 1\] is not 2 x 2$"):
        psi_cdg((I2, ((1, 0), (1,))), Q_GOOD)
    # no matrices at all is a documented ValueError, not an IndexError
    with pytest.raises(ValueError, match="^a deformed cone needs at least one generator$"):
        psi_cdg([], ())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_deformation_vector_of_the_wrong_length_is_refused(n):
    # q and the frame must have the generators' length n: mat_vec would
    # otherwise zip q against adj and drop or ignore coordinates
    f = balanced_f(n, 3, 4) if n > 1 else TestFunction(1, 3, 4, {(1,): 1, (3,): -1})
    mats = sample_congruence_tuple(n, 4, n + 1, 11)
    ident = linalg.identity(n)
    for m in (n - 1, n + 1):
        q = tuple(F(j + 1, 7) for j in range(m))
        msg = f"^a deformation vector of length {m} for generators of length {n}$"
        # verify_measure_valued checks q before its trials, so also at 0 samples
        for call in (lambda: deformed_cone(ident, q), lambda: psi_cdg(mats[:n], q),
                     lambda: verify_cocycle(f, mats, q),
                     lambda: verify_equivariance(f, ident, mats[:n], q),
                     lambda: verify_measure_valued(f, 1, q), lambda: verify_measure_valued(f, 0, q)):
            with pytest.raises(ValueError, match=msg):
                call()
    q = (F(0),) * n
    for frame in (linalg.identity(n + 1), ident[:-1] or ((),), [row + (0,) for row in ident]):
        with pytest.raises(ValueError, match=f"^a deformation frame that is not {n} x {n}$"):
            deformed_cone(ident, q, frame)
