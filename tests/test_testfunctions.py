import random
from fractions import Fraction as F
from itertools import product

import pytest

from shintani import linalg
from shintani.errors import DependentInput, NotUnimodular, SchemaError
from shintani.testfunctions import (
    MAX_DIMENSION,
    TestFunction,
    _is_prime,
    check_vh,
    from_json,
    random_congruence_element,
    stabilizes,
)

from oracles import (
    SliceFunction,
    act,
    haar,
    line_slice,
    rational_slice_haar,
    to_json,
    value_at,
    vh_by_slices,
)


def test_context_validation():
    with pytest.raises(ValueError):
        TestFunction(0, 3, 4)
    with pytest.raises(ValueError):
        TestFunction(1, 4, 3)  # p not prime
    with pytest.raises(ValueError):
        TestFunction(1, 3, 6)  # p | M


def test_dimension_is_bounded():
    # a cocycle trial draws n + 1 matrices of size n x n, so a dimension
    # above MAX_DIMENSION is refused naming n and the bound
    top = TestFunction(MAX_DIMENSION, 3, 4, {(1,) * MAX_DIMENSION: 1})
    assert top.values == {(1,) * MAX_DIMENSION: 1}
    for n in (MAX_DIMENSION + 1, 10**5):
        with pytest.raises(ValueError, match=f"^dimension n = {n} is above "
                                             f"MAX_DIMENSION = {MAX_DIMENSION}$"):
            TestFunction(n, 3, 4)


def test_is_prime_is_exact_below_2_to_the_64():
    # Miller-Rabin to the prime bases up to 37 against trial division on
    # every p below 20000 (the primes _bernoulli multiplies lie far below),
    # on primes up to 2^64, and on strong pseudoprimes to the bases 2,
    # 2..7, 2..13 and 2..31, which only the remaining bases reject
    assert [p for p in range(-3, 20000) if _is_prime(p)] == [
        p for p in range(2, 20000) if all(p % d for d in range(2, int(p**0.5) + 1))]
    for p in (2**31 - 1, 2**61 - 1, 10**18 + 9, 2**64 - 59):
        assert _is_prime(p), p
    for c in (2047, 3215031751, 3474749660383, 3825123056546413051,
              2**64 - 1, (2**32 - 5) * (2**32 - 17)):
        assert not _is_prime(c), c
    for p in (2**64, 10**30 + 57):
        with pytest.raises(ValueError, match=f"p = {p} is not below 2"):
            _is_prime(p)
    with pytest.raises(ValueError, match=f"p = {10**30 + 57}"):
        TestFunction(1, 10**30 + 57, 4)


def test_table_normalization():
    f = TestFunction(1, 3, 4, {(5,): 2, (1,): -2, (3,): 1})
    assert f.values == {(3,): 1}  # 5 = 1 mod 4 cancels
    assert value_at(f, (7,)) == 1
    assert value_at(f, (-1,)) == 1


def test_act_examples():
    f = TestFunction(2, 3, 2, {(1, 0): 1})
    ident = [[1, 0], [0, 1]]
    assert act(f, ident).values == f.values
    g = [[1, 2], [2, 5]]  # congruent to I mod 2, det 1
    assert act(f, g).values == f.values
    with pytest.raises(NotUnimodular):
        act(TestFunction(1, 3, 4, {(1,): 1}), [[-1]])


def test_stabilizes():
    f = TestFunction(2, 3, 2, {(1, 0): 1})
    assert stabilizes(f, [[1, 0], [0, 1]])
    rot = [[0, -1], [1, 0]]  # moves the support to (0, 1) mod 2
    assert not stabilizes(f, rot)
    assert act(f, rot).values == {(0, 1): 1}


def test_stabilizes_matches_the_full_pullback():
    # g is a congruence element, which fixes every f, or a random element
    # of SL_n(Z); f is random, or a sum of indicator functions of orbits of
    # g mod M, which g fixes
    rng = random.Random(1307)
    verdicts = {True: 0, False: 0}
    for n, M in product((2, 3), (2, 3, 4, 5)):
        for trial in range(12):
            if trial % 3 == 0:
                g = random_congruence_element(n, M, rng.randrange(10**6))
            else:
                g = linalg.identity(n)
                for _ in range(rng.randint(1, 4)):
                    i, j = rng.sample(range(n), 2)
                    elem = [list(row) for row in linalg.identity(n)]
                    elem[i][j] = rng.randint(-3, 3)
                    g = linalg.int_mat(linalg.mat_mul(g, elem))
            seeds = {tuple(rng.randrange(M) for _ in range(n)): rng.choice((-2, -1, 1, 2))
                     for _ in range(rng.randint(1, 3))}
            table = {}
            for r, c in seeds.items():
                if trial % 2:
                    table[r] = table.get(r, 0) + c
                    continue
                x = r
                while True:
                    table[x] = table.get(x, 0) + c
                    x = tuple(a % M for a in linalg.mat_vec(g, x))
                    if x == r:
                        break
            f = TestFunction(n, 7, M, table)
            expected = act(f, g).values == f.values
            assert stabilizes(f, g) == expected, (n, M, g, table)
            verdicts[expected] += 1
    assert min(verdicts.values()) > 20, verdicts
    with pytest.raises(NotUnimodular):
        stabilizes(TestFunction(2, 3, 4, {(1, 0): 1}), [[0, 1], [1, 0]])


def test_line_slice_examples():
    f = TestFunction(2, 3, 2, {(1, 0): 1})
    s = line_slice(f, (0, 1), (1, 0))
    assert s == SliceFunction(level=2, values=(1, 0))
    f1 = TestFunction(1, 3, 4, {(1,): 1})
    const = line_slice(f1, (4,), (1,))
    assert const.values == (1, 1, 1, 1)  # period divides 1 after reduction
    zero = TestFunction(1, 3, 4, {})
    assert line_slice(zero, (1,), (0,)).values == (0, 0, 0, 0)
    with pytest.raises(DependentInput):
        line_slice(f1, (0,), (0,))


def test_haar_examples():
    assert haar(SliceFunction(1, (1,))) == 1
    assert haar(SliceFunction(4, (0, 1, 0, 0))) == F(1, 4)
    assert haar(SliceFunction(4, (0, 1, 0, -1))) == 0
    # unchanged when the level is replaced by a multiple
    assert haar(SliceFunction(2, (1, 0))) == haar(SliceFunction(4, (1, 0, 1, 0)))


def test_check_vh_examples():
    f = TestFunction(1, 3, 4, {(1,): 1, (3,): -1})
    assert check_vh(f, (1,))
    assert not check_vh(TestFunction(1, 3, 4, {(1,): 1}), (1,))
    f2 = TestFunction(2, 3, 4, {(1, 0): 1, (3, 0): -1})
    assert check_vh(f2, (1, 0))
    assert not check_vh(f2, (0, 1))
    # positive rescaling of the ray does not change the verdict
    assert check_vh(f2, (F(1, 2), F(0)))


def test_levels_past_the_old_walk_budget_get_exact_verdicts():
    # both tests read only the support, so levels whose residue walks were
    # once refused (over 10**6 residues) are decided exactly
    big = 10**6 + 1
    assert not check_vh(TestFunction(1, 3, big, {(1,): 1}), (1,))
    assert check_vh(TestFunction(1, 3, big, {(1,): 1, (10**6,): -1}), (1,))
    # two support residues at M = 2000, n = 2, where M^n = 4 * 10**6
    sparse = TestFunction(2, 3, 2000, {(1, 0): 1, (2, 0): -1})
    assert check_vh(sparse, (1, 0)) and not check_vh(sparse, (0, 1))
    assert stabilizes(sparse, linalg.identity(2))
    assert stabilizes(sparse, [[1, 2000], [0, 1]])
    assert not stabilizes(sparse, [[0, -1], [1, 0]])
    assert stabilizes(TestFunction(2, 3, 1001, {}), linalg.identity(2))


@pytest.mark.parametrize("M", [10**6 + 1, 10**30])
def test_check_vh_at_huge_sparse_levels(M):
    # f = delta_w - delta_{w + k s} telescopes along s, so the hypothesis
    # holds on the ray of s; a ray t off that line, with every 2x2 minor of
    # k s and t below M, puts the two residues on different slices, where
    # f sums to 1 and -1; delta_w alone fails on every ray
    rng = random.Random(M % 997)
    checked = 0
    for n in (1, 2, 3):
        while checked < 25 * n:
            s, t = ([rng.randint(-3, 3) for _ in range(n)] for _ in range(2))
            if not any(s) or not any(t):
                continue
            s = linalg.primitive_vector(s)
            w = tuple(rng.randrange(M) for _ in range(n))
            k = rng.randint(1, 5)
            f = TestFunction(n, 3, M, {w: 1, tuple(a + k * b for a, b in zip(w, s)): -1})
            assert check_vh(f, s) and check_vh(f, [F(x, 2) for x in s])
            assert check_vh(f, [-x for x in s])
            assert not check_vh(TestFunction(n, 3, M, {w: 1}), t)
            if any(s[i] * t[j] != s[j] * t[i] for i in range(n) for j in range(i)):
                assert not check_vh(f, t)
            checked += 1


def test_check_vh_matches_the_slice_loop():
    rng = random.Random(4242)
    verdicts = {True: 0, False: 0}
    for n, M in product((1, 2, 3), (2, 3, 4, 5)):
        for _ in range(12):
            table = {r: rng.randint(-2, 2) for r in product(range(M), repeat=n)
                     if rng.random() < 0.5}
            ray = tuple(rng.randint(-3, 3) for _ in range(n))
            if not any(ray):
                ray = (1,) + ray[1:]
            if rng.random() < 0.5:
                # difference along the ray, so that its slices telescope
                prim = linalg.primitive_vector(ray)
                diff = {}
                for r, w in table.items():
                    diff[r] = diff.get(r, 0) + w
                    shifted = tuple((a + b) % M for a, b in zip(r, prim))
                    diff[shifted] = diff.get(shifted, 0) - w
                table = diff
            f = TestFunction(n, 7, M, table)
            for scale in (1, 2, F(3, 2), -1, -2):
                v = tuple(scale * x for x in ray)
                expected = vh_by_slices(f, v)
                assert check_vh(f, v) == expected, (n, M, table, v)
                verdicts[expected] += 1
    assert min(verdicts.values()) > 100, verdicts


def test_vh_brute_force_over_rational_base_points():
    # the reduction lemma: quantifying w over rationals with small
    # denominators gives the same verdict as the residue sweep
    rng = random.Random(23)
    for trial in range(6):
        n, M = (1, 4) if trial % 2 else (2, 2)
        table = {}
        for r in product(range(M), repeat=n):
            w = rng.randint(-1, 1)
            if w:
                table[r] = w
        f = TestFunction(n, 3, M, table)
        v = (1,) * n if n == 1 else (1, 0)
        verdict = check_vh(f, v)
        brute = True
        denoms = [F(a, d) for d in (1, 2, 3, 4) for a in range(-d, 2 * d)]
        for w in product(denoms[:8], repeat=n):
            if rational_slice_haar(f, v, w) != 0:
                brute = False
                break
        assert verdict == brute


def test_haar_translation_invariance():
    rng = random.Random(31)
    table = {
        r: rng.randint(-2, 2) for r in product(range(4), repeat=2)
    }
    f = TestFunction(2, 5, 4, table)
    v = (1, 2)
    for _ in range(20):
        w = (rng.randint(-5, 5), rng.randint(-5, 5))
        shifted = tuple(a + b for a, b in zip(w, v))
        assert haar(line_slice(f, v, w)) == haar(line_slice(f, v, shifted))


def test_vh_stable_under_stabilizer():
    f = TestFunction(2, 3, 4, {(1, 0): 1, (3, 0): -1, (1, 1): 1, (3, 1): -1,
                               (1, 2): 1, (3, 2): -1, (1, 3): 1, (3, 3): -1})
    assert check_vh(f, (1, 0))
    for seed in range(10):
        g = random_congruence_element(2, 4, seed)
        assert stabilizes(f, g)
        image_ray = linalg.mat_vec(g, (1, 0))
        assert check_vh(f, image_ray)


def test_act_is_right_action_and_preserves_mean():
    rng = random.Random(37)
    table = {r: rng.randint(-2, 2) for r in product(range(4), repeat=2)}
    f = TestFunction(2, 3, 4, table)
    total = sum(f.values.values())
    for seed in range(8):
        g = random_congruence_element(2, 4, seed)
        h = random_congruence_element(2, 4, seed + 100)
        for m in (g, h):
            assert linalg.det(m) == 1
            assert all((m[i][j] - (i == j)) % f.M == 0 for i in range(2) for j in range(2))
        lhs = act(act(f, g), h)
        rhs = act(f, linalg.int_mat(linalg.mat_mul(g, h)))
        assert lhs.values == rhs.values
        assert sum(act(f, g).values.values()) == total


def test_random_congruence_element_contract():
    moved = 0
    for seed in range(12):
        g = random_congruence_element(2, 4, seed)
        assert g == random_congruence_element(2, 4, seed)
        assert linalg.det(g) == 1
        for i in range(2):
            for j in range(2):
                assert (g[i][j] - (1 if i == j else 0)) % 4 == 0
        moved += g != ((1, 0), (0, 1))
    # the draws are not all the identity, so the congruence check can fail
    assert moved >= 6


def test_json_round_trip():
    f = TestFunction(1, 3, 4, {(1,): 1, (3,): -1})
    assert from_json(to_json(f)).values == f.values
    with pytest.raises(SchemaError):
        from_json({"n": 1, "p": 3})
    with pytest.raises(SchemaError):
        from_json({"n": 1, "p": 3, "M": 4, "terms": [{"residue": ["x"], "weight": 1}]})


@pytest.mark.parametrize("build, field, bad, good", [
    (lambda v: {"n": 2, "p": 3, "M": 4, "terms": v}, "terms", {},
     [{"residue": [1, 0], "weight": 1}]),
    (lambda v: {"n": 2, "p": 3, "M": 4, "terms": [{"residue": v, "weight": 1}]}, "residue",
     "10", [1, 0]),
    (lambda v: {"n": 2, "p": 3, "M": 4, "terms": [{"residue": v, "weight": 1}]}, "residue",
     {"1": 0, "0": 0}, [1, 0]),
], ids=["terms", "residue-string", "residue-object"])
def test_from_json_reads_arrays_only(build, field, bad, good):
    # a string or an object where the schema has an array is refused naming
    # the field, not read one character or one key at a time
    assert from_json(build(good)).values == {(1, 0): 1}
    with pytest.raises(SchemaError) as err:
        from_json(build(bad))
    assert str(err.value) == f"{field} must be a JSON array, got {bad!r}"
