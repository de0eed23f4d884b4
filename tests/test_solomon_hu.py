import random
import tracemalloc
from fractions import Fraction as F
from itertools import chain, product
from math import prod

import pytest

from shintani import linalg, solomon_hu
from shintani.cones import ConeFunction, OpenCone
from shintani.errors import NotUnimodular, SchemaError
from shintani.solomon_hu import (
    GroupAlgebraElement,
    PseudoMeasure as PM,
    _cell,
    _pack,
    _unpack,
    _width,
    act_pm,
    pair_cone_function,
    pair_open_cone,
    pm_eq,
    pm_is_integer_constant,
    pm_sum,
    pm_to_json,
    pm_from_json,
    pm_zero,
)
from shintani.testfunctions import TestFunction, random_congruence_element

import oracles
from oracles import (
    CF,
    GA,
    NonPositiveDenominator,
    Wedge,
    _solve_coords,
    act,
    act_on_cone_function,
    brute_cell_points,
    brute_cone_lattice_points,
    enumerate_fundamental_domain,
    inverse,
    pm_constant,
    pm_mul,
    rank_by_minors,
    slice_identity_check,
    truncated_q_expansion,
    value_at,
    wedge_decompose,
)


def d(*v):
    return GA.delta(v)


def test_group_algebra_ring_axioms():
    a = d(1) + d(2).scale(3)
    assert a * GA.one(1) == a
    assert d(1) * d(2) == d(3)
    assert (d(1) - d(1)) == GA.zero()
    assert not GA.zero()


def test_pm_add_examples():
    a = PM(d(1), ((2,),))
    assert pm_eq(pm_sum([(1, a), (1, pm_zero())]), a)
    prod = pm_mul(a, PM(GA.one(1) - d(2), ()))
    assert pm_eq(prod, PM(d(1), ()))
    two_rays = pm_sum([(1, PM(GA.one(1), ((2,),))), (1, PM(GA.one(1), ((-2,),)))])
    assert pm_eq(two_rays, pm_constant(1, 1))


def test_pm_eq_examples():
    assert pm_eq(PM(d(1), ((2,),)), PM(d(1) + d(3), ((4,),)))
    assert not pm_eq(PM(d(1), ()), PM(d(2), ()))
    a = PM(d(1) + d(5).scale(-2), ((3,), (4,)))
    assert pm_eq(a, a)


def _random_pm(rng, n, pool):
    """A pseudo-measure over factors drawn with repetition from pool, with a
    zero numerator now and then."""
    den = tuple(sorted(rng.choice(pool) for _ in range(rng.randint(0, 3))))
    if rng.random() < 0.15:
        return pm_zero() if rng.random() < 0.5 else PM(GA.zero(), den or (pool[0],))
    num = GA({tuple(rng.randint(-2, 2) for _ in range(n)): rng.choice((1, -1, 2, F(1, 2)))
              for _ in range(rng.randint(1, 4))})
    return PM(num, den)


def _same_value(rng, a, pool):
    """a written over one more denominator factor."""
    if not a.num:
        return a
    u = rng.choice(pool)
    return PM(a.num * (GA.one(len(u)) - GA.delta(u)), tuple(sorted(a.den + (u,))))


def test_pm_sum_matches_the_pairwise_fold():
    # pm_sum must print exactly what the left fold of pm_add prints, down to
    # the fold's denominator after a prefix that sums to zero
    rng = random.Random(2027)
    coeffs = (1, -1, 2, -3, 0, F(1, 2), F(-3, 4))
    cases = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        pool = [v for v in (tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(3)) if any(v)]
        pool = pool or [(1,) * n]
        pms = [_random_pm(rng, n, pool) for _ in range(rng.randint(1, 5))]
        a, b = pms[0], pms[-1]
        lists = [
            [(rng.choice(coeffs), x) for x in pms],
            [(1, a), (-1, a), (1, b)],
            [(1, a), (-1, _same_value(rng, a, pool)), (1, b)],
            [(1, a), (-1, a)],
            [(F(1, 2), a), (F(-1, 2), a), (2, b), (-2, b)],
            [(1, a), (-1, a), (1, pm_zero())],
            [(1, a), (-1, a), (1, PM(GA.zero(), (pool[-1],)))],
            [(1, pm_zero()), (3, b), (0, a)],
            [(0, a)],
            [],
        ]
        for terms in lists:
            assert pm_to_json(pm_sum(terms)) == pm_to_json(oracles.pm_fold(terms)), terms
            cases += 1
        for x, y in ((a, b), (a, a), (a, _same_value(rng, a, pool)), (a, pm_zero())):
            assert pm_eq(x, y) == oracles.pm_eq_cross(x, y) == (not oracles.pm_fold([(1, x), (-1, y)]).num)
    assert cases == 3000


def test_pm_sum_adds_a_zero_prefix_once(monkeypatch):
    # a last zero prefix of zero summands adds nothing, so the first pass
    # is the sum; a prefix of nonzero summands that cancel needs a second
    calls = []
    accumulate = solomon_hu._accumulate
    monkeypatch.setattr(solomon_hu, "_accumulate", lambda t: calls.append(t) or accumulate(t))
    a = PM(GA({(1, 0): 1, (0, 2): -3}), ((1, 1),))
    b = PM(GA({(2, 1): 2}), ((0, 1), (1, 0)))
    for terms, passes in (([(1, pm_zero()), (1, a)], 1), ([(0, b), (1, a)], 1),
                          ([(1, a), (-1, a), (1, b)], 2)):
        calls.clear()
        total = pm_sum(terms)
        assert len(calls) == passes, terms
        assert pm_to_json(total) == pm_to_json(oracles.pm_fold(terms))


def test_packed_keys_sort_as_tuples_and_round_trip():
    # signed digits |v_i| < 2^(W-1): the ints sort as the tuples do, and
    # unpacking inverts packing up to the extreme digits
    rng = random.Random(2029)
    for W in (64, 128):
        top = (1 << (W - 1)) - 1
        digits = (-top, -top + 1, -1, 0, 1, top - 1, top)
        for n in (1, 2, 3):
            vs = list(product((-top, 0, top), repeat=n)) + [
                tuple(rng.choice(digits) if rng.random() < 0.5 else rng.randint(-top, top)
                      for _ in range(n)) for _ in range(300)]
            keys = [_pack(v, W) for v in vs]
            assert [_unpack(k, n, W) for k in keys] == vs
            assert [_unpack(k, n, W) for k in sorted(keys)] == sorted(vs)
            u, v = (tuple(rng.randint(-top // 2, top // 2) for _ in range(n)) for _ in "uv")
            assert _pack(u, W) + _pack(v, W) == _pack(map(sum, zip(u, v)), W)


def test_pack_refuses_a_digit_past_its_width():
    # the negative control of the bound check: 2^(W-1) does not fit W bits
    for W in (64, 128):
        half = 1 << (W - 1)
        for x in (half, -half):
            with pytest.raises(OverflowError):
                _pack((0, x), W)
        assert _width(half - 1) == W and _width(half) == W + 64
    wide = GroupAlgebraElement({(1, 1 << 63): 2, (0, -3): 1})
    assert (wide.W, wide.bound) == (128, 1 << 63)
    assert dict(wide.terms) == {(1, 1 << 63): 2, (0, -3): 1}
    with pytest.raises(TypeError):
        wide.terms[(0, 0)] = 1  # the tuple view is read-only


def _built_clean(a: PM) -> bool:
    """Whether a's packed numerator holds no zero and no integral Fraction,
    and its denominator is sorted with no zero vector."""
    return (all(c and (type(c) is int or c.denominator != 1) for c in a.num.packed.values())
            and list(a.den) == sorted(a.den) and all(any(u) for u in a.den))


def test_results_are_built_clean():
    # nothing cleans a result after it is built: every pm_sum, pairing and
    # act_pm result must already hold its numerator and denominator clean,
    # on sums that cancel terms and add halves to integers
    rng = random.Random(2033)
    coeffs = (1, -1, 2, -3, 0, F(1, 2), F(-3, 4))
    sums = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        pool = [v for v in (tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(3)) if any(v)]
        pool = pool or [(1,) * n]
        pms = [_random_pm(rng, n, pool) for _ in range(rng.randint(1, 5))]
        a, b = pms[0], pms[-1]
        for terms in ([(rng.choice(coeffs), x) for x in pms],
                      [(F(1, 2), a), (F(1, 2), a), (1, b)],
                      [(1, a), (-1, _same_value(rng, a, pool)), (F(-1, 2), b), (1, a)]):
            assert _built_clean(pm_sum(terms)), terms
            sums += 1
    assert sums == 900
    pairs = 0
    for n, M in ((1, 4), (2, 2), (2, 4), (3, 2)):
        for seed in range(8):
            f = TestFunction(n, 3, M, {r: rng.randint(-2, 2) for r in product(range(M), repeat=n)})
            gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
            if linalg.det(gens) == 0:
                continue
            k = CF.of(OpenCone(tuple(gens))) + CF.of(OpenCone((gens[0],)), -1)
            g = random_congruence_element(n, M, seed)
            for pm in (pair_open_cone(OpenCone(tuple(gens)), f), pair_cone_function(k, f)):
                assert _built_clean(pm) and _built_clean(act_pm(g, pm)), (gens, seed)
                pairs += 1
    assert pairs >= 40


def test_pm_sum_across_widths_matches_the_fold():
    # summands at W = 64 and W = 128 meet in one sum: each is re-packed to
    # the sum's width, and the result prints what the pairwise fold prints
    rng = random.Random(2031)
    big = 1 << 70
    widths = set()
    for _ in range(150):
        n = rng.randint(1, 3)
        pool = [v for v in (tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(3)) if any(v)]
        pool = (pool or [(1,) * n]) + [tuple(rng.choice((-big, big)) for _ in range(n))]
        pms = []
        for _ in range(rng.randint(2, 4)):
            a = _random_pm(rng, n, pool)
            if a.num and rng.random() < 0.5:
                a = PM(a.num * GA.delta([rng.choice((-big, big)) for _ in range(n)]), a.den)
            pms.append(a)
            widths.add(a.num.W)
        terms = [(rng.choice((1, -1, 2, F(1, 2))), x) for x in pms]
        assert pm_to_json(pm_sum(terms)) == pm_to_json(oracles.pm_fold(terms)), terms
        x, y = pms[0], pms[-1]
        for a, b in ((x, y), (x, _same_value(rng, x, pool))):
            assert pm_eq(a, b) == oracles.pm_eq_cross(a, b)
    assert widths == {64, 128}


def test_a_huge_ray_pairs_at_a_wider_digit():
    big = 10**30
    f = TestFunction(2, 3, 4, {(1, j): 1 for j in range(4)}
                     | {(3, j): -1 for j in range(4)})
    a = pair_open_cone(OpenCone(((F(1), F(big)),)), f)
    assert a.num.W == 128 and a.den == ((4, 4 * big),)
    assert [t["vector"] for t in pm_to_json(a)["numerator"]] == [[1, big], [3, 3 * big]]
    assert pm_eq(act_pm([[1, 0], [-big, 1]], a), PM(d(1, 0) - d(3, 0), ((4, 0),)))
    # at level 1 the unimodular cell of (1, big) and (-1, 1 - big) is the one
    # point (0, 1): its digits stay narrow, and no generator is packed at them
    const = TestFunction(2, 3, 1, {(0, 0): 2})
    one = pair_open_cone(OpenCone(((1, big), (-1, 1 - big))), const)
    assert one.num.W == 64 and dict(one.num.terms) == {(0, 1): 2}


def test_pm_is_integer_constant():
    assert pm_is_integer_constant(pm_zero()) == 0
    assert pm_is_integer_constant(pm_constant(1, 2)) == 2
    ray_sum = pm_sum(
        [(1, PM(d(1), ((1,),))), (1, PM(d(-1), ((-1,),))), (1, pm_constant(1, 1))]
    )
    assert pm_is_integer_constant(ray_sum) == 0
    assert pm_is_integer_constant(PM(d(1), ((2,),))) is None
    assert pm_is_integer_constant(PM(GA.one(1).scale(F(1, 2)), ())) is None
    # (1 - delta_1)^2 (1 - delta_2) has no delta_2 term: the two that meet
    # there cancel, and the denominator product must drop the zero
    den = ((1,), (1,), (2,))
    assert pm_is_integer_constant(PM(oracles.denominator_product(den, 1).scale(3), den)) == 3


def test_integer_coefficients():
    assert type(pm_is_integer_constant(pm_constant(1, F(4, 2)))) is int
    for num in (d(0).scale(F(1, 2)) + d(1), d(0).scale(3) + d(1).scale(F(1, 2))):
        # the anchor ratio is not an integer, and no float may leak out
        assert pm_is_integer_constant(PM(num, ((1,),))) is None
    assert pm_is_integer_constant(PM(d(0).scale(6) - d(1).scale(6), ((1,),))) == 6
    b = pm_from_json({"numerator": [{"vector": [0], "coeff": "1/2"},
                                    {"vector": [1], "coeff": "4/2"}], "denominator": []})
    assert b.num.terms == {(0,): F(1, 2), (1,): 2}
    assert type(b.num.terms[(0,)]) is F and type(b.num.terms[(1,)]) is int
    half = d(0).scale(F(1, 2))
    assert all(type(c) is int for c in (half + half).terms.values())
    assert all(type(c) is int for c in (half * d(1).scale(4) - d(2)).terms.values())


def test_pairing_memo():
    rng = random.Random(77)
    checked = 0
    for n, M in ((2, 4), (3, 2), (3, 4)):
        table = {r: rng.randint(-2, 2) for r in product(range(M), repeat=n)}
        f = TestFunction(n, 3, M, table)
        other = TestFunction(n, 3, M, {r: w + 1 for r, w in table.items()})
        for _ in range(10):
            rank = rng.randint(0, n)
            gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rank)]
            if rank_by_minors(gens or [[0] * n]) != rank:
                continue
            first = pair_open_cone(OpenCone(tuple(gens)), f)
            assert all(type(c) is int for c in first.num.terms.values())
            shuffled = [tuple(scale * x for x in g) for g, scale in zip(
                rng.sample(gens, rank), (F(rng.randint(1, 3), rng.randint(1, 3)) for _ in gens))]
            hit = pair_open_cone(OpenCone(tuple(shuffled)), f)
            assert hit is first
            fresh = pair_open_cone(OpenCone(tuple(shuffled)), TestFunction(n, 3, M, table))
            assert fresh is not first and pm_to_json(fresh) == pm_to_json(first)
            mine = pair_open_cone(OpenCone(tuple(gens)), other)
            fresh_other = pair_open_cone(OpenCone(tuple(gens)), TestFunction(n, 3, M, other.values))
            assert mine is not first and pm_to_json(mine) == pm_to_json(fresh_other)
            checked += 1
    assert checked >= 20


def test_act_pm():
    a = PM(d(1, 0), ((0, 1),))
    ident = [[1, 0], [0, 1]]
    assert pm_eq(act_pm(ident, a), a)
    g = [[1, 1], [0, 1]]
    moved = act_pm(g, a)
    assert moved.num == d(1, 0)
    assert moved.den == ((1, 1),)
    g_inv = linalg.int_mat(inverse(g))
    assert pm_eq(act_pm(g_inv, moved), a)
    for bad in ([[0, 1], [1, 0]], [[2, 0], [0, 1]]):  # det -1 and det 2
        with pytest.raises(NotUnimodular, match="^pseudo-measure action requires determinant 1$"):
            act_pm(bad, a)
    # the zero pseudo-measure has no vector to read a dimension off
    assert a.dim == 2
    with pytest.raises(ValueError, match="^dimension of the zero pseudo-measure is ambiguous$"):
        pm_zero().dim


def test_enumerate_fundamental_domain_examples():
    assert enumerate_fundamental_domain([(2, 0), (0, 2)], 2) == [
        (1, 1), (1, 2), (2, 1), (2, 2),
    ]
    pts = enumerate_fundamental_domain([(1, 1), (-1, 1)], 2)
    assert pts == brute_cell_points([(1, 1), (-1, 1)], 2)
    assert pts == [(0, 1), (0, 2)]
    assert enumerate_fundamental_domain([(1,)], 1) == [(1,)]


def test_enumerate_fundamental_domain_counts():
    rng = random.Random(13)
    done = 0
    while done < 25:
        n = rng.randint(1, 3)
        ws = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        det = linalg.det(ws)
        if det == 0:
            continue
        pts = enumerate_fundamental_domain(ws, n)
        assert len(pts) == abs(det)
        assert pts == brute_cell_points(ws, n)
        done += 1


def test_enumerate_fundamental_domain_sublattice():
    # r < n runs inside the saturation of the span
    pts = enumerate_fundamental_domain([(2, 2)], 2)
    assert pts == [(1, 1), (2, 2)]
    assert pts == brute_cell_points([(2, 2)], 2)


def test_pairing_kernel_matches_a_box_scan():
    # cones of every rank 0..n, n <= 4, with generator entries in [-3, 3],
    # at levels whose residue digits are R = 3, 4, 5 and 6 bits wide; each
    # f pairs a cone of each rank through its one table of packed residues.
    # The numerator is f over a bounding-box scan of the cell, and the bound
    # is the one the tuple enumeration of the lifts gives
    rng = random.Random(61)
    levels, seen = (1, 2, 3, 4, 5, 7, 8, 9), set()
    for M in levels:
        for n in range(1, 5):
            table = {r: rng.choice((-2, -1, 1, 3)) for r in product(range(M), repeat=n)
                     if rng.random() < 0.6}
            f = TestFunction(n, 11, M, table or {(0,) * n: 1})
            for r in range(n + 1):
                for _draw in range(40):  # a third of the entries 0, so full-rank cells stay small
                    gens = [tuple(rng.choice((0, 0, 0, -3, -2, -1, 1, 2, 3)) for _ in range(n))
                            for _ in range(r)]
                    periods = sorted(tuple(M * x for x in linalg.primitive_vector(g)) for g in gens
                                     if any(g))
                    if len(periods) == r and (not r or rank_by_minors(gens) == r) and prod(
                            sum(abs(w[j]) for w in periods) + 1 for j in range(n)) <= 1000:
                        break
                else:
                    continue  # no cell of this rank small enough for the scan
                pm = pair_open_cone(OpenCone(tuple(gens)), f)
                want = {v: c for v in brute_cell_points(periods, n) if (c := value_at(f, v))}
                assert dict(pm.num.terms) == want
                assert pm.den == (tuple(periods) if want else ())
                if want:
                    base, steps = _cell(periods, n)
                    lifts = oracles.cell_lifts(steps, n)
                    assert pm.num.bound == max(map(abs, chain(*base))) + max(map(abs, chain(*lifts)))
                    assert pm.num.W == _width(pm.num.bound)
                seen.add((M, n, r))
    assert {(n, r) for _M, n, r in seen} == {(n, r) for n in range(1, 5) for r in range(n + 1)}
    assert all({(n, r) for m, n, r in seen if m == M} >= {(4, 0), (4, 1), (4, 2)} for M in levels)


def test_a_dense_step_function_pairs_in_little_memory():
    # every residue of (Z/2)^10 weighted on the unit cone: the cell of the
    # periods 2 e_i is {1, 2}^10. The pairing's memory is the cell's, far
    # below the 84 MB that a table of |support| * 2^n = 2^20 residue keys takes
    n = 10
    f = TestFunction(n, 3, 2, {r: 1 + sum(r) % 3 for r in product(range(2), repeat=n)})
    units = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    tracemalloc.start()
    try:
        pm = pair_open_cone(OpenCone(units), f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dict(pm.num.terms) == {v: value_at(f, v) for v in product((1, 2), repeat=n)}
    assert pm.den == tuple(sorted(tuple(2 * x for x in u) for u in units))
    assert peak < 8 * 2**20


def test_pair_open_cone_examples():
    cone = OpenCone(((F(1),),))
    const = TestFunction(1, 3, 1, {(0,): 1})
    assert pm_eq(pair_open_cone(cone, const), PM(d(1), ((1,),)))
    f = TestFunction(1, 3, 4, {(1,): 1})
    assert pm_eq(pair_open_cone(cone, f), PM(d(1), ((4,),)))
    f2 = TestFunction(1, 3, 4, {(1,): 1, (3,): -1})
    assert pm_eq(pair_open_cone(cone, f2), PM(d(1) - d(3), ((4,),)))


def test_pair_scale_invariance():
    f = TestFunction(1, 3, 4, {(1,): 1, (2,): 2})
    a = pair_open_cone(OpenCone(((F(1),),)), f)
    b = pair_open_cone(OpenCone(((F(7, 3),),)), f)
    assert pm_eq(a, b)
    g = TestFunction(2, 3, 2, {(1, 0): 1, (0, 1): -1})
    a2 = pair_open_cone(OpenCone(((F(1), F(0)), (F(1), F(1)))), g)
    b2 = pair_open_cone(OpenCone(((F(3), F(0)), (F(1, 2), F(1, 2)))), g)
    assert pm_eq(a2, b2)


def test_pair_cone_function_linearity_and_wedges():
    assert pm_eq(pair_cone_function(ConeFunction(()),
                                    TestFunction(1, 3, 4, {(1,): 1})), pm_zero())
    const = TestFunction(1, 3, 1, {(0,): 1})
    wedge_pm = pair_cone_function(wedge_decompose(Wedge(((F(1),),))), const)
    assert pm_is_integer_constant(wedge_pm) == 0
    rng = random.Random(17)
    for trial in range(10):
        table = {r: rng.randint(-2, 2) for r in product(range(2), repeat=2)}
        f = TestFunction(2, 3, 2, table)
        k1 = CF.of(OpenCone(((F(1), F(0)), (F(0), F(1)))))
        k2 = CF.of(OpenCone(((F(1), F(1)),)), rng.randint(-2, 2))
        lhs = pair_cone_function(k1 + k2, f)
        rhs = pm_sum([(1, pair_cone_function(k1, f)), (1, pair_cone_function(k2, f))])
        assert pm_eq(lhs, rhs)


def test_wedge_annihilation_random():
    rng = random.Random(19)
    done = 0
    while done < 25:
        n = rng.randint(1, 2)
        M = rng.choice((1, 2, 4))
        gens = [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n)]
        if linalg.det(linalg.int_mat(gens)) == 0:
            continue
        table = {r: rng.randint(-1, 1) for r in product(range(M), repeat=n)}
        f = TestFunction(n, 3, M, table)
        pm = pair_cone_function(wedge_decompose(Wedge(tuple(gens))), f)
        assert pm_is_integer_constant(pm) is not None
        done += 1


def test_equivariance_of_pairing():
    rng = random.Random(29)
    for seed in range(10):
        g = random_congruence_element(2, 2, seed)
        g_inv = linalg.int_mat(inverse(g))
        table = {r: rng.randint(-2, 2) for r in product(range(2), repeat=2)}
        f = TestFunction(2, 3, 2, table)
        gens = []
        while len(gens) < 2:
            cand = tuple(F(rng.randint(-2, 2)) for _ in range(2))
            if any(cand) and (not gens or linalg.det(linalg.int_mat(gens + [cand])) != 0):
                gens.append(cand)
        k = CF.of(OpenCone(tuple(gens))) + CF.of(OpenCone((gens[0],)), -1)
        lhs = pair_cone_function(act_on_cone_function(g, k), act(f, g_inv))
        rhs = act_pm(g, pair_cone_function(k, f))
        assert pm_eq(lhs, rhs)


def test_truncated_q_expansion_examples():
    e = truncated_q_expansion(PM(d(1), ((4,),)), 9, (1,))
    assert e == d(1) + d(5) + d(9)
    e2 = truncated_q_expansion(PM(d(0), ((1,),)), 3, (1,))
    assert e2 == d(0) + d(1) + d(2) + d(3)
    with pytest.raises(NonPositiveDenominator):
        truncated_q_expansion(PM(d(1), ((-1,),)), 3, (1,))


def test_truncated_q_expansion_matches_cone_scan():
    f = TestFunction(2, 3, 2, {(1, 0): 1, (0, 1): -1, (1, 1): 2})
    gens = [(1, 0), (1, 2)]
    cone = OpenCone(tuple(tuple(F(x) for x in g) for g in gens))
    pm = pair_open_cone(cone, f)
    bound = 8
    weights = (1, 1)
    expansion = truncated_q_expansion(pm, bound, weights)
    expected = {}
    for pt in brute_cone_lattice_points(gens, weights, bound):
        val = value_at(f, pt)
        if val:
            expected[pt] = F(val)
    assert expansion.terms == expected


def test_truncated_q_expansion_of_product():
    a = PM(d(1), ((2,),))
    b = PM(d(0) + d(3).scale(2), ((1,),))
    bound = 7
    lhs = truncated_q_expansion(pm_mul(a, b), bound, (1,))
    ea = truncated_q_expansion(a, bound, (1,))
    eb = truncated_q_expansion(b, bound, (1,))
    prod = ea * eb
    truncated = {v: c for v, c in prod.terms.items() if v[0] <= bound}
    assert lhs.terms == truncated


def test_slice_identity_examples():
    cone = OpenCone(((F(1),),))
    f_diff = TestFunction(1, 3, 4, {(1,): 1, (3,): -1})
    assert slice_identity_check(f_diff, cone, 0, 9)
    f_one = TestFunction(1, 3, 4, {(1,): 1})
    assert slice_identity_check(f_one, cone, 0, 9)
    f2 = TestFunction(2, 3, 2, {(1, 0): 1})
    quadrant = OpenCone(((F(1), F(0)), (F(0), F(1))))
    assert slice_identity_check(f2, quadrant, 0, 8)
    assert slice_identity_check(f2, quadrant, 1, 8)


def test_slice_identity_three_dimensional():
    rng = random.Random(53)
    table = {r: rng.randint(-1, 1) for r in product(range(2), repeat=3)}
    f = TestFunction(3, 3, 2, table)
    octant = OpenCone(tuple(tuple(F(1 if i == j else 0) for j in range(3))
                            for i in range(3)))
    for i in range(3):
        assert slice_identity_check(f, octant, i, 6)
    skew = OpenCone(((F(1), F(0), F(0)), (F(1), F(1), F(0)), (F(0), F(1), F(1))))
    for i in range(3):
        assert slice_identity_check(f, skew, i, 6)


def test_pm_json_round_trip():
    a = PM(d(1, 0) + d(0, 1).scale(F(-3, 2)), ((0, 2), (2, 0)))
    b = pm_from_json(pm_to_json(a))
    assert pm_eq(a, b)
    assert b.num.terms == a.num.terms and b.den == a.den
    # outside input is normalised where it enters: the denominator sorted,
    # a zero vector refused
    c = pm_from_json({"numerator": [], "denominator": [[2, 0], [0, 2]]})
    assert c.den == ((0, 2), (2, 0))
    with pytest.raises(SchemaError, match="denominator vector is zero"):
        pm_from_json({"numerator": [], "denominator": [[2, 0], [0, 0]]})


@pytest.mark.parametrize("build, field, bad, good", [
    (lambda v: {"numerator": v, "denominator": [[4, 0]]}, "numerator", {},
     [{"vector": [1, 2], "coeff": "1"}]),
    (lambda v: {"numerator": [{"vector": v, "coeff": "1"}], "denominator": [[4, 0]]}, "vector",
     "12", [1, 2]),
    (lambda v: {"numerator": [{"vector": v, "coeff": "1"}], "denominator": [[4, 0]]}, "vector",
     {"1": 0, "2": 0}, [1, 2]),
    (lambda v: {"numerator": [{"vector": [1, 2], "coeff": "1"}], "denominator": v},
     "denominator", {}, [[4, 0]]),
    (lambda v: {"numerator": [{"vector": [1, 2], "coeff": "1"}], "denominator": [v]},
     "denominator", "40", [4, 0]),
], ids=["numerator", "vector-string", "vector-object", "denominator", "denominator-vector"])
def test_pm_from_json_reads_arrays_only(build, field, bad, good):
    # a string or an object where the schema has an array is refused naming
    # the field, not read one character or one key at a time
    a = pm_from_json(build(good))
    assert (dict(a.num.terms), a.den) == ({(1, 2): 1}, ((4, 0),))
    with pytest.raises(SchemaError) as err:
        pm_from_json(build(bad))
    assert str(err.value) == f"{field} must be a JSON array, got {bad!r}"


def test_face_points_match_a_box_scan():
    # the points sum t_j u_j with t_j > 0 and sum t_j <= bound, for face
    # periods of index > 1 in their saturation, some of lower rank
    rng = random.Random(61)
    checked = 0
    while checked < 12:
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        periods = [tuple(2 * rng.randint(-2, 2) for _ in range(n)) for _ in range(r)]
        if rank_by_minors(periods) < r:
            continue
        bound = F(rng.randint(2, 4), 2)
        radius = int(bound * max(abs(x) for u in periods for x in u))
        expected = []
        for pt in product(range(-radius, radius + 1), repeat=n):
            t = _solve_coords(periods, pt)
            if t is not None and all(x > 0 for x in t) and sum(t) <= bound:
                expected.append(pt)
        assert oracles._face_points(periods, bound, n) == expected
        checked += 1
