import copy
import pickle
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from itertools import chain, permutations, product
from math import gcd, prod

import pytest

from shintani import linalg, solomon_hu
from shintani.amice import _coordinates
from shintani.cones import OpenCone
from shintani.errors import DependentInput, NotUnimodular, SchemaError
from shintani.solomon_hu import (
    GroupAlgebraElement,
    PseudoMeasure as PM,
    _cell,
    _pack,
    _pack_columns,
    _unpack_columns,
    _width,
    act_pm,
    pair_cone_function,
    pair_half_open,
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
    GA,
    NonPositiveDenominator,
    Wedge,
    _solve_coords,
    act,
    act_on_cone_function,
    brute_cell_points,
    brute_cone_lattice_points,
    cf_add,
    enumerate_fundamental_domain,
    inverse,
    outcome,
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


def _union(terms):
    """The sorted union, with the largest multiplicity of each factor, of the
    denominators of the nonzero summands c * a."""
    dens = [a.den for c, a in terms if c and a.num]
    return tuple(sorted(u for u in {u for den in dens for u in den}
                        for _ in range(max(den.count(u) for den in dens))))


def _assert_sum(terms):
    """pm_sum equals the left fold of pairwise sums, over the union denominator."""
    total = pm_sum(terms)
    assert pm_eq(total, oracles.pm_fold(terms)), terms
    assert total.den == _union(terms), terms
    return total


def _summand_lists(rng, pool, pms):
    a, b = pms[0], pms[-1]
    coeffs = (1, -1, 2, -3, 0, F(1, 2), F(-3, 4))
    return [
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


def _pool(rng, n):
    pool = [v for v in (tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(3)) if any(v)]
    return pool or [(1,) * n]


def test_pm_sum_matches_the_pairwise_fold():
    # pm_sum has the value of the left fold of pm_add, over the union of the
    # nonzero summands' denominators, also after a prefix that sums to zero
    rng = random.Random(2027)
    cases = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        pool = _pool(rng, n)
        pms = [_random_pm(rng, n, pool) for _ in range(rng.randint(1, 5))]
        for terms in _summand_lists(rng, pool, pms):
            _assert_sum(terms)
            cases += 1
        a, b = pms[0], pms[-1]
        for x, y in ((a, b), (a, a), (a, _same_value(rng, a, pool)), (a, pm_zero())):
            assert pm_eq(x, y) == oracles.pm_eq_cross(x, y) == (not oracles.pm_fold([(1, x), (-1, y)]).num)
    assert cases == 3000


def test_pm_sum_adds_a_zero_prefix_once(monkeypatch):
    # a prefix that sums to zero, of zero summands or of nonzero summands
    # that cancel, is read once like any other summand: one denominator
    # product per nonzero summand, and the sum's denominator is the union
    calls = []
    product_of = solomon_hu.denominator_product
    monkeypatch.setattr(solomon_hu, "denominator_product",
                        lambda den, W: calls.append(den) or product_of(den, W))
    a = PM(GA({(1, 0): 1, (0, 2): -3}), ((1, 1),))
    b = PM(GA({(2, 1): 2}), ((0, 1), (1, 0)))
    for terms, live in (([(1, pm_zero()), (1, a)], 1), ([(0, b), (1, a)], 1),
                        ([(1, a), (-1, a), (1, b)], 3), ([(1, a), (-1, a), (1, pm_zero())], 2),
                        ([(1, a), (-1, a), (1, PM(GA.zero(), ((0, 3),)))], 2)):
        calls.clear()
        pm_sum(terms)
        assert len(calls) == live, terms
        _assert_sum(terms)
    assert pm_to_json(pm_sum([(1, a), (-1, a), (1, b)])) == {
        "numerator": [{"vector": [2, 1], "coeff": "2"}, {"vector": [3, 2], "coeff": "-2"}],
        "denominator": [[0, 1], [1, 0], [1, 1]]}
    assert pm_to_json(pm_sum([(1, pm_zero()), (0, a), (1, PM(GA.zero(), ((0, 3),)))])) == \
        pm_to_json(pm_zero())


def test_pm_sum_does_not_depend_on_the_order_of_its_terms():
    # every permutation of a summand list prints the same sum, also where a
    # proper prefix cancels ([a, -a, b], [a, -a, 0]) and with Fraction
    # coefficients
    rng = random.Random(2039)
    lists = 0
    for _ in range(120):
        n = rng.randint(1, 3)
        pool = _pool(rng, n)
        pms = [_random_pm(rng, n, pool) for _ in range(rng.randint(1, 4))]
        for terms in _summand_lists(rng, pool, pms):
            printed = pm_to_json(pm_sum(terms))
            assert all(pm_to_json(pm_sum(list(t))) == printed for t in permutations(terms)), terms
            lists += 1
    assert lists == 1200


def test_packed_keys_sort_as_tuples_and_round_trip():
    # signed digits |v_i| < 2^(W-1): the ints sort as the tuples do, and the
    # column reader inverts packing up to the extreme digits, also at n = 0,
    # where every key is the empty vector
    rng = random.Random(2029)
    for W in (64, 128):
        top = (1 << (W - 1)) - 1
        digits = (-top, -top + 1, -1, 0, 1, top - 1, top)
        for n in range(5):
            vs = list(product((-top, 0, top), repeat=n)) + [
                tuple(rng.choice(digits) if rng.random() < 0.5 else rng.randint(-top, top)
                      for _ in range(n)) for _ in range(300)]
            keys = [_pack(v, W) for v in vs]
            cols = _unpack_columns(keys, n, W)
            assert cols == [list(col) for col in zip(*vs)]
            assert _pack_columns(cols, W, len(keys)) == keys
            # terms reads the vectors in packed order, so sorted keys give sorted vectors
            a = GroupAlgebraElement._of(dict.fromkeys(sorted(keys), 1), n, W, top)
            assert list(a.terms) == sorted(set(vs)) and a.columns() == [list(c) for c in zip(*a.terms)]
            u, v = (tuple(rng.randint(-top // 2, top // 2) for _ in range(n)) for _ in "uv")
            assert _pack(u, W) + _pack(v, W) == _pack(map(sum, zip(u, v)), W)
    assert GroupAlgebraElement({(): 3}).terms == {(): 3}
    assert GroupAlgebraElement({(): 3}).columns() == []
    assert GroupAlgebraElement().terms == {} and not GroupAlgebraElement()


def test_pack_refuses_a_digit_past_its_width():
    # the negative control of the bound check: 2^(W-1) does not fit W bits,
    # and widths step by 16 bits
    for W in (16, 64, 128):
        half = 1 << (W - 1)
        for x in (half, -half):
            with pytest.raises(OverflowError):
                _pack((0, x), W)
        assert _width(half - 1) == W and _width(half) == W + 16
    wide = GroupAlgebraElement({(1, 1 << 63): 2, (0, -3): 1})
    assert (wide.W, wide.bound) == (80, 1 << 63)
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
        pool = _pool(rng, n)
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
            k = cf_add({OpenCone(tuple(gens)): 1}, {OpenCone((gens[0],)): -1})
            g = random_congruence_element(n, M, seed)
            for pm in (pair_open_cone(OpenCone(tuple(gens)), f), pair_cone_function(k, f)):
                assert _built_clean(pm) and _built_clean(act_pm(g, pm)), (gens, seed)
                pairs += 1
    assert pairs >= 40


def test_pm_sum_across_widths_matches_the_fold():
    # summands at W = 16 and W = 80 meet in one sum: each is re-packed to
    # the sum's width, and the result has the pairwise fold's value over
    # the union denominator
    rng = random.Random(2031)
    big = 1 << 70
    widths, mixed = set(), 0
    for _ in range(150):
        n = rng.randint(1, 3)
        pool = _pool(rng, n) + [tuple(rng.choice((-big, big)) for _ in range(n))]
        pms = []
        for _ in range(rng.randint(2, 4)):
            a = _random_pm(rng, n, pool)
            if a.num and rng.random() < 0.5:
                a = PM(a.num * GA.delta([rng.choice((-big, big)) for _ in range(n)]), a.den)
            pms.append(a)
            widths.add(a.num.W)
        mixed += len({a.num.W for a in pms if a.num}) > 1
        terms = [(rng.choice((1, -1, 2, F(1, 2))), x) for x in pms]
        _assert_sum(terms)
        x, y = pms[0], pms[-1]
        for a, b in ((x, y), (x, _same_value(rng, x, pool))):
            assert pm_eq(a, b) == oracles.pm_eq_cross(a, b)
    assert widths == {16, 80} and mixed > 50


def _at_width(a: PM, W: int) -> PM:
    """a with its numerator packed at a width W >= a.num.W."""
    x = a.num
    return PM(GroupAlgebraElement._of(x._at(W), x.n, W, x.bound), a.den)


def _pm_eq_mismatches(kernel, pairs) -> list:
    return [(x, y) for x, y in pairs if kernel(x, y) != oracles.reference_pm_eq(x, y)]


def test_pm_eq_matches_its_reference():
    # on equal denominators pm_eq compares the numerators at their common
    # width, and on unequal ones it takes the difference: both agree with the
    # difference test, at mixed widths, with Fractions and empty numerators
    rng = random.Random(2043)
    pairs = []
    for _ in range(300):
        n = rng.randint(1, 3)
        pool = _pool(rng, n)
        a = _random_pm(rng, n, pool)
        if a.num and rng.random() < 0.4:  # exponents past 2^20 or 2^70
            shift = [rng.choice((-1, 1)) << rng.choice((20, 70)) for _ in range(n)]
            a = PM(a.num * d(*shift), a.den)
        empty = PM(GA.zero(), a.den or (pool[0],))
        pairs += [(a, _same_value(rng, a, pool)), (a, b := _random_pm(rng, n, pool)),
                  (a, PM(b.num, a.den)), (a, PM(a.num, b.den)),
                  (_same_value(rng, a, pool), _same_value(rng, a, pool)),
                  (empty, PM(GA.zero(), empty.den)), (pm_zero(), empty)]
        if a.num:
            v = rng.choice(list(a.num.terms))
            wide = _at_width(a, a.num.W + 16 * rng.randint(1, 4))
            pairs += [(a, wide), (wide, a), (wide, PM(GA.lift(a.num) + GA.delta(v, F(1, 2)), a.den)),
                      (a, PM(GA.zero(), a.den)), (pm_zero(), a)]
    assert _pm_eq_mismatches(pm_eq, pairs) == []
    seen = Counter((x.den == y.den, oracles.reference_pm_eq(x, y)) for x, y in pairs)
    assert min(seen[k] for k in product((True, False), repeat=2)) >= 100, seen
    mixed = [(x, y) for x, y in pairs if x.den == y.den and x.num.W != y.num.W]
    fractions = [(x, y) for x, y in pairs if any(type(c) is F for c in x.num.packed.values())]
    assert len(mixed) >= 200 and len(fractions) >= 100
    # negative controls: a dict comparison at each own width misses the wide
    # copies, and one on denominators of equal length, not equal ones, is caught
    naive = lambda x, y: x.num.packed == y.num.packed if x.den == y.den else pm_eq(x, y)
    assert len(_pm_eq_mismatches(naive, mixed)) >= 100
    lengths = lambda x, y: (pm_eq(PM(x.num, ()), PM(y.num, ())) if len(x.den) == len(y.den)
                            else pm_eq(x, y))
    assert len(_pm_eq_mismatches(lengths, pairs)) >= 100


def test_pm_sum_matches_its_reference():
    # pm_sum against the one before its first pass into an empty sum became an
    # update and a zero sum skipped the normalising pass: the same coefficients,
    # with their types, in the same order, and the same dimension, width, bound
    # and denominator, on sums with Fraction coefficients, sums that cancel to
    # zero, zero summands and first weights other than 1
    rng = random.Random(3407)
    coeffs = (1, -1, 2, -3, 0, F(1), F(1, 2), F(-3, 4))
    seen = Counter()
    for _ in range(300):
        n = rng.randint(1, 3)
        pool = _pool(rng, n)
        pms = [_random_pm(rng, n, pool) for _ in range(rng.randint(1, 5))]
        a = pms[0]
        lists = _summand_lists(rng, pool, pms) + [
            [(rng.choice(coeffs), x) for x in pms] + [(-c, x) for c, x in
                                                       [(rng.choice(coeffs), x) for x in pms]],
            [(rng.choice((-1, 2, F(1, 2), F(1))), a), (1, _same_value(rng, a, pool))]]
        for terms in lists:
            got = _packed_result(pm_sum(terms))
            assert got == _packed_result(oracles.reference_pm_sum(terms)), terms
            live = [c for c, x in terms if c and x.num]
            seen["zero" if not got[0] else "nonzero"] += 1
            seen["first weight 1" if live and live[0] == 1 else "first weight not 1"] += 1
            seen["fraction"] += any(type(c) is F for _k, _t, c in got[0])
    assert min(seen.values()) >= 300, seen


def test_summands_of_two_dimensions_are_refused_naming_both():
    # a shorter exponent would pack as if padded with leading zeros: (1, 2)
    # and (0, 1, 2) compared equal, and a 2-D summand over (1, 0) summed with
    # a 3-D one printed a 3-D numerator over a 2-D denominator
    two, three = PM(GA({(1, 2): 1}), ()), PM(GA({(0, 1, 2): 1}), ())
    with pytest.raises(ValueError, match="dimensions 2 and 3"):
        pm_eq(two, three)
    with pytest.raises(ValueError, match="dimensions 3 and 2"):
        pm_eq(three, PM(GA({(1, 2): 1}), ((1, 0),)))
    for terms in ([(1, PM(GA({(1, 2): 1}), ((1, 0),))), (1, three)],
                  [(1, three), (F(1, 2), PM(GA({(1, 2): 1}), ((1, 0),)))]):
        with pytest.raises(ValueError, match="dimensions (2 and 3|3 and 2)"):
            pm_sum(terms)
    # a zero summand has no dimension: it is accepted beside any other
    zeros = [(1, pm_zero()), (0, two), (1, PM(GA.zero(), ((1, 0),)))]
    assert pm_to_json(pm_sum([(1, three)] + zeros)) == pm_to_json(three)
    assert pm_eq(three, pm_zero()) is False and pm_eq(PM(GA.zero(), ((1, 0),)), pm_zero())


def test_a_huge_ray_pairs_at_a_wider_digit():
    big = 10**30
    f = TestFunction(2, 3, 4, {(1, j): 1 for j in range(4)}
                     | {(3, j): -1 for j in range(4)})
    a = pair_open_cone(OpenCone(((F(1), F(big)),)), f)
    assert a.num.W == 112 and a.den == ((4, 4 * big),)  # 10^30 < 2^100
    assert [t["vector"] for t in pm_to_json(a)["numerator"]] == [[1, big], [3, 3 * big]]
    assert pm_eq(act_pm([[1, 0], [-big, 1]], a), PM(d(1, 0) - d(3, 0), ((4, 0),)))
    # at level 1 the unimodular cell of (1, big) and (-1, 1 - big) is the one
    # point (0, 1): its digits stay narrow, and no generator is packed at them
    const = TestFunction(2, 3, 1, {(0, 0): 2})
    one = pair_open_cone(OpenCone(((1, big), (-1, 1 - big))), const)
    assert one.num.W == 16 and dict(one.num.terms) == {(0, 1): 2}


def test_a_pseudo_measure_is_read_only_and_equal_only_to_itself():
    # == is identity; equality of values is pm_eq
    a, b = PM(d(1), ((1,),)), PM(d(1), ((1,),))
    assert a == a and a != b and pm_eq(a, b)
    assert len({a, b}) == 2
    for name in ("num", "den"):
        with pytest.raises(AttributeError):
            setattr(a, name, b.num)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a.den == ((1,),) and pm_eq(a, b)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin is not a and pm_eq(twin, a)


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


def test_a_cone_of_the_wrong_dimension_is_refused():
    # residues of a cone in Z^3 never match the keys of a step function on
    # (Z/M)^2: the pairing refuses it, naming both lengths, instead of
    # returning zero, and refuses it again on the next call (nothing is memoised)
    f = TestFunction(2, 3, 4, {(1, 0): 1, (3, 0): -1})
    msg = "^generators of length 3 cannot pair in dimension 2$"
    for _ in range(2):
        with pytest.raises(ValueError, match=msg):
            pair_open_cone(OpenCone(((1, 0, 0), (0, 1, 0))), f)
        with pytest.raises(ValueError, match=msg):
            pair_half_open(frozenset({(1, 0, 0)}), frozenset({(1, 0, 0)}), f)
    with pytest.raises(ValueError, match="^generators of length 1 cannot pair in dimension 2$"):
        pair_half_open(frozenset({(1, 0), (1,)}), frozenset(), f)
    assert not f.pairings
    # the rank-0 cone has no generator, so it pairs in every dimension
    assert pair_open_cone(OpenCone(()), f).num.terms == {}


@pytest.mark.parametrize("prims", [{(1, 0), (0, 1), (1, 1)}, {(1, 0, 0), (0, 1, 0), (1, 1, 0)}],
                         ids=["more-than-n", "in-a-plane"])
def test_dependent_cell_generators_are_refused(prims):
    # the cell's Hermite pass finds the dependence and the pairing names it,
    # on every call, with nothing memoised
    f = TestFunction(len(min(prims)), 3, 4, {(1,) * len(min(prims)): 1})
    for _ in range(2):
        with pytest.raises(DependentInput, match="^cell generators are linearly dependent$"):
            pair_half_open(frozenset(prims), frozenset(), f)
    assert not f.pairings


@pytest.mark.parametrize("closed", [{(5, 5)}, {(1, 0), (5, 5)}, {(0, 1), (5, 5), (7, 7)}])
def test_a_closed_vector_outside_the_generators_is_refused(closed):
    # a closed vector that is not a generator used to be ignored: the open
    # cone's pairing came back and was memoised under the bad key. Now it is
    # refused, naming the (least) stray vector, on every call, and nothing is memoised
    f = TestFunction(2, 3, 4, {(1, 0): 1, (3, 1): -1, (2, 3): 2})
    prims = frozenset({(1, 0), (0, 1)})
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^closed vector \[5, 5\] is not among the generators$"):
            pair_half_open(prims, frozenset(closed), f)
    assert not f.pairings
    # the open cone and a closed generator still pair, each under its own key
    assert pair_half_open(prims, frozenset(), f).num
    assert pair_half_open(prims, frozenset({(1, 0)}), f).num
    assert set(f.pairings) == {(prims, frozenset()), (prims, frozenset({(1, 0)}))}


def test_pairing_memo():
    rng = random.Random(77)
    checked = half_open_checked = 0
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
            # the memo key is (generator set, closed subset): the open cone is
            # the empty subset, and a half-open cone on the same set is its own entry
            prims = frozenset(map(linalg.primitive_vector, gens))
            assert pair_half_open(prims, frozenset(), f) is first
            if rank:
                closed = frozenset(rng.sample(sorted(prims), rng.randint(1, rank)))
                half = pair_half_open(prims, closed, f)
                assert half is not first
                again = (frozenset(sorted(prims, reverse=True)), frozenset(sorted(closed)))
                assert again[0] is not prims and pair_half_open(*again, f) is half
                half_open_checked += 1
            checked += 1
    assert checked >= 20 and half_open_checked >= 15


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
    swapped = act_pm([[0, 1], [1, 0]], a)  # det -1 acts too
    assert (swapped.num, swapped.den) == (d(0, 1), ((1, 0),))
    assert pm_eq(act_pm([[0, 1], [1, 0]], swapped), a)
    for bad in ([[2, 0], [0, 1]], [[1, 1], [1, 1]]):  # det 2 and det 0
        with pytest.raises(NotUnimodular,
                           match="^pseudo-measure action requires determinant 1 or -1$"):
            act_pm(bad, a)
    # g must have the pseudo-measure's size, which a numerator or a
    # denominator fixes; the zero pseudo-measure with no denominator has none
    three = PM(GroupAlgebraElement({(1, 2, 3): 1}), ((1, 0, 0),))
    for b in (three, PM(GA.zero(), ((1, 0, 0),)), PM(GroupAlgebraElement({(1, 2, 3): 1}), ())):
        with pytest.raises(ValueError, match="^a 2x2 matrix cannot act in dimension 3$"):
            act_pm(g, b)
    assert pm_to_json(act_pm([[1, 0, 1], [0, 1, 0], [0, 0, 1]], three)) == {
        "numerator": [{"vector": [4, 2, 3], "coeff": "1"}], "denominator": [[1, 0, 0]]}
    assert pm_to_json(act_pm(g, pm_zero())) == pm_to_json(pm_zero())
    # the zero pseudo-measure has no vector to read a dimension off
    assert a.dim == 2
    with pytest.raises(ValueError, match="^dimension of the zero pseudo-measure is ambiguous$"):
        pm_zero().dim


def test_act_pm_and_coordinates_match_per_vector_images():
    # the column readers against one mat_vec per exponent, in packed order
    # (the order of the terms given): act_pm moves every exponent v to g v,
    # and _coordinates reads adj v for the adjugate of a's own basis
    rng = random.Random(2039)
    cases = []
    for n in (1, 2, 3, 4):
        for trial in range(25):
            top = (1 << 62) if trial % 5 == 0 else 40
            spec, count = {}, rng.randint(1, 30)
            while len(spec) < count:
                spec[tuple(rng.randint(-top, top) for _ in range(n))] = rng.choice((1, -2, 5, F(1, 3)))
            while linalg.det(rows := [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]) == 0:
                pass
            den = tuple(sorted(tuple(row) for row in rows[:rng.randint(0, n)]))
            g = random_congruence_element(n, rng.choice((1, 2, 4)), rng.randrange(10**6))
            cases.append((g, PM(GroupAlgebraElement(spec), den), spec))
    # a bound near 2^62 at W = 64 whose image under a row norm of 3 needs W = 80
    big = {(1 << 62, 1 << 62): 1, (-(1 << 62), 7): -1, (0, 1): 2}
    cases.append(([[1, 2], [0, 1]], PM(GroupAlgebraElement(big), ((0, 1),)), big))
    for g, a, spec in cases:
        assert list(a.num.terms.items()) == list(spec.items())
        moved = act_pm(g, a)
        assert list(moved.num.terms.items()) == [(linalg.mat_vec(g, v), c) for v, c in spec.items()]
        assert moved.num.columns() == [list(col) for col in zip(*moved.num.terms)]
        basis, _d, cols, cs = _coordinates(a)
        terms = list(zip(zip(*cols), cs))
        adj = linalg.adjugate(linalg.transpose(basis))[0]
        assert terms == [(linalg.mat_vec(adj, v), c) for v, c in spec.items()]
    assert (cases[-1][1].num.W, act_pm(cases[-1][0], cases[-1][1]).num.W) == (64, 80)
    assert sum(act_pm(g, a).num.W > a.num.W for g, a, _spec in cases) > 10


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
    levels, seen, closed_ranks = (1, 2, 3, 4, 5, 7, 8, 9), set(), set()
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
                # the open cone, and the cone closed at a random subset of its generators
                prims = sorted(linalg.primitive_vector(g) for g in gens)
                closed = [i for i in range(r) if rng.random() < 0.5]
                for pm, shut in ((pair_open_cone(OpenCone(tuple(gens)), f), []),
                                 (pair_half_open(frozenset(prims),
                                                 frozenset(prims[i] for i in closed), f), closed)):
                    want = {v: c for v in brute_cell_points(periods, n, shut)
                            if (c := value_at(f, v))}
                    assert dict(pm.num.terms) == want
                    assert pm.den == (tuple(periods) if want else ())
                    if want:
                        steps = oracles.cell_steps(periods)
                        base = _cell(steps, n, shut)
                        lifts = oracles.cell_lifts(steps, n)
                        assert pm.num.bound == (max(map(abs, chain(*base)))
                                                + max(map(abs, chain(*lifts))))
                        assert pm.num.W == _width(pm.num.bound)
                seen.add((M, n, r))
                closed_ranks.add((n, r, len(closed)))
    assert {(n, r) for _M, n, r in seen} == {(n, r) for n in range(1, 5) for r in range(n + 1)}
    assert all({(n, r) for m, n, r in seen if m == M} >= {(4, 0), (4, 1), (4, 2)} for M in levels)
    # at n = 4 every rank 1..4 ran with a nonempty closed subset; full and
    # proper subsets of two or more generators both ran
    assert {r for n, r, c in closed_ranks if n == 4 and c} == {1, 2, 3, 4}
    assert any(c == r > 1 for _n, r, c in closed_ranks)
    assert any(0 < c < r for _n, r, c in closed_ranks)


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


class _CountingDict(dict):
    """A residue table that counts its reads."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


def test_a_cell_reads_f_once_per_base_point_and_lift_residue():
    # the first columns of Gamma(4) elements are e_1 mod 4, so the 4^3 lifts
    # of their cell fall into 4 residue classes: its 16 base points need 64
    # reads of f, where a read per cell point makes 1024. A cell whose index 7
    # is prime to 4 has one lift per class, and a read per point.
    n, M = 3, 4
    rng = random.Random(30)
    table = {r: rng.choice((-2, -1, 0, 1, 2)) for r in product(range(M), repeat=n)}
    for prims, reads in ((((1, 0, 0), (1, 4, 0), (1, 0, 4)), 16 * 4),
                         (((1, 2, 0), (0, 1, 3), (1, 0, 1)), 7 * 64)):
        classes = {tuple(sum(k * s[t] for k, s in zip(ks, prims)) % M for t in range(n))
                   for ks in product(range(M), repeat=n)}
        assert reads == abs(linalg.det(prims)) * len(classes)
        periods = sorted(tuple(M * x for x in s) for s in prims)
        for shut in ([], [1]):
            f = TestFunction(n, 3, M, table)
            object.__setattr__(f, "residues", _CountingDict())
            closed = frozenset(tuple(x // M for x in periods[i]) for i in shut)
            pm = pair_half_open(frozenset(prims), closed, f)
            assert f.residues.gets == reads
            want = {v: c for v in brute_cell_points(periods, n, shut) if (c := value_at(f, v))}
            assert want and dict(pm.num.terms) == want


def _packed_result(a: PM) -> tuple:
    """What a kernel's result holds: coefficients with their types, in packed
    order, the dimension, width, bound and denominator."""
    x = a.num
    return [(k, type(c), c) for k, c in x.packed.items()], x.n, x.W, x.bound, a.den


def _unimodular_rows(rng, n: int) -> list[tuple[int, ...]]:
    """The rows of a random matrix in GL_n(Z): row operations, a permutation
    and sign flips applied to the identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 3) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return [tuple(rng.choice((-1, 1)) * x for x in row) for row in rows]


def test_cell_matches_its_reference():
    # the cell that solves h b = s for its basis against the one that read b off
    # u_inv: the same base points, column for column and in box order, over ranks
    # 0-4 at n <= 4 with mixed g and random closed subsets, on unimodular cells
    # (d = 1) and larger ones, and the same refusals, by type and message, of
    # dependent or zero generators and of a cell over the point budget
    rng = random.Random(3902)
    cases = []
    for n in range(1, 5):
        for r in range(n + 1):
            for draw in range(15):
                if draw % 3 == 0:  # unimodular: rows of a matrix in GL_n(Z)
                    prims = _unimodular_rows(rng, n)[:r]
                else:
                    prims = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(r)]
                if draw % 3 == 2 and r:  # the last a combination of the others, or zero
                    prims[-1] = tuple(sum(rng.randint(-2, 2) * v[j] for v in prims[:-1])
                                      for j in range(n))
                ws = [tuple(rng.randint(1, 3) * x for x in v) for v in prims]
                cases.append((ws, n, [i for i in range(r) if rng.random() < 0.5]))
    cases += [([(1000, 0), (0, 1001)], 2, [0]), ([(1, 0, 0), (1, 2000001, 0)], 3, [])]
    seen = Counter()
    for ws, n, closed in cases:
        want = outcome(lambda *args: oracles.reference_cell(*args)[0], ws, n, closed)
        assert outcome(_cell, oracles.cell_steps(ws), n, closed) == want, (ws, closed)
        seen[want[1].__name__ if want[0] == "raised" else "d = 1" if len(want[1][0]) == 1
             else "d > 1"] += 1
        seen[f"rank {len(ws)}"] += want[0] == "value"
        seen["half-open" if closed else "open"] += want[0] == "value"
    kinds = ("d = 1", "d > 1", "DependentInput", "open", "half-open")
    assert min(seen[k] for k in kinds) >= 20, seen
    assert seen["CellTooLarge"] == 2 and min(seen[f"rank {r}"] for r in range(5)) >= 10, seen


def test_pair_cell_matches_its_reference():
    # the pairing kernel against the one before primitive steps, the box-free
    # unimodular cell, the flat lifts and the column-packed residues: the same
    # packed numerator, width, bound and denominator, and the same residue
    # table, over ranks 0-4, open and half-open cells, M in {1, 2, 3, 4, 6},
    # unimodular and larger cells, with d prime to M and not
    rng = random.Random(3401)
    seen = Counter()
    for M in (1, 2, 3, 4, 6):
        for n in range(1, 5):
            f = TestFunction(n, 5, M, {r: rng.choice((-2, -1, 1, 3)) for r in
                                       product(range(M), repeat=n) if rng.random() < 0.6})
            for r in range(n + 1):
                for draw in range(8):
                    if draw % 2:  # unimodular: rows of a matrix in GL_n(Z)
                        prims = _unimodular_rows(rng, n)[:r]
                    else:
                        prims = [linalg.primitive_vector(v) for v in (
                            [rng.randint(-2, 2) for _ in range(n)] for _ in range(r)) if any(v)]
                    if len(set(prims)) < r or (r and rank_by_minors(prims) < r):
                        continue
                    h = oracles.reference_hermite(prims)[0] if r else ()
                    d = prod(h[j][j] for j in range(r))
                    if d * M ** r > 20000:
                        continue
                    closed = frozenset(s for s in prims if rng.random() < 0.5)
                    results = []
                    for kernel in (solomon_hu._pair_cell, oracles.reference_pair_cell):
                        f.residues.clear()
                        pm = kernel(frozenset(prims), closed, f)
                        results.append((_packed_result(pm), dict(f.residues)))
                    assert results[0] == results[1], (prims, closed, M)
                    seen["d = 1" if d == 1 else "gcd(d, M) = 1" if gcd(d, M) == 1
                         else "gcd(d, M) > 1"] += 1
                    seen[f"rank {r}"] += 1
                    seen["half-open" if closed else "open"] += 1
                    seen["zero" if not results[0][0][0] else "nonzero"] += 1
    assert min(seen[f"rank {r}"] for r in range(5)) >= 20, seen
    assert min(seen[k] for k in ("d = 1", "gcd(d, M) = 1", "gcd(d, M) > 1")) >= 20, seen
    assert min(seen[k] for k in ("open", "half-open", "zero", "nonzero")) >= 20, seen


def test_a_unimodular_cell_walks_no_box(monkeypatch):
    # a cell of index d = 1 has one base point, the sum of its open generators:
    # it walks no box and runs no forward substitution, for every rank 0-4,
    # open and half-open, and its points and pairings are the box scan's
    def refuse(*_args):
        raise AssertionError("a unimodular cell walked a box")

    monkeypatch.setattr(solomon_hu, "product", refuse)
    monkeypatch.setattr(linalg, "triangular_solve", refuse)
    rng = random.Random(3403)
    seen = set()
    for n in range(1, 5):
        for r in range(n + 1):
            for _ in range(6):
                while True:
                    prims = _unimodular_rows(rng, n)[:r]
                    gs = [rng.randint(1, 2) for _ in prims]
                    ws = [tuple(g * x for x in s) for g, s in zip(gs, prims)]
                    if prod(1 + sum(abs(w[j]) for w in ws) for j in range(n)) <= 3000:
                        break
                closed = [i for i in range(r) if rng.random() < 0.5]
                assert oracles.enumerate_fundamental_domain(ws, n, closed) == \
                    brute_cell_points(ws, n, closed), (ws, closed)
                M = rng.choice((1, 2))
                f = TestFunction(n, 3, M, {v: rng.choice((-1, 1, 2))
                                           for v in product(range(M), repeat=n)})
                periods = [tuple(M * x for x in s) for s in sorted(prims)]
                shut = frozenset(prims[i] for i in closed)
                pm = pair_half_open(frozenset(prims), shut, f)
                want = {v: c for v in brute_cell_points(
                    periods, n, [i for i, s in enumerate(sorted(prims)) if s in shut])
                    if (c := value_at(f, v))}
                assert dict(pm.num.terms) == want, (prims, shut, M)
                seen.add((r, bool(closed)))
    assert seen >= {(r, c) for r in range(1, 5) for c in (False, True)} | {(0, False)}


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
    assert pm_eq(pair_cone_function({}, TestFunction(1, 3, 4, {(1,): 1})), pm_zero())
    const = TestFunction(1, 3, 1, {(0,): 1})
    wedge_pm = pair_cone_function(wedge_decompose(Wedge(((F(1),),))), const)
    assert pm_is_integer_constant(wedge_pm) == 0
    rng = random.Random(17)
    for trial in range(10):
        table = {r: rng.randint(-2, 2) for r in product(range(2), repeat=2)}
        f = TestFunction(2, 3, 2, table)
        k1 = {OpenCone(((F(1), F(0)), (F(0), F(1)))): 1}
        k2 = {OpenCone(((F(1), F(1)),)): rng.randint(-2, 2)}
        lhs = pair_cone_function(cf_add(k1, k2), f)
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
        k = cf_add({OpenCone(tuple(gens)): 1}, {OpenCone((gens[0],)): -1})
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
