import random
import sys
import time
import tracemalloc
from fractions import Fraction as F
from itertools import combinations, product
from math import comb, factorial, gcd, lcm, prod
from operator import mul

import pytest

from shintani import amice, linalg
from shintani.amice import (
    _bernoulli,
    _coordinates,
    extend_denominator_basis,
    is_measure_amice,
    is_measure_vh,
    moment_table,
)
from shintani.cones import OpenCone
from shintani.errors import DependentInput, NonUnitDenominator, NotAMeasure
from shintani.solomon_hu import PseudoMeasure as PM, pair_open_cone, pm_zero
from shintani.testfunctions import TestFunction

from oracles import (
    GA,
    ball_values,
    bernoulli_moments,
    bernoulli_numbers,
    coset_lattice,
    coset_rep,
    denominator_product,
    fraction_moment_table,
    hermite_box,
    hurwitz_zeta_neg,
    line_moment,
    outcome,
    rank_by_minors,
    reference_hermite,
    reference_moment_table,
)


def moment(pm, p, kk):
    """The single moment of order kk, read off the table of total sum(kk)."""
    return dict(moment_table(pm, p, len(kk), sum(kk)))[tuple(kk)]


def values(pm, p, top):
    """The 1-D moments of orders 0..top, in order."""
    return [value for _, value in moment_table(pm, p, 1, top)]


def test_moment_table_errors():
    with pytest.raises(NotAMeasure, match=r"^series-side divisibility test fails$"):
        moment_table(PM(GA.delta((1,)), ((4,),)), 3, 1, 0)
    # the decision comes first, even for an empty table
    with pytest.raises(NotAMeasure):
        moment_table(PM(GA.delta((1,)), ((4,),)), 3, 1, -1)
    with pytest.raises(NonUnitDenominator):
        moment_table(PM(GA.delta((1,)) - GA.delta((5,)), ((4,), (4,))), 3, 1, 0)
    with pytest.raises(DependentInput):
        moment_table(PM(GA.delta((1, 0)), ((1, 0), (2, 0))), 3, 2, 0)
    assert moment_table(pm_zero(), 3, 1, 2) == [((0,), 0), ((1,), 0), ((2,), 0)]


@pytest.mark.parametrize("pm", [PM(GA.delta((1,)) - GA.delta((3,)), ((4,),)),
                                PM(GA.delta((2,)), ()), PM(GA({}), ((4,),))],
                         ids=["measure", "numerator-only", "denominator-only"])
def test_moment_table_refuses_a_dimension_that_is_not_the_measures(pm):
    # orders of the wrong length would be zipped short against the
    # coordinates: a measure on Z_p is refused in 2 dimensions, read in 1
    with pytest.raises(ValueError, match=r"n = 2 .* in 1$"):
        moment_table(pm, 3, 2, 1)
    assert [kk for kk, _ in moment_table(pm, 3, 1, 1)] == [(0,), (1,)]


def test_moment_table_walks_its_power_sums_without_a_frame_per_order():
    # 201 orders at n = 1 run a few dozen frames above the caller's depth
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        rows = moment_table(PM(GA.delta((1,)) - GA.delta((3,)), ((4,),)), 3, 1, 200)
    finally:
        sys.setrecursionlimit(limit)
    assert [kk for kk, _ in rows] == [(k,) for k in range(201)]


def _traced_peak(fn, *args) -> int:
    """The bytes fn(*args) allocates at its peak, above what was live before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def test_moment_table_keeps_few_lists_of_power_sums():
    # the depth-first walk keeps at most n lists of per-term power sums per
    # total: on 400 numerator terms at top 20 its peak was 0.16 MiB, where
    # keeping the lists of two whole totals took 0.98 MiB and keeping every
    # list 4.7 MiB
    M = 20
    f = TestFunction(2, 3, M, {(a, b): (-1) ** (a + b) for a in range(M) for b in range(M)})
    pm = pair_open_cone(OpenCone(((1, 0), (0, 1))), f)
    peak = _traced_peak(moment_table, pm, 3, 2, 20)
    assert len(pm.num.packed) == M * M
    assert peak < 2**19, peak


def test_moment_table_keeps_two_levels_of_partial_sums():
    # the input of the moments_n3_top_order smoke, at top 12 rather than its
    # 19 so that the traced tables stay cheap: with each level of partial
    # sums replacing the one before and packed orders, its peak was 1.2 MiB
    # against the tuple table's 1.8 MiB, which kept every level of a
    # recursive memo (7.3 against 10.0 MiB at top 19)
    f = TestFunction(3, 3, 2, {(x, a, b): 4 if x else -4
                               for x in (0, 1) for a in (0, 1) for b in (0, 1)})
    pm = pair_open_cone(OpenCone(((-1, 2, -2), (-2, 2, -2), (-1, 0, 1))), f)
    peak = _traced_peak(moment_table, pm, 3, 3, 12)
    reference = _traced_peak(reference_moment_table, pm, 3, 3, 12)
    assert peak < 0.85 * reference, (peak, reference)


def sorted_cosets(basis, p):
    """Sorted coset representatives of Z_p^n modulo the span of basis."""
    return tuple(sorted(hermite_box(coset_lattice(linalg.transpose(basis), p))))


def test_coset_reps_examples():
    reps3 = sorted_cosets([(1, 0), (0, 3)], 3)
    assert reps3 == ((0, 0), (0, 1), (0, 2))
    reps2 = sorted_cosets([(1, 0), (0, 3)], 2)
    assert reps2 == ((0, 0),)
    reps4 = sorted_cosets([(2, 0), (0, 2)], 2)
    assert len(reps4) == 4
    with pytest.raises(DependentInput):
        sorted_cosets([(1, 0), (2, 0)], 2)


def test_measure_test_lists_no_coset_box():
    # the denominator lattice has index 3^40 at p = 3: the test keys each
    # point by its coordinates mod 3^40 and never lists the 3^40 classes
    u = ((0, 3**40), (1, 0))
    one = PM(denominator_product(u, 2), u)  # delta_0 over both factors
    pole = PM(GA.delta((0, 1)), u)
    start = time.perf_counter()
    assert is_measure_amice(one, 3)
    assert not is_measure_amice(pole, 3)
    table = dict(moment_table(one, 3, 2, 2))
    assert [table[kk] for kk in ((0, 0), (1, 0), (0, 2))] == [1, 0, 0]
    assert time.perf_counter() - start < 1.0


def test_coset_reps_counts_match_p_part():
    rng = random.Random(41)
    done = 0
    while done < 20:
        n = rng.randint(1, 3)
        basis = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)]
        det = linalg.det(basis)
        if det == 0:
            continue
        for p in (2, 3, 5):
            expected = 1
            d = abs(int(det))
            while d % p == 0:
                d //= p
                expected *= p
            assert len(sorted_cosets(basis, p)) == expected
        done += 1


def test_coordinate_key_matches_the_hermite_cosets():
    # v and v' share a class of Z^n / (B Z^n + p^k Z^n), p^k the p-part of
    # d = |det B|, exactly when adj v = adj v' mod p^k: the key the measure
    # test reads off _coordinates gives the classes of the Hermite oracle,
    # also when p does not divide d (one class)
    rng = random.Random(59)
    cases = split = 0
    for n in (1, 2, 3, 4):
        done = 0
        while done < 12:
            cols = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)]
            if len(set(cols)) < n or linalg.det(cols) == 0:
                continue
            done += 1
            box = rng.randint(1, 3)
            points = list(product(range(-box, box + 1), repeat=n))
            if len(points) > 200:
                points = rng.sample(points, 200)
            # the coefficient names the point; the basis is the sorted columns
            a = PM(GA({v: k + 1 for k, v in enumerate(points)}), tuple(sorted(cols)))
            basis, d, ycols, cs = _coordinates(a)
            terms = list(zip(zip(*ycols), cs))
            adj = linalg.adjugate(linalg.transpose(basis))[0]
            assert d == linalg.det(basis)
            for p in (2, 3, 5, 7):
                pk = gcd(d, p ** d.bit_length())
                h = coset_lattice(linalg.transpose(basis), p)
                classes = {(tuple(x % pk for x in y), coset_rep(h, points[c - 1]))
                           for y, c in terms}
                keys = {key for key, _rep in classes}
                assert len(keys) == len({rep for _key, rep in classes}) == len(classes)
                # the Hermite box holds one point of each of the pk classes
                assert len({tuple(x % pk for x in linalg.mat_vec(adj, v))
                            for v in hermite_box(h)}) == pk
                cases += len(terms)
                split += pk > 1
    assert cases > 10000 and split >= 40
    # at n = 1 the one pole's fibre key is the class itself, so the
    # library's verdict on d_v - d_w over (1 - d_b) is the oracle's
    for b in range(-12, 13):
        for p in (2, 3, 5, 7) if b else ():
            h = coset_lattice([[b]], p)
            for v, w in combinations(range(-4, 5), 2):
                pm = PM(GA({(v,): 1, (w,): -1}), ((b,),))
                assert is_measure_amice(pm, p) == (coset_rep(h, (v,)) == coset_rep(h, (w,)))


def test_is_measure_vh_examples():
    cone = OpenCone(((F(1),),))
    assert is_measure_vh(cone.generators, TestFunction(1, 3, 4, {(1,): 1, (3,): -1}))
    assert not is_measure_vh(cone.generators, TestFunction(1, 3, 4, {(1,): 1}))
    f = TestFunction(2, 3, 4, {(1, 0): 1, (3, 0): -1})
    assert is_measure_vh(OpenCone(((F(1), F(0)),)).generators, f)
    assert not is_measure_vh(OpenCone(((F(1), F(0)), (F(0), F(1)))).generators, f)


def test_is_measure_amice_examples():
    good = PM(GA.delta((1,)) - GA.delta((3,)), ((4,),))
    assert is_measure_amice(good, 3)
    bad = PM(GA.delta((1,)), ((4,),))
    assert not is_measure_amice(bad, 3)
    assert is_measure_amice(pm_zero(), 3)


def test_is_measure_amice_handles_p_cosets():
    # denominator lattice with p-power index: split along cosets
    pm = PM(GA.delta((1,)) + GA.delta((2,)) + GA.delta((3,)), ((3,),))
    # each coset numerator is a single Dirac, nonvanishing at T = 0,
    # so this is not a measure
    assert not is_measure_amice(pm, 3)
    diff = PM(
        GA.delta((1,)) - GA.delta((4,)), ((3,),)
    )  # both points in the same coset of 3Z
    assert is_measure_amice(diff, 3)
    # d1 - d2 sums to zero, but on two different cosets of 3Z_3: each coset
    # carries an unbounded mass, so only away from 3 is it a measure
    split = PM(GA.delta((1,)) - GA.delta((2,)), ((3,),))
    assert not is_measure_amice(split, 3)
    assert is_measure_amice(split, 2)
    with pytest.raises(NotAMeasure):
        moment_table(split, 3, 1, 0)
    assert moment_table(split, 2, 1, 1) == [((0,), F(1, 3)), ((1,), 0)]


def test_moments_identities():
    # moments are linear in the measure, and convolving with delta_t moves
    # x to x + t: int x^k d(delta_t * mu) = sum_j C(k, j) t^(k-j) int x^j dmu
    mu = PM(GA.delta((1,)) - GA.delta((3,)), ((4,),))
    nu = PM(GA.delta((2,)).scale(5) - GA.delta((6,)).scale(5), ((4,),))
    both = PM(mu.num + nu.num, ((4,),))
    m, n_, s = (values(a, 3, 4) for a in (mu, nu, both))
    assert s == [x + y for x, y in zip(m, n_)]
    shifted = values(PM(mu.num * GA.delta((7,)), ((4,),)), 3, 4)
    for k in range(5):
        assert shifted[k] == sum(comb(k, j) * 7 ** (k - j) * m[j] for j in range(k + 1))
    # in two dimensions the shift acts coordinatewise
    mu2 = PM(GA.delta((1, 0)) - GA.delta((3, 0)) - GA.delta((1, 1)) + GA.delta((3, 1)),
             ((0, 5), (4, 0)))
    m2 = dict(moment_table(mu2, 3, 2, 4))
    moved = dict(moment_table(PM(mu2.num * GA.delta((2, -1)), mu2.den), 3, 2, 4))
    for (j, k), value in moved.items():
        assert value == sum(comb(j, a) * comb(k, b) * 2 ** (j - a) * (-1) ** (k - b) * m2[a, b]
                            for a in range(j + 1) for b in range(k + 1))


def test_power_moments_match_hurwitz_values():
    a, b, M, p = 1, 3, 4, 3
    f = TestFunction(1, p, M, {(a,): 1, (b,): -1})
    pm = pair_open_cone(OpenCone(((F(1),),)), f)
    for k in range(4):
        expected = M**k * (hurwitz_zeta_neg(k, F(a, M)) - hurwitz_zeta_neg(k, F(b, M)))
        assert moment(pm, p, (k,)) == expected


def test_extend_denominator_basis(monkeypatch):
    # fewer than n vectors are completed by the trailing rows of u^-1, read off
    # the adjugate of u: one Hermite pass that builds u, then the one inside
    # adjugate(u); n independent ones are their own basis after one Hermite
    # pass that builds no u; dependent ones are refused by name
    low, full = PM(GA.delta((1, 1)), ((2, 2),)), PM(GA.delta((1, 1)), ((1, 2), (3, -1)))
    complement = reference_hermite([(2, 2)])[2][1:]
    rng = random.Random(3901)
    for n in range(1, 5):  # the complement is the old kernel's, the trailing rows of u_inv
        for r in range(1, n + 1):
            for _ in range(5):
                while rank_by_minors(dens := [tuple(rng.randint(-4, 4) for _ in range(n))
                                              for _ in range(r)]) < r or len(set(dens)) < r:
                    pass
                want = dens + list(reference_hermite(dens)[2][r:])
                assert extend_denominator_basis(PM(GA.delta((0,) * n), tuple(dens)), n) == want
    kernel, flags = linalg.hermite, []

    def spy(rows, with_u=False):
        flags.append(with_u)
        return kernel(rows, with_u)

    monkeypatch.setattr(linalg, "hermite", spy)
    basis = extend_denominator_basis(low, 2)
    assert flags == [True, True]
    assert basis == [(2, 2), *complement] and abs(linalg.det(basis)) == 2
    flags.clear()
    assert extend_denominator_basis(full, 2) == [(1, 2), (3, -1)]
    assert flags == [False]
    for den in ([(1, 2), (2, 4)], [(0, 1, 1), (1, 0, 1), (1, 1, 2)], [(0, 1), (1, 0), (1, 1)]):
        with pytest.raises(DependentInput) as refused:
            extend_denominator_basis(PM(GA.delta((0,) * len(den[0])), tuple(den)), len(den[0]))
        assert str(refused.value) == f"denominator vectors {list(map(list, den))} are linearly dependent"


def test_power_moments_of_dirac_combinations():
    # no denominators: the moment is the plain weighted power sum
    pm = PM(GA.delta((2,)) + GA.delta((5,)).scale(-3), ())
    for k in range(4):
        expected = F(2**k - 3 * 5**k)
        assert moment(pm, 3, (k,)) == expected
    pm2 = PM(GA.delta((1, 2)).scale(2), ())
    assert moment(pm2, 3, (2, 1)) == 2 * 1 * 2
    # a non-integral coefficient, as pm_from_json keeps "1/2"
    half = PM(GA({(3,): F(1, 2)}), ())
    assert moment_table(half, 3, 1, 3) == [((k,), F(3**k, 2)) for k in range(4)]


def test_power_moments_through_p_cosets():
    # (d1 - d4)/(1 - d3) is just d1; the denominator lattice 3Z has index
    # p = 3, so the measure test runs per coset; the point 1 has basis
    # coordinate 1/3, which is not p-integral, yet the moments are exact
    pm = PM(GA.delta((1,)) - GA.delta((4,)), ((3,),))
    assert values(pm, 3, 5) == [1] * 6
    # (d1 - d4 + d2 - d5)/(1 - d3) is d1 + d2, with mass on two cosets
    pm2 = PM(GA.delta((1,)) - GA.delta((4,)) + GA.delta((2,)) - GA.delta((5,)), ((3,),))
    assert values(pm2, 3, 5) == [1 + 2**k for k in range(6)]


def test_power_moments_two_dimensional_product():
    table = {}
    for a in (1, 3):
        for b in (1, 3):
            table[(a, b)] = (1 if a == 1 else -1) * (1 if b == 1 else -1)
    f = TestFunction(2, 3, 4, table)
    cone = OpenCone(((F(1), F(0)), (F(0), F(1))))
    pm = pair_open_cone(cone, f)
    assert is_measure_vh(cone.generators, f)
    # the measure is a product, so moments factor: m_(j,k) = m_j * m_k
    one_dim = {}
    f1 = TestFunction(1, 3, 4, {(1,): 1, (3,): -1})
    pm1 = pair_open_cone(OpenCone(((F(1),),)), f1)
    for k in range(3):
        one_dim[k] = moment(pm1, 3, (k,))
    for j in range(3):
        for k in range(3 - j):
            assert moment(pm, 3, (j, k)) == one_dim[j] * one_dim[k], (j, k)


def test_criterion_equivalence_spot_checks():
    # the two-sided equivalence holds for full-dimensional cones with unit
    # p-index; lower-rank cones only keep the "vh implies measure" direction
    # because the pairing cannot see slices based outside the span
    rng = random.Random(43)
    agreements = 0
    while agreements < 30:
        n = rng.randint(1, 2)
        M = rng.choice((2, 4, 5))
        p = rng.choice((3, 7))
        if M % p == 0:
            continue
        gens = [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n)]
        if linalg.det(linalg.int_mat(gens)) == 0:
            continue
        cone = OpenCone(tuple(gens))
        prims = [linalg.primitive_vector(g) for g in cone.generators]
        if int(abs(linalg.det(prims))) % p == 0:
            continue
        table = {r: rng.randint(-2, 2) for r in product(range(M), repeat=n)}
        f = TestFunction(n, p, M, table)
        pm = pair_open_cone(cone, f)
        vh = is_measure_vh(cone.generators, f)
        if pm.num:
            assert is_measure_amice(pm, p) == vh
        agreements += 1


def test_low_rank_cones_keep_the_forward_direction():
    # vh for the rays still certifies measures on lower-rank cones
    rng = random.Random(47)
    checked = 0
    while checked < 10:
        table = {}
        base = {r: rng.randint(-2, 2) for r in product(range(4), repeat=2)}
        # difference along e1 grants vh for e1
        for (x, y), w in base.items():
            table[(x, y)] = table.get((x, y), 0) + w
            table[((x + 1) % 4, y)] = table.get(((x + 1) % 4, y), 0) - w
        f = TestFunction(2, 3, 4, table)
        cone = OpenCone(((F(1), F(0)),))
        if not is_measure_vh(cone.generators, f):
            continue
        pm = pair_open_cone(cone, f)
        if pm.num:
            assert is_measure_amice(pm, 3)
        checked += 1


def test_transform_is_correct_to_its_degree():
    # (d1 - d3)/(1 - d4) in its own basis {4}: the moments int c^k are the
    # Taylor values k! [t^k] (e^(t/4) - e^(3t/4))/(1 - e^t) = zeta(-k, 1/4)
    # - zeta(-k, 3/4), and int x^k = 4^k int c^k. The function is even in t,
    # so every odd moment is 0, up to orders well past the one denominator
    # factor: the division by it must not cost the top degree
    pm = PM(GA.delta((1,)) - GA.delta((3,)), ((4,),))
    table = values(pm, 3, 7)
    for k in range(8):
        expected = hurwitz_zeta_neg(k, F(1, 4)) - hurwitz_zeta_neg(k, F(3, 4))
        assert table[k] == 4**k * expected
    assert table[3] == table[5] == table[7] == 0 != table[2]


def _vh_pairing(rng, n, k, M, p):
    """A cone with k generators in dimension n paired with a step function
    that is a difference along each primitive generator, so the vanishing
    hypothesis holds and the pairing is a measure."""
    while True:
        gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k)]
        if rank_by_minors(gens) == k and all(linalg.primitive_vector(g) == g for g in gens):
            break
    table = {r: rng.randint(-2, 2) for r in product(range(M), repeat=n)}
    for g in gens:
        table = {r: w - table[tuple((x - s) % M for x, s in zip(r, g))] for r, w in table.items()}
    cone = OpenCone(tuple(tuple(F(x) for x in g) for g in gens))
    f = TestFunction(n, p, M, table)
    assert is_measure_vh(cone.generators, f)
    return pair_open_cone(cone, f)


def _unreduced_measure(rng, n, p):
    """sum of Diracs times prod (1 - delta_u) over prod (1 - delta_u), with
    denominator vectors whose lattice has p-power index, so the moments run
    per coset."""
    while True:
        den = [tuple(rng.choice((0, 0, 1, p, -p)) for _ in range(n)) for _ in range(rng.randint(1, n))]
        if rank_by_minors(den) == len(den) and len(set(den)) == len(den):
            break
    g = GA({tuple(rng.randint(-3, 3) for _ in range(n)): rng.randint(-2, 2) for _ in range(3)})
    return PM(g * denominator_product(den, n), tuple(sorted(den)))


def _unimodular(rng, n):
    """A random product of elementary integer matrices, as rows."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        t = rng.choice((-1, 1))
        g[i] = [x + t * y for x, y in zip(g[i], g[j])]
    return g


def _p_split_measure(rng, n, p, rank):
    """A product of 1-D measures (sum_j a_j delta_(x_j)) / (1 - delta_m) on
    the first rank axes, with p | m and the coefficients in each class mod p
    summing to zero, and of Dirac combinations on the other axes, moved by
    a unimodular map. p divides the index of the denominator lattice, so
    the measure test runs on several cosets."""
    num, den = GA.delta((0,) * n), []
    for axis in range(n):
        e = [int(i == axis) for i in range(n)]
        terms = {}
        if axis < rank:
            den.append(tuple(p * rng.choice((1, 2, -4)) * x for x in e))
            for residue in rng.sample(range(p), rng.randint(1, 2)):
                ts = rng.sample(range(-3, 4), rng.randint(2, 3))
                ws = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in ts[1:]]
                for t, w in zip(ts, [-sum(ws)] + ws):
                    terms[tuple((residue + p * t) * x for x in e)] = w
        else:
            for t in rng.sample(range(-3, 4), 2):
                terms[tuple(t * x for x in e)] = rng.randint(-2, 2) or 1
        num = num * GA(terms)
    g = _unimodular(rng, n)
    move = lambda v: tuple(linalg.mat_vec(g, v))
    return PM(num.map_exponents(move), tuple(sorted(move(u) for u in den)))


def test_moment_table_matches_the_bernoulli_oracle():
    # full-rank and lower-rank cone pairings, unreduced measures, and
    # p-split products, for n = 1..3 and p in {3, 5}: every moment equals
    # the Bernoulli-polynomial formula, which shares no code with amice
    rng = random.Random(53)
    kinds = {"full": 0, "lower": 0, "unreduced": 0, "p-split": 0}
    for n in (1, 2, 3):
        max_order = 2 if n == 3 else 3
        orders = _orders(n, max_order)
        for _ in range(4):
            for p in (3, 5):
                measures = [
                    ("full", _vh_pairing(rng, n, n, 2 if n == 3 else 4, p)),
                    ("lower", _vh_pairing(rng, n, rng.randint(1, n), 2, p)),
                    ("unreduced", _unreduced_measure(rng, n, p)),
                    ("p-split", _p_split_measure(rng, n, p, rng.randint(1, n))),
                ]
                for kind, pm in measures:
                    if not pm.num:
                        continue
                    if kind == "p-split":
                        basis = extend_denominator_basis(pm, n)
                        assert len(hermite_box(coset_lattice(linalg.transpose(basis), p))) > 1
                    want = bernoulli_moments(pm.num.terms, pm.den, orders)
                    assert moment_table(pm, p, n, max_order) == list(zip(orders, want)), (kind, pm)
                    kinds[kind] += 1
    assert all(count >= 12 for count in kinds.values()), kinds


def _orders(n, max_order):
    return sorted((e for e in product(range(max_order + 1), repeat=n) if sum(e) <= max_order),
                  key=lambda e: (sum(e), e))


def _seeded_measures(seed):
    """(kind, n, p, pseudo-measure, top): full-rank and lower-rank cone
    pairings, unreduced and p-split measures, each also convolved with a
    Dirac combination of rational coefficients, and non-measures (a measure
    plus one Dirac); orders of total up to top, 8 for n <= 2 and 5 for n = 3."""
    rng = random.Random(seed)
    for n in (1, 2, 3):
        top = 5 if n == 3 else 8
        for p in (3, 5):
            for _ in range(3):
                measures = [
                    ("full", _vh_pairing(rng, n, n, 2 if n == 3 else 4, p)),
                    ("lower", _vh_pairing(rng, n, rng.randint(1, n), 2, p)),
                    ("unreduced", _unreduced_measure(rng, n, p)),
                    ("p-split", _p_split_measure(rng, n, p, rng.randint(1, n))),
                ]
                for kind, pm in measures:
                    if not pm.num:
                        continue
                    yield kind, n, p, pm, top
                    dirac = GA({tuple(rng.randint(-2, 2) for _ in range(n)):
                                F(rng.choice((-5, -1, 1, 3)), rng.choice((1, 2, 6, 9)))
                                for _ in range(2)})
                    yield "rational", n, p, PM(pm.num * dirac, pm.den), top
                    yield "non-measure", n, p, PM(GA.delta((1,) * n) + pm.num, pm.den), top


def test_moment_table_matches_the_fraction_oracle():
    # the integer table against the Fraction table it replaced: equal
    # values on measures, NotAMeasure on both sides otherwise
    kinds = {}
    for kind, n, p, pm, top in _seeded_measures(59):
        orders = _orders(n, top)
        try:
            want = fraction_moment_table(pm, p, orders)
        except NotAMeasure:
            with pytest.raises(NotAMeasure):
                moment_table(pm, p, n, top)
            kind = "rejected"
        else:
            assert moment_table(pm, p, n, top) == list(zip(orders, want)), (kind, pm)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert all(kinds.get(k, 0) >= 10 for k in
               ("full", "lower", "unreduced", "p-split", "rational", "rejected")), kinds


def test_moment_table_matches_its_reference():
    # the packed-order table against the tuple table it replaced, kept
    # verbatim in the oracles: the same rows, exactly, and the same refusal
    # with the same message, on the seeded measures (Fraction coefficients
    # among them), on n = 4 measures of every rank and at totals below,
    # around and past the seeded ones, top < 0 included
    rng = random.Random(71)
    cases = [(pm, p, n) for _kind, n, p, pm, _top in _seeded_measures(59)]
    for p in (3, 5):
        for rank in range(1, 5):
            cases += [(_vh_pairing(rng, 4, rank, 2, p), p, 4), (_p_split_measure(rng, 4, p, rank), p, 4)]
        cases.append((_unreduced_measure(rng, 4, p), p, 4))
    cases += [(PM(GA.delta((1, 0)), ((1, 2), (2, 4))), 3, 2),  # dependent, r = n
              (PM(GA.delta((1, 0, 0)), ((1, 0, 1), (2, 0, 2))), 3, 3),  # dependent, r < n
              (PM(GA.delta((1, 0)), ((0, 1), (1, 0), (1, 1))), 3, 2),  # r > n
              (PM(GA.delta((1,)) - GA.delta((3,)), ((4,),)), 3, 2)]  # n is not a.dim
    seen = {"rank < n": 0, "n = 4": 0, NotAMeasure: 0, DependentInput: 0, ValueError: 0}
    for pm, p, n in cases:
        for top in (-1, 0, 1, 3, 8):
            got = outcome(moment_table, pm, p, n, top)
            assert got == outcome(reference_moment_table, pm, p, n, top), (pm, p, n, top)
            if got[0] == "raised":
                seen[got[1]] += 1
            elif top == 8:
                seen["rank < n"] += len(pm.den) < n
                seen["n = 4"] += n == 4
    assert all(count >= 2 for count in seen.values()), seen


def _ball_failures(balls, table, p, k):
    """The checks of ball values mu(c + p^k Z_p^n) against a moment table that
    fail: "sum" unless they add up to the order-0 moment, "integral" unless
    every one is p-integral, and each order kk whose Riemann sum
    sum_c c^kk mu(c + p^k Z_p^n) is not its moment mod p^k."""
    failed = [] if sum(balls.values()) == table[0][1] else ["sum"]
    if not _p_integral(balls.values(), p):
        failed.append("integral")
    for kk, m in table:
        gap = F(sum(prod(map(pow, c, kk)) * v for c, v in balls.items() if v) - m)
        if gap.numerator % p**k or gap.denominator % p == 0:
            failed.append(kk)
    return failed


def test_ball_values_tie_the_moments_to_the_measure(monkeypatch):
    # a Z_p-valued measure is read off its balls: their values add up to the
    # order-0 moment, are p-integral, and x^kk = c^kk mod p^k on c + p^k Z_p^n,
    # so the Riemann sums give every moment mod p^k; on the seeded measures
    # with integral numerators at n <= 2, at k = 1 and, where the numerator
    # spread over the balls has at most 300 terms, at k = 2
    cases = []
    for _kind, n, p, pm, _top in _seeded_measures(59):
        if n > 2 or any(isinstance(c, F) for c in pm.num.terms.values()):
            continue
        try:
            table = moment_table(pm, p, n, 3)
        except NotAMeasure:
            continue
        for k in (1, 2):
            if k == 1 or len(pm.num.packed) * p ** (k * len(pm.den)) <= 300:
                cases.append((pm, p, n, k, ball_values(pm, p, k), table))
    assert len(cases) >= 70, len(cases)
    for pm, p, n, k, balls, table in cases:
        assert _ball_failures(balls, table, p, k) == [], (pm, p, k)
        # negative control: one ball value off by 1 fails the sum
        c = next(iter(balls))
        assert "sum" in _ball_failures({**balls, c: balls[c] + 1}, table, p, k)
    # negative control: with L B_1's sign flipped the tables miss the
    # Riemann sums, at order 1 and past it
    bernoulli = amice._bernoulli

    def flipped(top):
        big, out = bernoulli(top)
        return big, [-b if j == 1 else b for j, b in enumerate(out)]

    monkeypatch.setattr(amice, "_bernoulli", flipped)
    missed = sum(bool(_ball_failures(balls, moment_table(pm, p, n, 3), p, k))
                 for pm, p, n, k, balls, _table in cases)
    assert missed >= len(cases) // 3, (missed, len(cases))


def test_moment_table_matches_restriction_to_lines():
    # against an oracle that shares no code with the table: K! [t^K] F(t lam)
    # from exp series and one power-series division is
    # sum_{|k| = K} K!/k! lam^k m_k, with no zero coordinate in lam, so
    # every entry of the table has a nonzero weight in the sum
    rng = random.Random(61)
    kinds = {}
    for kind, n, p, pm, top in _seeded_measures(59):
        try:
            rows = moment_table(pm, p, n, min(top, 6))
        except NotAMeasure:
            continue
        lam = (0,)
        while 0 in lam or not all(sum(map(mul, lam, u)) for u in pm.den):
            lam = tuple(rng.randint(-3, 3) for _ in range(n))
        for K in range(min(top, 6) + 1):
            layer = [(m, factorial(K) // prod(map(factorial, kk)) * prod(map(pow, lam, kk)))
                     for kk, m in rows if sum(kk) == K]
            want = line_moment(pm, lam, K)
            assert sum(m * w for m, w in layer) == want, (kind, pm, lam, K)
            # negative control: the table with one entry off by 1 fails
            bad = rng.randrange(len(layer))
            assert sum((m + (i == bad)) * w for i, (m, w) in enumerate(layer)) != want
        kinds[kind] = kinds.get(kind, 0) + 1
    assert all(kinds.get(k, 0) >= 10 for k in ("full", "lower", "unreduced", "p-split", "rational")), kinds


def test_bernoulli_numerators_are_integers_over_von_staudt_clausen():
    # D_1 = 2, D_k = prod of the primes p with (p - 1) | k for even k, and
    # B_k = 0 for odd k > 1; L for order k is the lcm of D_0..D_k
    bs = bernoulli_numbers(88)
    primes = [q for q in range(2, 90) if all(q % d for d in range(2, q))]
    dens = []
    for k, b in enumerate(bs):
        if k == 1:
            dens.append(2)
        elif k == 0 or k % 2:
            dens.append(1)  # B_0 = 1, and B_k = 0 for odd k > 1
        else:
            dens.append(prod(q for q in primes if k % (q - 1) == 0))
        assert dens[k] == b.denominator, k
        big, scaled = _bernoulli(k)
        assert big == lcm(*dens)
        assert all(type(x) is int and x == big * y for x, y in zip(scaled, bs)), k


def _p_integral(values, p):
    return all(F(v).denominator % p for v in values)


def test_accepted_integral_tables_are_p_integral():
    # a Z_p-valued measure has p-integral moments: every table accepted at
    # p whose numerator has integer coefficients
    accepted = {3: 0, 5: 0, 7: 0}
    for kind, n, _p, pm, top in _seeded_measures(59):
        if any(isinstance(c, F) for c in pm.num.terms.values()):
            continue
        for p in accepted:
            try:
                table = [value for _, value in moment_table(pm, p, n, top)]
            except NotAMeasure:
                continue
            assert _p_integral(table, p), (kind, p, pm)
            accepted[p] += 1
    assert min(accepted.values()) >= 60, accepted
    # negative control: (d1 - d2)/(1 - d3) is a measure at 2 but not at 3,
    # and its formal moments 1/3, 0, -2/9 are not 3-integral
    pole = PM(GA.delta((1,)) - GA.delta((2,)), ((3,),))
    formal = bernoulli_moments(pole.num.terms, pole.den, [(0,), (1,), (2,)])
    assert formal == [F(1, 3), 0, F(-2, 9)]
    assert not _p_integral(formal, 3)
    with pytest.raises(NotAMeasure):
        moment_table(pole, 3, 1, 0)
