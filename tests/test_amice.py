import random
from fractions import Fraction as F
from itertools import product

import pytest

from shintani import amice, linalg
from shintani.amice import (
    amice_in_basis,
    amice_transform,
    binom_pow,
    extend_denominator_basis,
    is_measure_amice,
    is_measure_vh,
    moment_table,
    moments,
    power_moments,
)
from shintani.cones import OpenCone
from shintani.errors import (
    NonUnitDenominator,
    NotAMeasure,
    NotPIntegral,
    SingularMatrix,
    TruncationTooSmall,
)
from shintani.padic import PadicScalar, rational_reconstruct
from shintani.solomon_hu import (
    GroupAlgebraElement as GA,
    PseudoMeasure as PM,
    denominator_product,
    pair_open_cone,
    pm_zero,
)
from shintani.testfunctions import LatticeContext, TestFunction

from oracles import hurwitz_zeta_neg


def scalar(x, p=3, prec=20):
    return PadicScalar.from_rational(F(x), p, prec)


def test_binom_pow_examples():
    one = binom_pow(0, 3, 20, 4)
    assert one.coeffs == {(0,): scalar(1)}
    lin = binom_pow(1, 3, 20, 4)
    assert lin.coefficient((0,)).eq_at_precision(scalar(1))
    assert lin.coefficient((1,)).eq_at_precision(scalar(1))
    assert lin.coefficient((2,)).is_exact_zero
    half = binom_pow(F(1, 2), 3, 20, 2)
    assert half.coefficient((1,)).eq_at_precision(scalar(F(1, 2)))
    assert half.coefficient((2,)).eq_at_precision(scalar(F(-1, 8)))
    with pytest.raises(NotPIntegral):
        binom_pow(F(1, 3), 3)


def test_binom_pow_additivity():
    x, y = F(2, 5), F(-7, 4)
    lhs = binom_pow(x + y, 3, 20, 6)
    rhs = binom_pow(x, 3, 20, 6) * binom_pow(y, 3, 20, 6)
    for j in range(7):
        assert lhs.coefficient((j,)).eq_at_precision(rhs.coefficient((j,)))


def test_amice_in_basis_examples():
    # a Dirac along the first basis vector transforms to 1 + T_1
    a = PM(GA.delta((1, 0)), ())
    ser = amice_in_basis(a, [(1, 0), (0, 1)], 3)
    assert ser.coefficient((0, 0)).eq_at_precision(scalar(1))
    assert ser.coefficient((1, 0)).eq_at_precision(scalar(1))
    assert ser.coefficient((0, 1)).is_exact_zero

    # (d1 - d3)/(1 - d4) over the basis {4} of its denominator: constant
    # term 1/2
    b = PM(GA.delta((1,)) - GA.delta((3,)), ((4,),))
    ser2 = amice_in_basis(b, [(4,)], 3)
    assert rational_reconstruct(ser2.coefficient((0,))) == F(1, 2)

    assert amice_in_basis(pm_zero(), [(1,)], 3).coeffs == {}


def test_amice_in_basis_errors():
    with pytest.raises(NotAMeasure, match=r"^numerator does not vanish at T_0 = 0; "
                                          r"genuine pole at delta_\(4,\)$"):
        amice_in_basis(PM(GA.delta((1,)), ((4,),)), [(4,)], 3)
    # the basis must start with the denominator vectors, in order
    with pytest.raises(NonUnitDenominator):
        amice_in_basis(PM(GA.delta((1, 1)), ((1, 1),)), [(1, 0), (0, 1)], 3)
    with pytest.raises(NonUnitDenominator):
        amice_in_basis(PM(GA.delta((1, 1)), ((0, 1), (1, 0))), [(1, 0), (0, 1)], 3)
    with pytest.raises(NonUnitDenominator):
        amice_in_basis(PM(GA.delta((3,)), ((3,),)), [(1,)], 3)
    with pytest.raises(NotPIntegral, match=r"^coordinate 1/3 is not p-integral$"):
        amice_in_basis(PM(GA.delta((1,)), ()), [(3,)], 3)
    with pytest.raises(SingularMatrix, match=r"^transform basis is singular$"):
        amice_in_basis(PM(GA.delta((1, 0)), ()), [(1, 0), (2, 0)], 3)


def sorted_cosets(basis, p):
    """Sorted coset representatives of Z_p^n modulo the span of basis."""
    return tuple(sorted(linalg.cosets(linalg.transpose(basis), p)[1]))


def test_coset_reps_examples():
    reps3 = sorted_cosets([(1, 0), (0, 3)], 3)
    assert reps3 == ((0, 0), (0, 1), (0, 2))
    reps2 = sorted_cosets([(1, 0), (0, 3)], 2)
    assert reps2 == ((0, 0),)
    reps4 = sorted_cosets([(2, 0), (0, 2)], 2)
    assert len(reps4) == 4
    with pytest.raises(SingularMatrix):
        sorted_cosets([(1, 0), (2, 0)], 2)


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


def ctx1(M=4, p=3):
    return LatticeContext(1, p, M)


def test_is_measure_vh_examples():
    cone = OpenCone(((F(1),),))
    assert is_measure_vh(cone, TestFunction(ctx1(), {(1,): 1, (3,): -1}))
    assert not is_measure_vh(cone, TestFunction(ctx1(), {(1,): 1}))
    ctx = LatticeContext(2, 3, 4)
    f = TestFunction(ctx, {(1, 0): 1, (3, 0): -1})
    assert is_measure_vh(OpenCone(((F(1), F(0)),)), f)
    assert not is_measure_vh(OpenCone(((F(1), F(0)), (F(0), F(1)))), f)


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


def test_moments_identities():
    # moments are read straight off the series: m0 = c0, m1 = c1, m2 = c1 + 2 c2
    coeffs = {(0,): scalar(7), (1,): scalar(F(1, 2)), (2,): scalar(-3)}
    from shintani.amice import AmiceSeries

    s = AmiceSeries(3, 1, 4, coeffs)
    assert moments(s, (0,)).eq_at_precision(scalar(7))
    assert moments(s, (1,)).eq_at_precision(scalar(F(1, 2)))
    assert moments(s, (2,)).eq_at_precision(scalar(F(1, 2)) + scalar(-6))
    with pytest.raises(TruncationTooSmall):
        moments(s, (5,))


def test_power_moments_match_hurwitz_values():
    a, b, M, p = 1, 3, 4, 3
    f = TestFunction(LatticeContext(1, p, M), {(a,): 1, (b,): -1})
    pm = pair_open_cone(OpenCone(((F(1),),)), f)
    for k in range(4):
        expected = M**k * (hurwitz_zeta_neg(k, F(a, M)) - hurwitz_zeta_neg(k, F(b, M)))
        got = power_moments(pm, p, (k,))
        assert got.eq_at_precision(scalar(expected, p))
        assert rational_reconstruct(got) == expected


def test_extend_denominator_basis():
    pm = PM(GA.delta((1, 1)), ((2, 2),))
    basis = extend_denominator_basis(pm, 2)
    assert basis[0] == (2, 2)
    assert abs(linalg.det(basis)) > 0


def test_power_moments_of_dirac_combinations():
    # no denominators: the moment is the plain weighted power sum
    pm = PM(GA.delta((2,)) + GA.delta((5,)).scale(-3), ())
    for k in range(4):
        expected = F(2**k - 3 * 5**k)
        assert rational_reconstruct(power_moments(pm, 3, (k,))) == expected
    pm2 = PM(GA.delta((1, 2)).scale(2), ())
    assert rational_reconstruct(power_moments(pm2, 3, (2, 1))) == 2 * 1 * 2


def test_power_moments_through_p_cosets():
    # (d1 - d4)/(1 - d3) is just d1; the denominator lattice 3Z has index
    # p = 3, so the computation runs per coset and reassembles exactly
    pm = PM(GA.delta((1,)) - GA.delta((4,)), ((3,),))
    for k in range(4):
        got = power_moments(pm, 3, (k,))
        assert rational_reconstruct(got) == 1
    parts = amice_transform(pm, 3)
    assert len(parts) == 1  # only one coset carries numerator mass


def test_power_moments_two_dimensional_product():
    ctx = LatticeContext(2, 3, 4)
    table = {}
    for a in (1, 3):
        for b in (1, 3):
            table[(a, b)] = (1 if a == 1 else -1) * (1 if b == 1 else -1)
    f = TestFunction(ctx, table)
    cone = OpenCone(((F(1), F(0)), (F(0), F(1))))
    pm = pair_open_cone(cone, f)
    assert is_measure_vh(cone, f)
    # the measure is a product, so moments factor: m_(j,k) = m_j * m_k
    one_dim = {}
    f1 = TestFunction(LatticeContext(1, 3, 4), {(1,): 1, (3,): -1})
    pm1 = pair_open_cone(OpenCone(((F(1),),)), f1)
    for k in range(3):
        one_dim[k] = rational_reconstruct(power_moments(pm1, 3, (k,)))
    for j in range(3):
        for k in range(3 - j):
            got = rational_reconstruct(power_moments(pm, 3, (j, k)))
            assert got == one_dim[j] * one_dim[k], (j, k)


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
        ctx = LatticeContext(n, p, M)
        gens = [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n)]
        if linalg.det(gens) == 0:
            continue
        cone = OpenCone(tuple(gens))
        prims = [linalg.primitive_vector(g) for g in cone.generators]
        if int(abs(linalg.det(prims))) % p == 0:
            continue
        table = {r: rng.randint(-2, 2) for r in product(range(M), repeat=n)}
        f = TestFunction(ctx, table)
        pm = pair_open_cone(cone, f)
        vh = is_measure_vh(cone, f)
        if pm.num:
            assert is_measure_amice(pm, p) == vh
        agreements += 1


def test_low_rank_cones_keep_the_forward_direction():
    # vh for the rays still certifies measures on lower-rank cones
    rng = random.Random(47)
    checked = 0
    while checked < 10:
        ctx = LatticeContext(2, 3, 4)
        table = {}
        base = {r: rng.randint(-2, 2) for r in product(range(4), repeat=2)}
        # difference along e1 grants vh for e1
        for (x, y), w in base.items():
            table[(x, y)] = table.get((x, y), 0) + w
            table[((x + 1) % 4, y)] = table.get(((x + 1) % 4, y), 0) - w
        f = TestFunction(ctx, table)
        cone = OpenCone(((F(1), F(0)),))
        if not is_measure_vh(cone, f):
            continue
        pm = pair_open_cone(cone, f)
        if pm.num:
            assert is_measure_amice(pm, 3)
        checked += 1


def test_transform_is_correct_to_its_degree():
    # (d1 - d3)/(1 - d4) in its own basis {4}: dividing by -T takes the
    # numerator to degree 4 for a series correct to degree 3. The moments
    # int c^k are the Taylor values k! [t^k] (e^(t/4) - e^(3t/4))/(1 - e^t)
    # = zeta(-k, 1/4) - zeta(-k, 3/4); the function is even in t, so the
    # third moment is 0. A numerator cut at degree 3 before the division
    # loses the top coefficient: int c^3 then reads -3/32 and int x^3
    # (x = 4c) reads -6
    pm = PM(GA.delta((1,)) - GA.delta((3,)), ((4,),))
    transform = amice_transform(pm, 3, 20, 3)
    [(rep, s)] = transform
    assert rep == (0,) and s.degree == 3
    for k in range(4):
        expected = hurwitz_zeta_neg(k, F(1, 4)) - hurwitz_zeta_neg(k, F(3, 4))
        assert rational_reconstruct(moments(s, (k,))) == expected
        x_moment = amice._moment(transform, [(4,)], (k,), 3, 20)
        assert rational_reconstruct(x_moment) == 4**k * expected
    assert rational_reconstruct(moments(s, (3,))) == 0
    with pytest.raises(TruncationTooSmall):
        moments(s, (4,))


def _vh_pairing(rng, n, k, M, p):
    """A cone with k generators in dimension n paired with a step function
    that is a difference along each primitive generator, so the vanishing
    hypothesis holds and the pairing is a measure."""
    while True:
        gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k)]
        if linalg.rank(gens) == k and all(linalg.primitive_vector(g) == g for g in gens):
            break
    table = {r: rng.randint(-2, 2) for r in product(range(M), repeat=n)}
    for g in gens:
        table = {r: w - table[tuple((x - s) % M for x, s in zip(r, g))] for r, w in table.items()}
    cone = OpenCone(tuple(tuple(F(x) for x in g) for g in gens))
    f = TestFunction(LatticeContext(n, p, M), table)
    assert is_measure_vh(cone, f)
    return pair_open_cone(cone, f)


def _unreduced_measure(rng, n, p):
    """sum of Diracs times prod (1 - delta_u) over prod (1 - delta_u), with
    denominator vectors whose lattice has p-power index, so the moments run
    per coset."""
    while True:
        den = [tuple(rng.choice((0, 0, 1, p, -p)) for _ in range(n)) for _ in range(rng.randint(1, n))]
        if linalg.rank(den) == len(den) and len(set(den)) == len(den):
            break
    g = GA({tuple(rng.randint(-3, 3) for _ in range(n)): rng.randint(-2, 2) for _ in range(3)})
    return PM(g * denominator_product(den, n), tuple(den))


def test_moment_tables_match_a_degree_12_transform():
    rng = random.Random(53)
    cases = 0
    for n in (1, 2, 3):
        for _ in range(4):
            p = rng.choice((3, 5))
            measures = [
                _vh_pairing(rng, n, n, 2 if n == 3 else 4, p),
                _vh_pairing(rng, n, rng.randint(1, n), 2, p),
                _unreduced_measure(rng, n, p),
            ]
            for pm in measures:
                if not pm.num:
                    continue
                max_order = 2 if n == 3 else 3
                orders = sorted((e for e in product(range(max_order + 1), repeat=n)
                                 if sum(e) <= max_order), key=lambda e: (sum(e), e))
                basis = extend_denominator_basis(pm, n)
                deep = amice_transform(pm, p, 20, 12)
                want = [str(amice._moment(deep, basis, kk, p, 20)) for kk in orders]
                assert [str(m) for m in moment_table(pm, p, orders)] == want
                cases += 1
    assert cases >= 30
