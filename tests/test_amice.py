import random
from fractions import Fraction as F
from itertools import product

import pytest

from shintani import linalg
from shintani.amice import (
    amice_in_basis,
    amice_transform,
    binom_pow,
    extend_denominator_basis,
    is_measure_amice,
    is_measure_vh,
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

    # (d1 - d3)/(1 - d4) over basis {1}: constant term 1/2
    b = PM(GA.delta((1,)) - GA.delta((3,)), ((4,),))
    ser2 = amice_in_basis(b, [(1,)], 3)
    assert rational_reconstruct(ser2.coefficient((0,))) == F(1, 2)

    assert amice_in_basis(pm_zero(), [(1,)], 3).coeffs == {}


def test_amice_in_basis_errors():
    with pytest.raises(NotAMeasure):
        amice_in_basis(PM(GA.delta((1,)), ((4,),)), [(1,)], 3)
    with pytest.raises(NonUnitDenominator):
        amice_in_basis(PM(GA.delta((1, 1)), ((1, 1),)), [(1, 0), (0, 1)], 3)
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
