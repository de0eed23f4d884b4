import random
from fractions import Fraction as F
from math import prod

import pytest

from shintani import linalg
from shintani.errors import DependentInput

from oracles import (
    _solve_coords,
    brute_cell_points,
    coset_lattice,
    coset_rep,
    det_cofactor,
    enumerate_fundamental_domain,
    hermite_box,
    rank_by_minors,
)


def test_det_examples():
    assert linalg.det([[1, 0], [0, 1]]) == 1
    assert linalg.det([[2, 0], [0, 3]]) == 6
    m = [[1, 1], [-1, 1]]
    assert det_cofactor(m) == 2
    assert linalg.det(m) == 2
    assert linalg.det([]) == 1
    with pytest.raises(ValueError, match="^determinant of a non-square matrix$"):
        linalg.det([[1, 0, 2], [0, 1, 3]])


def test_det_multiplicative():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert linalg.det(linalg.mat_mul(a, b)) == linalg.det(a) * linalg.det(b)
        assert linalg.det(a) == det_cofactor(a)


def saturate_span(vs):
    """Integer basis of span_Q(vs) n Z^n: the leading rows of u_inv from
    hermite(vs), after checking that h gives the coordinates of vs in
    them."""
    h, _u, u_inv, _sign = linalg.hermite(vs)
    sat = list(u_inv[:len(vs)])
    assert [tuple(sum(c * s[i] for c, s in zip(row, sat)) for i in range(len(vs[0])))
            for row in h] == [tuple(v) for v in vs]
    return sat


def test_saturate_span_examples():
    assert saturate_span([(2, 0)]) == [(1, 0)]
    assert saturate_span([(2, 2)]) == [(1, 1)]
    sat = saturate_span([(1, 0), (0, 1)])
    assert abs(linalg.det(sat)) == 1  # a basis of Z^2, up to unimodular change


def test_saturate_span_is_saturated():
    rng = random.Random(4)
    done = 0
    while done < 20:
        n = rng.randint(2, 3)
        r = rng.randint(1, n)
        vs = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(r)]
        try:
            sat = saturate_span(vs)
        except DependentInput:
            continue
        # every original vector lies in the saturated lattice with
        # integer coordinates
        for v in vs:
            coords = _solve_coords(sat, v)
            assert coords is not None
            assert all(c.denominator == 1 for c in coords)
        # and the saturation together with its complement, the trailing
        # rows of u_inv, is unimodular
        comp = list(linalg.hermite(vs)[2][r:])
        assert abs(linalg.det(sat + comp)) == 1
        done += 1


def test_saturate_span_rejects_dependent():
    with pytest.raises(DependentInput):
        saturate_span([(1, 1), (2, 2)])


def test_primitive_vector():
    assert linalg.primitive_vector((F(2, 3), F(4, 3))) == (1, 2)
    assert linalg.primitive_vector((6, -9)) == (2, -3)
    with pytest.raises(DependentInput, match="zero vector"):
        linalg.primitive_vector((0, 0))


def random_matrix(rng, rows, cols, rank, rational):
    """Seeded rows x cols matrix of the given rank (with overwhelming
    probability), as a product of random rows x rank and rank x cols
    factors; integer entries unless rational."""
    def entry():
        return F(rng.randint(-3, 3), rng.randint(1, 3) if rational else 1)

    if rank == 0:
        return [[F(0)] * cols for _ in range(rows)]
    a = [[entry() for _ in range(rank)] for _ in range(rows)]
    b = [[entry() for _ in range(cols)] for _ in range(rank)]
    return [list(row) for row in linalg.mat_mul(a, b)]


def kernel_cases(seed, count, square=True):
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(1, 4)
        cols = n if square else rng.randint(1, 4)
        rank = rng.randint(0, min(n, cols)) if t % 3 == 0 else min(n, cols)
        yield rng, random_matrix(rng, n, cols, rank, rational=t % 2 == 1)


def test_det_and_rank_against_oracles():
    # det, with its sign, on integer and singular matrices, a rational one
    # entering with its rows scaled to integers, as for the adjugate; the
    # rank question the library asks, independence of the rows, is
    # hermite's
    singular = negative = rational = 0
    for _rng, m in kernel_cases(51, 120):
        rational += any(F(x).denominator != 1 for row in m for x in row)
        m = [list(linalg.clear_denominators(row)[0]) for row in m]
        assert linalg.det(m) == det_cofactor(m)
        singular += linalg.det(m) == 0
        negative += linalg.det(m) < 0
    for _rng, m in kernel_cases(52, 120, square=False):
        rows = [linalg.clear_denominators(row)[0] for row in m]
        if rank_by_minors(rows) < len(rows):
            with pytest.raises(DependentInput):
                linalg.hermite(rows)
        else:
            assert len(linalg.hermite(rows)[0]) == len(rows)
    assert singular >= 20 and negative >= 20 and rational >= 20
    for rows in ([[0, 0], [0, 0]], []):
        with pytest.raises(DependentInput):
            linalg.hermite(rows)


def test_adjugate_against_cofactors():
    # a rational matrix enters with its rows scaled to integers, as every
    # caller does; adj is the classical adjugate, whose (i, j) entry is the
    # signed cofactor of m at (j, i), and d is the signed determinant
    checked = 0
    for _rng, m in kernel_cases(54, 120):
        m = [list(linalg.clear_denominators(row)[0]) for row in m]
        n = len(m)
        det = det_cofactor(m)
        if det == 0:
            with pytest.raises(DependentInput):
                linalg.adjugate(m)
            continue
        adj, d = linalg.adjugate(m)
        assert d == det and type(d) is int
        assert all(type(x) is int for row in adj for x in row)
        for i in range(n):
            for j in range(n):
                minor = [[m[a][b] for b in range(n) if b != i] for a in range(n) if a != j]
                cofactor = (-1) ** (i + j) * (det_cofactor(minor) if minor else 1)
                assert adj[i][j] == cofactor
        scaled = [[d * int(i == j) for j in range(n)] for i in range(n)]
        assert [list(r) for r in linalg.mat_mul(m, adj)] == scaled
        assert [list(r) for r in linalg.mat_mul(adj, m)] == scaled
        checked += 1
    assert checked >= 60


def test_adjugate_of_a_negative_determinant():
    # the orientation survives: d is det m, not |det m|, and adj is the
    # classical adjugate, so both products are det * I
    cases = [([[0, 1], [1, 0]], -1), ([[2, 1], [1, -3]], -7),
             ([[1, 2, 0], [0, 1, 0], [3, 1, -2]], -2), ([[-5]], -5)]
    for m, det in cases:
        adj, d = linalg.adjugate(m)
        assert d == det == linalg.det(m) == det_cofactor(m)
        scaled = tuple(tuple(det * int(i == j) for j in range(len(m))) for i in range(len(m)))
        assert linalg.mat_mul(adj, m) == linalg.mat_mul(m, adj) == scaled
    assert linalg.adjugate([[0, 1], [1, 0]])[0] == ((0, -1), (-1, 0))


def test_solve_in_span_identities():
    # the oracles' Fraction solve is the reference behind cone membership
    # and the deformed-cone limit rule, so it is checked here in turn
    rng = random.Random(54)
    dependent = outside = 0
    for t in range(150):
        n = rng.randint(1, 4)
        r = rng.randint(1, n)
        basis = random_matrix(rng, r, n, rng.randint(0, r) if t % 4 == 0 else r, t % 2 == 1)
        a = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(r))
        w = tuple(sum(a[k] * basis[k][i] for k in range(r)) for i in range(n))
        if rng.random() < 0.4:
            w = tuple(x + rng.randint(-1, 1) for x in w)
        coords = _solve_coords(basis, w)
        if rank_by_minors(basis) < r:
            assert coords is None
            dependent += 1
        elif rank_by_minors(basis + [list(w)]) > r:
            assert coords is None
            outside += 1
        else:
            assert tuple(sum(coords[k] * basis[k][i] for k in range(r)) for i in range(n)) == w
    assert dependent and outside
    assert _solve_coords([], (0, 0)) == []
    assert _solve_coords([], (0, 1)) is None


def test_cosets_count_and_key():
    rng = random.Random(55)
    done = 0
    while done < 40:
        n = rng.randint(1, 4)
        cols = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        d = abs(int(det_cofactor(cols)))
        if d == 0:
            with pytest.raises(DependentInput):
                coset_lattice(cols, 2)
            continue
        for p in (None, 2, 3):
            h = linalg.hermite(cols)[0] if p is None else coset_lattice(cols, p)
            reps = hermite_box(h)

            def key(v):
                return coset_rep(h, v)

            expected = d
            if p is not None:
                expected = 1
                while d % (expected * p) == 0:
                    expected *= p
            assert len(reps) == expected
            assert all(isinstance(x, int) for rep in reps for x in rep)
            assert len({key(rep) for rep in reps}) == expected
            assert all(key(rep) == rep for rep in reps)
            # the key is constant on cosets of the column lattice
            for rep in reps[:5]:
                z = [rng.randint(-3, 3) for _ in range(n)]
                moved = tuple(x + y for x, y in zip(rep, linalg.mat_vec(cols, z)))
                assert key(moved) == key(rep)
        done += 1


def test_hermite_identities():
    rng = random.Random(57)
    square = rectangular = dependent = 0
    for t in range(160):
        m = rng.randint(1, 4)
        r = rng.randint(1, m)
        rank = rng.randint(0, r - 1) if t % 4 == 0 else r
        rows = [[int(x) for x in row] for row in random_matrix(rng, r, m, rank, rational=False)]
        if rank_by_minors(rows) < r:
            with pytest.raises(DependentInput):
                linalg.hermite(rows)
            dependent += 1
            continue
        h, u, u_inv, sign = linalg.hermite(rows)
        assert all(type(x) is int for mat in (h, u, u_inv) for row in mat for x in row)
        assert sign == det_cofactor(u)
        # rows * u = [h | 0]
        assert [list(x) for x in linalg.mat_mul(rows, u)] == [list(x) + [0] * (m - r) for x in h]
        assert all(h[i][j] == 0 for i in range(r) for j in range(i + 1, r))
        assert all(h[i][i] > 0 for i in range(r))
        assert [list(x) for x in linalg.mat_mul(u, u_inv)] == [list(e) for e in linalg.identity(m)]
        if r == m:
            diag = 1
            for i in range(r):
                diag *= h[i][i]
            assert diag == abs(det_cofactor(rows))
            square += 1
        else:
            rectangular += 1
    assert square >= 20 and rectangular >= 20 and dependent >= 20
    for rows in ([[1, 2], [3, 4], [5, 6]], [[1], [0]], []):
        with pytest.raises(DependentInput):
            linalg.hermite(rows)


def test_enumerate_fundamental_domain_against_box_scan():
    # two cells for each rank r = 0..n and each g = 1..4, with generators
    # w_i = g_i * s_i, g_0 = g and g_i <= g, so the periodic lift of the
    # cell of the s_i is checked on nontrivial Hermite boxes
    rng = random.Random(56)
    for n in range(1, 5):
        bound = 1 if n == 4 else 2
        for r in range(n + 1):
            for g in range(1, 5) if r else (1,):
                for _ in range(2):
                    while True:
                        ss = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(r)]
                        gs = [g] + [rng.randint(1, g) for _ in range(r - 1)]
                        ws = [tuple(gi * x for x in v) for gi, v in zip(gs, ss)]
                        box = prod(1 + sum(abs(w[j]) for w in ws) for j in range(n))
                        if box <= 400 and rank_by_minors(ws) == r:
                            break
                    assert enumerate_fundamental_domain(ws, n) == brute_cell_points(ws, n)
