import random
from fractions import Fraction as F
from math import gcd

import pytest

from shintani import linalg
from shintani.cones import ConeFunction, OpenCone, deformed_cone_decompose
from shintani.errors import DependentInput

from oracles import (
    CF,
    NonGenericDeformation,
    Wedge,
    act_on_cone_function,
    cone_contains,
    deformed_cone_eval,
    eval_cone_function,
    inverse,
    rank_by_minors,
    wedge_decompose,
)

E1 = (F(1), F(0))
E2 = (F(0), F(1))
QUADRANT = OpenCone((E1, E2))


def test_cone_contains_examples():
    assert cone_contains(QUADRANT, (1, 1))
    assert not cone_contains(QUADRANT, (1, 0))  # boundary
    ray = OpenCone(((F(1), F(1)),))
    assert cone_contains(ray, (2, 2))
    assert not cone_contains(ray, (1, 2))  # off the span
    origin = OpenCone(())
    assert cone_contains(origin, (0, 0))
    assert not cone_contains(origin, (1, 0))


def test_cone_rejects_dependent_generators():
    for gens in (((F(1), F(0)), (F(2), F(0))), ((0, 0),), ((1, 0), (0, 0)),
                 ((1, 0), (0, 1), (1, 1))):
        with pytest.raises(DependentInput, match="^cone generators are linearly dependent$"):
            OpenCone(gens)
    with pytest.raises(ValueError, match="^generators of mixed dimensions$"):
        OpenCone(((1, 0), (0, 1, 0)))


def test_cone_stores_primitive_generators():
    # positive rescaling changes no cone: a cone of rescaled generators is
    # the cone of their primitive vectors, in the given order
    rng = random.Random(13)
    done = 0
    while done < 40:
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(r)]
        if rank_by_minors(gens) < r:
            continue
        scales = [F(rng.randint(1, 5), rng.randint(1, 4)) for _ in gens]
        cone = OpenCone(tuple(tuple(s * x for x in g) for g, s in zip(gens, scales)))
        assert cone == OpenCone(tuple(linalg.primitive_vector(g) for g in gens))
        assert [tuple(x // gcd(*g) for x in g) for g in gens] == list(cone.generators)
        assert all(type(x) is int for g in cone.generators for x in g)
        if r == n:
            assert Wedge(cone.generators).generators == cone.generators
        done += 1


def test_eval_cone_function():
    assert eval_cone_function(ConeFunction(()), (1, 0)) == 0
    k = CF.of(QUADRANT) + CF.of(OpenCone((E1,)))
    assert eval_cone_function(k, (1, 0)) == 1
    cancel = CF.of(OpenCone((E1,))) - ConeFunction(((1, OpenCone((E1,))),))
    assert eval_cone_function(cancel, (1, 0)) == 0
    assert cancel.terms == ()


def test_act_examples():
    k = ConeFunction(((1, QUADRANT),))
    assert act_on_cone_function([[1, 0], [0, 1]], k) == k
    flipped = act_on_cone_function([[1, 0], [0, -1]], k)
    assert flipped.terms == ((-1, OpenCone((E1, (F(0), F(-1))))),)
    scaled = act_on_cone_function([[2, 0], [0, 2]], ConeFunction(((1, OpenCone((E1,))),)))
    for w in [(1, 0), (3, 0), (0, 1), (-1, 0)]:
        assert eval_cone_function(scaled, w) == eval_cone_function(
            ConeFunction(((1, OpenCone((E1,))),)), w
        )


def test_act_eval_contract_and_composition():
    rng = random.Random(7)
    k = CF.of(QUADRANT) + CF.of(OpenCone((E1,)))
    done = 0
    while done < 25:
        g = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        h = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        if linalg.det(g) == 0 or linalg.det(h) == 0:
            continue
        gk = act_on_cone_function(g, k)
        # eval(act(g, k), w) = sign(det g) * eval(k, g^-1 w)
        sign = 1 if linalg.det(g) > 0 else -1
        g_inv = inverse(g)
        for _ in range(5):
            w = (F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
            assert eval_cone_function(gk, w) == sign * eval_cone_function(
                k, linalg.mat_vec(g_inv, w)
            )
        gh = linalg.mat_mul(g, h)
        lhs = act_on_cone_function(gh, k)
        rhs = act_on_cone_function(g, act_on_cone_function(h, k))
        for _ in range(5):
            w = (F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
            assert eval_cone_function(lhs, w) == eval_cone_function(rhs, w)
        done += 1


def test_deformed_eval_examples():
    gens = [E1, E2]
    assert deformed_cone_eval(gens, (F(-1, 2), F(1, 3)), (1, 0)) == 1
    assert deformed_cone_eval(gens, (F(-1, 2), F(1, 3)), (0, 1)) == 0
    with pytest.raises(NonGenericDeformation):
        deformed_cone_eval(gens, (F(0), F(1)), (0, 1))


def test_deformed_decompose_examples():
    gens = [E1, E2]
    k1 = deformed_cone_decompose(gens, (F(-1, 2), F(1, 3)))
    assert sorted(cone.generators for _c, cone in k1.terms) == [
        (E1,),
        (E1, E2),
    ]
    k2 = deformed_cone_decompose(gens, (F(1, 2), F(1, 3)))
    assert len(k2.terms) == 4  # all four faces, including the origin
    k3 = deformed_cone_decompose(gens, (F(-1, 2), F(-1, 3)))
    assert [cone.generators for _c, cone in k3.terms] == [(E1, E2)]
    # q on a face hyperplane: the frame breaks the tie. With the identity
    # frame, (0, 1) + eps e_1 has both coordinates positive, so all four
    # faces; with the frame columns (-1, 0), (0, 1), only the faces that
    # contain e_1; q = 0 reads the frame alone
    k4 = deformed_cone_decompose(gens, (F(0), F(1)))
    assert sorted(cone.generators for _c, cone in k4.terms) == sorted(
        cone.generators for _c, cone in k2.terms)
    flip = ((-1, 0), (0, 1))
    k5 = deformed_cone_decompose(gens, (F(0), F(1)), flip)
    assert sorted(cone.generators for _c, cone in k5.terms) == [(E1,), (E1, E2)]
    k6 = deformed_cone_decompose(gens, (0, 0), flip)
    assert sorted(cone.generators for _c, cone in k6.terms) == [(E1,), (E1, E2)]
    assert deformed_cone_decompose(gens, (0, 0)).terms == k4.terms
    # a frame that does not break the tie is refused, not guessed
    with pytest.raises(DependentInput, match="frame is singular"):
        deformed_cone_decompose(gens, (0, 0), ((1, 0), (0, 0)))
    # a deformed cone is full-dimensional: n - 1 generators are refused
    with pytest.raises(DependentInput, match="^deformed cones require n generators$"):
        deformed_cone_decompose([E1], (F(-1, 2), F(1, 3)))


def test_deformed_decompose_matches_eval_pointwise():
    rng = random.Random(11)
    done = 0
    while done < 60:
        n = rng.randint(1, 3)
        gens = [tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n)]
        d = linalg.det(linalg.int_mat(gens))
        if d == 0:
            continue
        q = tuple(F(rng.randint(-20, 20) * 2 + 1, rng.choice((7, 11, 13))) for _ in range(n))
        k = deformed_cone_decompose(gens, q)
        for _ in range(10):
            w = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
            try:
                expected = deformed_cone_eval(gens, q, w)
            except NonGenericDeformation:
                continue
            # the decomposer is the cocycle's value: sign(det) times the cone
            assert eval_cone_function(k, w) == (1 if d > 0 else -1) * expected
        # support: every face uses a subset of the input rays, stored as
        # primitive generators
        for _c, cone in k.terms:
            assert set(cone.generators) <= {linalg.primitive_vector(g) for g in gens}
        done += 1


def test_deformed_decompose_is_the_signed_cocycle_value():
    q = (F(-1, 2), F(1, 3))
    # dependent generators give the zero cone function, not a refusal
    assert deformed_cone_decompose([E1, E1], q) == ConeFunction(())
    assert deformed_cone_decompose([(1, 2), (-2, -4)], q) == ConeFunction(())
    rank2 = [(1, 0, 1), (0, 1, 1), (1, 1, 2)]
    assert deformed_cone_decompose(rank2, (F(1, 7), F(2, 7), F(-3, 7))) == ConeFunction(())
    # swapping two generators negates every coefficient and keeps the faces
    rng = random.Random(12)
    swaps = 0
    while swaps < 40:
        n = rng.randint(2, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        d = linalg.det(gens)
        if d == 0:
            continue
        q = tuple(F(rng.randint(-20, 20), rng.choice((1, 7, 11))) for _ in range(n))
        i, j = rng.sample(range(n), 2)
        swapped = list(gens)
        swapped[i], swapped[j] = gens[j], gens[i]
        faces = {frozenset(c.generators): x for x, c in deformed_cone_decompose(gens, q).terms}
        assert set(faces.values()) == {1 if d > 0 else -1}
        assert {frozenset(c.generators): -x
                for x, c in deformed_cone_decompose(swapped, q).terms} == faces
        swaps += 1


def test_wedge_examples():
    line = wedge_decompose(Wedge(((F(1),),)))
    assert sorted(cone.generators for _c, cone in line.terms) == [
        (),
        ((F(-1),),),
        ((F(1),),),
    ]
    w = wedge_decompose(Wedge((E1, E2)))
    assert eval_cone_function(w, (-1, 1)) == 1
    assert eval_cone_function(w, (1, -1)) == 0
    assert eval_cone_function(w, (5, 2)) == 1
    assert eval_cone_function(w, (0, 1)) == 1  # on the doubled line's face
    with pytest.raises(DependentInput):
        Wedge((E1,))
