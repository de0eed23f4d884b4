import copy
import pickle
import random
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest

from shintani import linalg
from shintani.cones import OpenCone, deformed_cone
from shintani.errors import DependentInput

from oracles import (
    NonGenericDeformation,
    Wedge,
    act_on_cone_function,
    cf_add,
    cf_sub,
    cone_contains,
    deformed_cone_eval,
    det_cofactor,
    eval_cone_function,
    inverse,
    rank_by_minors,
    open_faces,
    outcome,
    reference_adjugate,
    reference_deformed_cone,
    reference_mat_mul,
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


def test_a_cone_is_a_read_only_dict_key():
    # cone functions are {OpenCone: coefficient} dicts: a cone compares and
    # hashes by its primitive generators, and cannot be changed once built
    cone = OpenCone(((2, 0), (0, 3)))
    assert cone == OpenCone(((1, 0), (0, 1))) != OpenCone(((0, 1), (1, 0)))
    assert hash(cone) == hash((((1, 0), (0, 1)),))
    assert {cone: 1}[OpenCone(((1, 0), (0, 5)))] == 1
    for attempt in (lambda: setattr(cone, "generators", ((1, 1),)),
                    lambda: delattr(cone, "generators"), lambda: setattr(cone, "other", 1)):
        with pytest.raises(AttributeError):
            attempt()
    assert cone.generators == ((1, 0), (0, 1))
    assert copy.copy(cone) == copy.deepcopy(cone) == pickle.loads(pickle.dumps(cone)) == cone


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
    assert eval_cone_function({}, (1, 0)) == 0
    k = cf_add({QUADRANT: 1}, {OpenCone((E1,)): 1})
    assert eval_cone_function(k, (1, 0)) == 1
    cancel = cf_sub({OpenCone((E1,)): 1}, {OpenCone((E1,)): 1})
    assert eval_cone_function(cancel, (1, 0)) == 0
    assert cancel == {}


def test_act_examples():
    k = {QUADRANT: 1}
    assert act_on_cone_function([[1, 0], [0, 1]], k) == k
    flipped = act_on_cone_function([[1, 0], [0, -1]], k)
    assert flipped == {OpenCone((E1, (F(0), F(-1)))): -1}
    scaled = act_on_cone_function([[2, 0], [0, 2]], {OpenCone((E1,)): 1})
    for w in [(1, 0), (3, 0), (0, 1), (-1, 0)]:
        assert eval_cone_function(scaled, w) == eval_cone_function({OpenCone((E1,)): 1}, w)


def test_act_eval_contract_and_composition():
    rng = random.Random(7)
    k = cf_add({QUADRANT: 1}, {OpenCone((E1,)): 1})
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
        gh = reference_mat_mul(g, h)
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
    k1 = open_faces(deformed_cone(gens, (F(-1, 2), F(1, 3))))
    assert sorted(cone.generators for cone in k1) == [
        (E1,),
        (E1, E2),
    ]
    # the half-open cone they come from: closed at e_2, the one face omitted
    assert deformed_cone(gens, (F(-1, 2), F(1, 3))) == (1, [E1, E2], frozenset({E2}))
    assert deformed_cone([E2, E1], (F(-1, 2), F(1, 3))) == (-1, [E2, E1], frozenset({E2}))
    assert deformed_cone([E1, E1], (F(-1, 2), F(1, 3))) is None
    k2 = open_faces(deformed_cone(gens, (F(1, 2), F(1, 3))))
    assert len(k2) == 4  # all four faces, including the origin
    k3 = open_faces(deformed_cone(gens, (F(-1, 2), F(-1, 3))))
    assert [cone.generators for cone in k3] == [(E1, E2)]
    # q on a face hyperplane: the frame breaks the tie. With the identity
    # frame, (0, 1) + eps e_1 has both coordinates positive, so all four
    # faces; with the frame columns (-1, 0), (0, 1), only the faces that
    # contain e_1; q = 0 reads the frame alone
    k4 = open_faces(deformed_cone(gens, (F(0), F(1))))
    assert sorted(cone.generators for cone in k4) == sorted(cone.generators for cone in k2)
    flip = ((-1, 0), (0, 1))
    k5 = open_faces(deformed_cone(gens, (F(0), F(1)), flip))
    assert sorted(cone.generators for cone in k5) == [(E1,), (E1, E2)]
    k6 = open_faces(deformed_cone(gens, (0, 0), flip))
    assert sorted(cone.generators for cone in k6) == [(E1,), (E1, E2)]
    assert list(open_faces(deformed_cone(gens, (0, 0))).items()) == list(k4.items())
    # a frame that does not break the tie is refused, not guessed
    with pytest.raises(DependentInput, match="frame is singular"):
        deformed_cone(gens, (0, 0), ((1, 0), (0, 0)))
    # a deformed cone is full-dimensional: n - 1 generators are refused
    with pytest.raises(DependentInput, match="^deformed cones require n generators$"):
        deformed_cone([E1], (F(-1, 2), F(1, 3)))
    # and no generator at all is a documented ValueError, not an IndexError
    with pytest.raises(ValueError, match="^a deformed cone needs at least one generator$"):
        deformed_cone([], ())
    # generators of two lengths are refused, before the deformation vector is read
    with pytest.raises(ValueError, match="^generators of mixed dimensions$"):
        deformed_cone([(1, 0), (0, 1, 0)], (1, 1))


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
        k = open_faces(deformed_cone(gens, q))
        for _ in range(10):
            w = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
            try:
                expected = deformed_cone_eval(gens, q, w)
            except NonGenericDeformation:
                continue
            # the faces sum to the cocycle's value: sign(det) times the cone
            assert eval_cone_function(k, w) == (1 if d > 0 else -1) * expected
        # support: every face uses a subset of the input rays, stored as
        # primitive generators
        for cone in k:
            assert set(cone.generators) <= {linalg.primitive_vector(g) for g in gens}
        done += 1


def test_deformed_decompose_is_the_signed_cocycle_value():
    q = (F(-1, 2), F(1, 3))
    # dependent generators give None, the zero cocycle value, not a refusal
    assert deformed_cone([E1, E1], q) is None
    assert deformed_cone([(1, 2), (-2, -4)], q) is None
    assert open_faces(None) == {}
    rank2 = [(1, 0, 1), (0, 1, 1), (1, 1, 2)]
    assert deformed_cone(rank2, (F(1, 7), F(2, 7), F(-3, 7))) is None
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
        faces = {frozenset(c.generators): x for c, x in open_faces(deformed_cone(gens, q)).items()}
        assert set(faces.values()) == {1 if d > 0 else -1}
        assert {frozenset(c.generators): -x
                for c, x in open_faces(deformed_cone(swapped, q)).items()} == faces
        swaps += 1


def _unimodular(rng, n):
    """A seeded integer matrix of determinant 1: elementary column operations on I."""
    g = [list(row) for row in linalg.identity(n)]
    for _ in range(3 * (n > 1)):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for row in g:
            row[j] += c * row[i]
    return g


def _on_a_face(rng, gens, i):
    """A rational q in the span of every generator but the i-th: b_i = 0."""
    cs = [F(rng.randint(-5, 5), rng.randint(1, 3)) * (j != i) for j in range(len(gens))]
    return tuple(sum(c * x for c, x in zip(cs, row)) for row in zip(*gens))


def _generic(rng, n):
    return tuple(F(rng.randint(-30, 30) * 2 + 1, rng.choice((7, 11, 13))) for _ in range(n))


def test_deformed_cone_matches_its_reference():
    # deformed_cone finds adj (s q) by forward substitution, and adj P the
    # same way only on a tie; against the kernel that built adj for every q,
    # result for result and refusal for refusal: n = 1-4, generators of both
    # orientations and dependent ones (a zero generator or a combination),
    # q off and on face hyperplanes and q = 0, with no frame, the identity
    # frame, adj(g) for a unimodular g, and singular frames
    rng = random.Random(3506)
    seen = Counter()
    for t in range(720):
        n = 1 + t % 4
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if t % 6 == 0:
            gens[rng.randrange(n)] = [0] * n
        elif t % 6 == 1:
            gens[-1] = [sum(rng.randint(-2, 2) * g[k] for g in gens[:-1]) for k in range(n)]
        q = (_generic(rng, n), _on_a_face(rng, gens, rng.randrange(n)), (0,) * n)[t // 4 % 3]
        frame = (None, linalg.identity(n), linalg.adjugate(_unimodular(rng, n))[0],
                 [[0] * n for _ in range(n)],
                 [[x * c for x in row] for c, row in zip([0, *range(1, n)], _unimodular(rng, n))]
                 )[t // 12 % 5]
        want = outcome(reference_deformed_cone, gens, q, frame)
        assert outcome(deformed_cone, gens, q, frame) == want, (gens, q, frame)
        if want == ("value", None):
            seen["dependent"] += 1
            continue
        adj, d = reference_adjugate(linalg.transpose(gens))
        tie = 0 in linalg.mat_vec(adj, q)
        seen["tie" if tie else "off every face"] += 1
        seen["refused" if want[0] == "raised" else "det > 0" if d > 0 else "det < 0"] += 1
    assert min(seen.values()) >= 40, seen
    assert outcome(deformed_cone, [[1, 0], [0, 1]], (0, 0), [[1, 2], [0, 0]]) == (
        "raised", DependentInput, "the deformation frame is singular")


def test_det_and_open_cones_need_no_hermite_pass(monkeypatch):
    # det and OpenCone's independence check read d alone: they answer, and
    # refuse what they refused, with linalg.hermite building no u
    kernel, calls = linalg.hermite, []

    def spy(rows, with_u=False):
        if with_u:
            raise AssertionError("a Hermite pass built u")
        calls.append(len(rows))
        return kernel(rows)

    monkeypatch.setattr(linalg, "hermite", spy)
    rng = random.Random(3507)
    for n in range(1, 5):
        for _ in range(20):
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert linalg.det(m) == det_cofactor(m), m
    with pytest.raises(ValueError, match="^determinant of a non-square matrix$"):
        linalg.det([[1, 0, 2], [0, 1, 3]])
    assert OpenCone(((2, 0), (1, 1))).generators == ((1, 0), (1, 1))
    for gens in (((1, 2), (-2, -4)), ((0, 0),), ((1, 0), (0, 1), (1, 1))):
        with pytest.raises(DependentInput, match="^cone generators are linearly dependent$"):
            OpenCone(gens)
    assert len(calls) == 80 + 3  # the 80 determinants and the cones with nonzero generators


def test_deformed_cone_runs_one_hermite_pass_and_builds_no_adjugate(monkeypatch):
    # off every face hyperplane the cone is read off u and one forward
    # substitution, and on a tie off the same u and the substitutions of the
    # frame's columns: either way linalg.hermite runs once and linalg.adjugate
    # never, with no frame and with adj(g) for a unimodular g
    def refuse(*_args):
        raise AssertionError("the whole adjugate was built")

    rng = random.Random(3508)
    cases = []
    while len(cases) < 40:
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)]
        off, on = _generic(rng, n), _on_a_face(rng, gens, rng.randrange(n))
        frame = (None, reference_adjugate(_unimodular(rng, n))[0])[len(cases) % 2]
        if linalg.det(gens) == 0:
            continue
        if 0 not in linalg.mat_vec(reference_adjugate(linalg.transpose(gens))[0], off):
            cases.append((gens, off, on, frame))
    kernel, calls = linalg.hermite, []

    def spy(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(linalg, "adjugate", refuse)
    monkeypatch.setattr(linalg, "hermite", spy)
    for gens, off, on, frame in cases:
        for q in (off, on):
            calls.clear()
            assert deformed_cone(gens, q, frame) == reference_deformed_cone(gens, q, frame)
            assert len(calls) == 1, (gens, q)


def test_wedge_examples():
    line = wedge_decompose(Wedge(((F(1),),)))
    assert sorted(cone.generators for cone in line) == [
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
