"""Rational open simplicial cones and formal integer combinations of them.

An open cone C(v_1,...,v_r) is the set of strictly positive rational
combinations of r linearly independent generators; r = 0 denotes the origin
cone {0}, whose indicator is the delta at 0. Cone functions are finite
integer combinations of cone indicators, with the sign-twisted GL action

    (g . k)(v) = sign(det g) * k(g^{-1} v).

Deformed cones nudge a full-dimensional cone by an auxiliary direction q and
pick out a specific pattern of closed faces; q is a rational stand-in for an
irrational vector, so degeneracy is detected per query and reported as
NonGenericDeformation rather than silently resolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from . import linalg
from .errors import DependentInput, NonGenericDeformation, SingularMatrix
from .linalg import Vec

DeformationVector = Vec


@dataclass(frozen=True)
class OpenCone:
    """Open simplicial cone given by its tuple of generators."""

    generators: tuple[Vec, ...]

    def __post_init__(self):
        gens = tuple(linalg.vec(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if gens:
            n = len(gens[0])
            if any(len(g) != n for g in gens):
                raise ValueError("generators of mixed dimensions")
            if len(gens) > n:
                raise DependentInput("more generators than the ambient dimension")
            if linalg.rank(gens) != len(gens):
                raise DependentInput("cone generators are linearly dependent")

    @property
    def rank(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class ConeFunction:
    """Finite integer combination of open-cone indicators.

    Terms with equal generator tuples are merged and zero coefficients
    dropped, but no geometric canonicalization is attempted: two cone
    functions can be pointwise equal without comparing equal.
    """

    terms: tuple[tuple[int, OpenCone], ...]

    def __post_init__(self):
        merged: dict[OpenCone, int] = {}
        for coeff, cone in self.terms:
            merged[cone] = merged.get(cone, 0) + coeff
        cleaned = tuple((c, cone) for cone, c in merged.items() if c != 0)
        object.__setattr__(self, "terms", cleaned)

    def __add__(self, other: "ConeFunction") -> "ConeFunction":
        return ConeFunction(self.terms + other.terms)

    def __neg__(self) -> "ConeFunction":
        return ConeFunction(tuple((-c, cone) for c, cone in self.terms))

    def __sub__(self, other: "ConeFunction") -> "ConeFunction":
        return self + (-other)

    def scale(self, c: int) -> "ConeFunction":
        return ConeFunction(tuple((c * coeff, cone) for coeff, cone in self.terms))

    @staticmethod
    def zero() -> "ConeFunction":
        return ConeFunction(())

    @staticmethod
    def of(cone: OpenCone, coeff: int = 1) -> "ConeFunction":
        return ConeFunction(((coeff, cone),))


@dataclass(frozen=True)
class Wedge:
    """Cone with the first generator's ray doubled to a full line:
    R*v_1 + R_+*v_2 + ... + R_+*v_n."""

    generators: tuple[Vec, ...]

    def __post_init__(self):
        gens = tuple(linalg.vec(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens or len(gens) != len(gens[0]):
            raise DependentInput("a wedge needs n independent generators")
        OpenCone(gens)  # reuse the independence check


def cone_contains(c: OpenCone, w: Sequence) -> bool:
    """Membership of w in the open cone: strictly positive coordinates in
    the generator basis (and, for r < n, lying in the span at all)."""
    wv = linalg.vec(w)
    if c.rank == 0:
        return all(x == 0 for x in wv)
    coords = linalg.solve_in_span(c.generators, wv)
    if coords is None:
        return False
    return all(a > 0 for a in coords)


def eval_cone_function(k: ConeFunction, w: Sequence) -> int:
    wv = linalg.vec(w)
    return sum(c for c, cone in k.terms if cone_contains(cone, wv))


def act_on_cone_function(g: Sequence[Sequence], k: ConeFunction) -> ConeFunction:
    """Sign-twisted pushforward: generators map through g, coefficients pick
    up sign(det g). Satisfies (g.k)(v) = sign(det g) * k(g^{-1} v)."""
    d = linalg.det(g)
    if d == 0:
        raise SingularMatrix("group action by a singular matrix")
    sign = 1 if d > 0 else -1
    terms = []
    for coeff, cone in k.terms:
        new_gens = tuple(linalg.vec(linalg.mat_vec(g, v)) for v in cone.generators)
        terms.append((sign * coeff, OpenCone(new_gens)))
    return ConeFunction(tuple(terms))


def deformed_cone_eval(gens: Sequence[Sequence], q: Sequence, w: Sequence) -> int:
    """Indicator of the q-deformed full-dimensional cone at w.

    With a = coords of w and b = coords of q in the generator basis, the
    nudged point w + eps*q lies in the open cone for all small eps > 0 iff
    every coordinate has a_i > 0, or a_i = 0 and b_i > 0.
    """
    gl = [linalg.vec(g) for g in gens]
    n = len(gl[0])
    if len(gl) != n:
        raise DependentInput("deformed cones require n generators")
    cols = linalg.transpose(gl)
    try:
        a = linalg.solve(cols, linalg.vec(w))
        b = linalg.solve(cols, linalg.vec(q))
    except SingularMatrix as exc:
        raise DependentInput("deformed cone generators are dependent") from exc
    for ai, bi in zip(a, b):
        if ai == 0 and bi == 0:
            raise NonGenericDeformation(
                "deformation vector lies on a face hyperplane; re-sample q"
            )
    return 1 if all(ai > 0 or (ai == 0 and bi > 0) for ai, bi in zip(a, b)) else 0


def deformed_cone_decompose(gens: Sequence[Sequence], q: Sequence) -> ConeFunction:
    """Write the q-deformed cone as a sum of open faces.

    A face C(v_i : i in S) is included exactly when every omitted index j
    has b_j > 0, where b = coords of q in the generator basis. The result
    evaluates pointwise identically to deformed_cone_eval.
    """
    gl = [linalg.vec(g) for g in gens]
    n = len(gl[0])
    if len(gl) != n:
        raise DependentInput("deformed cones require n generators")
    cols = linalg.transpose(gl)
    try:
        b = linalg.solve(cols, linalg.vec(q))
    except SingularMatrix as exc:
        raise DependentInput("deformed cone generators are dependent") from exc
    if any(bi == 0 for bi in b):
        raise NonGenericDeformation(
            "deformation vector lies on a face hyperplane; re-sample q"
        )
    positive = [i for i in range(n) if b[i] > 0]
    required = tuple(i for i in range(n) if b[i] < 0)
    terms = []
    for k in range(len(positive) + 1):
        for extra in combinations(positive, k):
            idx = sorted(required + extra)
            terms.append((1, OpenCone(tuple(gl[i] for i in idx))))
    return ConeFunction(tuple(terms))


def wedge_decompose(w: Wedge) -> ConeFunction:
    """Indicator of a wedge as a sum of three open cones, split by the sign
    of the coordinate along the doubled first generator."""
    gens = w.generators
    v1 = gens[0]
    return ConeFunction(
        (
            (1, OpenCone(gens)),
            (1, OpenCone((tuple(-x for x in v1),) + gens[1:])),
            (1, OpenCone(gens[1:])),
        )
    )
