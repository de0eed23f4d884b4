"""Rational open simplicial cones and formal integer combinations of them.

An open cone C(v_1,...,v_r) is the set of strictly positive rational
combinations of r linearly independent generators; r = 0 denotes the origin
cone {0}, whose indicator is the delta at 0. Cone functions are finite
integer combinations of cone indicators, with the sign-twisted GL action

    (g . k)(v) = sign(det g) * k(g^{-1} v).

A cone is unchanged by a positive rescaling of a generator, so a cone
stores primitive integer generators.

Deformed cones nudge a full-dimensional cone by an auxiliary direction q and
pick out a specific pattern of closed faces; q is a rational stand-in for an
irrational vector, so degeneracy is detected per query and reported as
NonGenericDeformation rather than silently resolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import linalg
from .errors import DependentInput, NonGenericDeformation, ZeroDirection
from .linalg import IntVec

DeformationVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class OpenCone:
    """Open simplicial cone given by its tuple of generators, each stored as
    the primitive integer vector on its ray."""

    generators: tuple[IntVec, ...]

    def __post_init__(self):
        gens = self.generators
        if gens:
            n = len(gens[0])
            if any(len(g) != n for g in gens):
                raise ValueError("generators of mixed dimensions")
            try:
                gens = tuple(linalg.primitive_vector(g) for g in gens)
                linalg.hermite(gens)
            except (ZeroDirection, DependentInput) as exc:
                raise DependentInput("cone generators are linearly dependent") from exc
        object.__setattr__(self, "generators", tuple(gens))

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

    generators: tuple[IntVec, ...]

    def __post_init__(self):
        gens = self.generators
        if not gens or len(gens) != len(gens[0]):
            raise DependentInput("a wedge needs n independent generators")
        object.__setattr__(self, "generators", OpenCone(tuple(gens)).generators)


def deformed_cone_decompose(gens: Sequence[Sequence], q: Sequence) -> ConeFunction:
    """Write the q-deformed full-dimensional cone as a sum of open faces.

    The nudged point w + eps*q lies in the open cone for all small eps > 0
    iff every coordinate of w in the generator basis has a_i > 0, or a_i = 0
    and b_i > 0, where b = coords of q. So a face C(v_i : i in S) is
    included exactly when every omitted index j has b_j > 0. Only the signs
    of b matter, and they are those of adj * (s q) for the primitive
    generators and the integer multiple s q of q.
    """
    prims = OpenCone(tuple(gens)).generators
    n = len(prims[0])
    if len(prims) != n:
        raise DependentInput("deformed cones require n generators")
    adj, _d = linalg.adjugate(linalg.transpose(prims))
    b = linalg.mat_vec(adj, linalg.clear_denominators(q)[0])
    if 0 in b:
        raise NonGenericDeformation(
            "deformation vector lies on a face hyperplane; re-sample q"
        )
    positive = [i for i in range(n) if b[i] > 0]
    required = tuple(i for i in range(n) if b[i] < 0)
    terms = []
    for k in range(len(positive) + 1):
        for extra in combinations(positive, k):
            idx = sorted(required + extra)
            terms.append((1, OpenCone(tuple(prims[i] for i in idx))))
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
