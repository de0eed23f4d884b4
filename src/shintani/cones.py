"""Rational open simplicial cones and formal integer combinations of them.

An open cone C(v_1,...,v_r) is the set of strictly positive rational
combinations of r linearly independent generators; r = 0 denotes the origin
cone {0}, whose indicator is the delta at 0. Cone functions are finite
integer combinations of cone indicators, with the sign-twisted GL action

    (g . k)(v) = sign(det g) * k(g^{-1} v).

A cone is unchanged by a positive rescaling of a generator, so a cone
stores primitive integer generators.

Deformed cones nudge a full-dimensional cone by an auxiliary direction and
pick out a specific pattern of closed faces, weighted by the sign of the
generators' determinant: the cocycle's value on a column tuple, zero when
the columns are dependent. The direction is
q_eps = q + eps p_1 + eps^2 p_2 + ... + eps^n p_n for a rational q, an
invertible integer frame P = [p_1 ... p_n] (the identity by default) and an
infinitesimal eps > 0: no nonzero rational linear form vanishes on q_eps,
so it stands in exactly for an irrational vector and every q gets a verdict
(symbolic perturbation, Edelsbrunner and Muecke's "simulation of
simplicity"). A q off every face hyperplane never reads the frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import linalg
from .errors import DependentInput
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
            except DependentInput as exc:
                raise DependentInput("cone generators are linearly dependent") from exc
        object.__setattr__(self, "generators", tuple(gens))


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


def deformed_cone_decompose(
    gens: Sequence[Sequence], q: Sequence, frame: Sequence[Sequence[int]] | None = None
) -> ConeFunction:
    """The cocycle's value on n generators: sign(det) times the q_eps-deformed
    cone as a sum of open faces, zero on dependent generators, with
    q_eps = q + eps p_1 + ... + eps^n p_n for the columns p_k of the
    invertible integer frame (the identity when None).

    The nudged point w + delta*q_eps lies in the open cone for all small
    delta > 0 iff every coordinate of w in the generator basis has a_i > 0,
    or a_i = 0 and b_i > 0, where b = coords of q_eps. So a face
    C(v_i : i in S) is included exactly when every omitted index j has
    b_j > 0. With (adj, d) = linalg.adjugate of the primitive generators,
    one Hermite pass, b_j has the sign of d times the first nonzero entry of
    row j of adj * [s q | P], for the integer multiple s q of q; adj * P is
    nonsingular, so that entry exists, and the frame is read only when
    adj * (s q) has a zero entry.
    """
    n = len(gens[0])
    if any(len(g) != n for g in gens):
        raise ValueError("generators of mixed dimensions")
    if len(gens) != n:
        raise DependentInput("deformed cones require n generators")
    try:
        prims = [linalg.primitive_vector(g) for g in gens]
        adj, d = linalg.adjugate(linalg.transpose(prims))
    except DependentInput:
        return ConeFunction(())
    b = linalg.mat_vec(adj, linalg.clear_denominators(q)[0])
    if 0 in b:  # q lies on a face hyperplane: the frame breaks the tie
        tie = adj if frame is None else linalg.mat_mul(adj, frame)
        b = [x or next((y for y in row if y), 0) for x, row in zip(b, tie)]
        if 0 in b:
            raise DependentInput("the deformation frame is singular")
    sign = 1 if d > 0 else -1
    positive = [i for i in range(n) if sign * b[i] > 0]
    required = tuple(i for i in range(n) if sign * b[i] < 0)
    terms = []
    for k in range(len(positive) + 1):
        for extra in combinations(positive, k):
            idx = sorted(required + extra)
            terms.append((sign, OpenCone(tuple(prims[i] for i in idx))))
    return ConeFunction(tuple(terms))
