"""Rational open simplicial cones and formal integer sums of them.

An open cone C(v_1,...,v_r) is the set of sums a_1 v_1 + ... + a_r v_r, all
a_i > 0 rational, of r linearly independent generators; r = 0 denotes the
origin cone {0}, whose indicator is the delta at 0. Cone functions are
finite integer sums of cone indicators, held as plain {OpenCone:
coefficient} dicts, with the sign-twisted GL action

    (g . k)(v) = sign(det g) * k(g^{-1} v).

A cone is unchanged by a positive rescaling of a generator, so a cone
stores primitive integer generators, in the order given: two orders of one
cone are two dict keys.

A deformed cone nudges a full-dimensional cone by an auxiliary direction:
it is half-open, closed at the generators the direction points into
(deformed_cone), and weighted by the sign of the generators' determinant it
is the cocycle's value on a column tuple, zero when the columns are
dependent. It is paired as one half-open cell, never expanded into open
faces, so the library builds an OpenCone only from CLI input. The direction
is q_eps = q + eps p_1 + eps^2 p_2 + ... + eps^n p_n for a rational q, an
invertible integer frame P = [p_1 ... p_n] (the identity by default) and an
infinitesimal eps > 0: no nonzero rational linear form vanishes on q_eps,
so it stands in exactly for an irrational vector and every q gets a verdict
(symbolic perturbation, Edelsbrunner and Muecke's "simulation of
simplicity"). A q off every face hyperplane reads no frame.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from . import linalg
from .errors import DependentInput, _ReadOnly
from .linalg import IntVec

DeformationVector = tuple[Fraction, ...]
DeformedCone = tuple[int, list[IntVec], frozenset[IntVec]]  # (sign, prims, closed)


class OpenCone(_ReadOnly):
    """Open simplicial cone given by its tuple of generators, each stored as
    the primitive integer vector on its ray. Read-only; equal generators make
    equal cones."""

    __slots__ = ("generators",)

    def __init__(self, generators: tuple[IntVec, ...]):
        if generators:
            n = len(generators[0])
            if any(len(g) != n for g in generators):
                raise ValueError("generators of mixed dimensions")
            try:
                generators = tuple(linalg.primitive_vector(g) for g in generators)
                linalg.hermite(generators)  # independence alone: no u is built
            except DependentInput as exc:
                raise DependentInput("cone generators are linearly dependent") from exc
        object.__setattr__(self, "generators", tuple(generators))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self):
        return hash((self.generators,))


def deformed_cone(
    gens: Sequence[Sequence], q: Sequence, frame: Sequence[Sequence[int]] | None = None
) -> DeformedCone | None:
    """The cocycle's value on n generators as (sign, prims, closed), None on
    dependent ones: sign(det) times the q_eps-deformed cone on the primitive
    generators prims, closed at those in `closed` and open at the others,
    for the frame P (the identity when None). No generators, or a q or a
    frame not of the generators' length n, raise ValueError.

    w + delta*q_eps lies in the open cone for all small delta > 0 iff each
    coordinate a_i of w in the generator basis is positive, or zero with
    b_i > 0 for b = coords of q_eps: generator i is closed iff b_i > 0.
    With d = det m and adj its adjugate, m the matrix with columns prims,
    b_i has the sign of d times the first nonzero entry of row i of
    adj * [s q | P] for the integer multiple s q of q; adj * P is
    nonsingular, so it exists. m * u = h (u built) and forward
    substitution give adj * v = u * d h^-1 v, for v = s q and, only when
    that has a zero entry, for the columns of P: adj itself is never built.
    """
    if not gens:
        raise ValueError("a deformed cone needs at least one generator")
    n = len(gens[0])
    if any(len(g) != n for g in gens):
        raise ValueError("generators of mixed dimensions")
    if len(q) != n:
        raise ValueError(f"a deformation vector of length {len(q)} for generators of length {n}")
    if frame is not None and (len(frame) != n or any(len(row) != n for row in frame)):
        raise ValueError(f"a deformation frame that is not {n} x {n}")
    if len(gens) != n:
        raise DependentInput("deformed cones require n generators")
    try:
        prims = [linalg.primitive_vector(g) for g in gens]
        h, u, d = linalg.hermite(linalg.transpose(prims), with_u=True)
    except DependentInput:
        return None
    b = linalg.mat_vec(u, linalg.triangular_solve(h, d, linalg.clear_denominators(q)))
    if 0 in b:  # q lies on a face hyperplane: the frame breaks the tie
        cols = [linalg.mat_vec(u, linalg.triangular_solve(h, d, p))  # adj * p for P's columns p
                for p in (linalg.identity(n) if frame is None else linalg.transpose(frame))]
        b = [x or next((y for y in row if y), 0) for x, row in zip(b, zip(*cols))]
        if 0 in b:
            raise DependentInput("the deformation frame is singular")
    sign = 1 if d > 0 else -1
    return sign, prims, frozenset(s for s, x in zip(prims, b) if sign * x > 0)

