"""Deformed-cone cocycle evaluation and exact verification harnesses.

The cocycle sends an n-tuple of invertible matrices and a deformation
vector q to sign(det) times the q-deformed half-open cone on the first
columns, zero when they are dependent (cones.deformed_cone, one Hermite
pass per column tuple). The harnesses pair that cone with a step function
as one half-open cell (solomon_hu.pair_half_open) and check, exactly:

  * the homogeneous cocycle identity (the alternating sum over an
    (n+1)-tuple reduces to an integer multiple of delta_0),
  * equivariance under stabilizing elements of GL_n(Z),
  * that the paired cocycle value (psi_cdg) passes both measure criteria
    when the vanishing hypothesis holds for e_1.

Every operation takes an explicit rational q, never a function of q, and
deforms along q_eps = q + eps p_1 + ... + eps^n p_n, so every q, q = 0
included, gets an exact verdict. psi_cdg(matrices, q),
verify_cocycle(f, matrices, q) and verify_equivariance(f, g, matrices, q)
each check once, before any pairing, that their integer matrices are
invertible and n x n (n = f.n, or the number of matrices in psi_cdg), and
read q through Fraction, and verify_measure_valued(f, samples, q) checks
q's length before any trial.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction

from . import linalg
from .amice import is_measure_amice, is_measure_vh
from .cones import DeformationVector, DeformedCone, deformed_cone
from .errors import NotStabilizer
from .linalg import IntVec
from .solomon_hu import (
    PseudoMeasure,
    act_pm,
    pair_half_open,
    pm_eq,
    pm_is_integer_constant,
    pm_sum,
    pm_zero,
)
from .testfunctions import TestFunction, random_congruence_element, stabilizes


def _columns(matrices: Sequence, q: Sequence, n: int) -> tuple[list[IntVec], DeformationVector]:
    """The first columns of the matrices, and q as Fractions; a matrix that
    is not an invertible n x n integer matrix raises ValueError."""
    mats = [linalg.int_mat(m) for m in matrices]
    if bad := [list(map(len, m)) for m in mats if {len(m), *map(len, m)} != {n}]:
        raise ValueError(f"a matrix with rows of lengths {bad[0]} is not {n} x {n}")
    if any(linalg.det(m) == 0 for m in mats):
        raise ValueError("cocycle arguments must be invertible")
    return [tuple(row[0] for row in m) for m in mats], tuple(Fraction(x) for x in q)


def psi_cdg(matrices: Sequence, q: Sequence) -> DeformedCone | None:
    """cones.deformed_cone on the first columns of the n invertible integer
    matrices, deformed along q (rationals, or anything Fraction reads).

    None when the first columns are dependent (in particular on mirabolic
    tuples in dimension at least 2, where all the columns equal e_1); no
    matrices raise ValueError."""
    return deformed_cone(*_columns(matrices, q, len(matrices)))


def _paired(f: TestFunction, gens: Sequence, q: Sequence, frame=None) -> PseudoMeasure:
    """cones.deformed_cone paired with f, unsigned, and zero on dependent gens."""
    cone = deformed_cone(gens, q, frame)
    return pm_zero() if cone is None else pair_half_open(frozenset(cone[1]), cone[2], f)


def _alternating_sum(
    f: TestFunction, matrices: Sequence, q: Sequence, corrupt_sign: bool = False
) -> tuple[PseudoMeasure, list[DeformedCone | None]]:
    """The alternating sum over the n + 1 matrices and its n + 1 signed deformed
    cones (coefficient, prims, closed), None on dependent columns, a failed CLI
    trial's witness: the sum of coefficient * pair_half_open(frozenset(prims), closed, f)."""
    cols, q = _columns(matrices, q, f.n)  # each matrix is checked once
    cones = []
    for i in range(len(cols)):  # (-1)^i sign(det), and corrupt_sign flips the first
        c = deformed_cone(cols[:i] + cols[i + 1:], q)
        cones.append(c and ((-1) ** i * c[0] * (-1 if corrupt_sign and i == 0 else 1), *c[1:]))
    # the total's denominator is the union of the nonzero terms' denominators,
    # so a term that pairs to zero adds no factor to it
    return pm_sum([(c, pair_half_open(frozenset(prims), closed, f))
                   for c, prims, closed in filter(None, cones)]), cones


def verify_cocycle(
    f: TestFunction,
    matrices: Sequence,
    q: Sequence,
    corrupt_sign: bool = False,
) -> tuple[PseudoMeasure, list[DeformedCone | None]] | None:
    """Check the homogeneous cocycle identity for one (n+1)-tuple at q:
    None when it holds, else the witness (total, cones) of _alternating_sum.

    The alternating sum of the paired values must be an integer multiple of
    delta_0; `corrupt_sign` flips one term as a negative control. Every
    term is deformed along q with the identity frame.
    """
    witness = _alternating_sum(f, matrices, q, corrupt_sign)
    return None if pm_is_integer_constant(witness[0]) is not None else witness


def sample_deformation(n: int, rng: random.Random) -> DeformationVector:
    """Random rational vector with spread denominators.

    Any q gets a verdict, since the frame breaks every tie. The CLI draws
    one vector per trial and then one for the measure check from one rng."""
    primes = (7, 11, 13, 17, 19, 23)
    return tuple(
        Fraction(rng.randint(-30, 30) * 2 + 1, rng.choice(primes)) for _ in range(n)
    )


def verify_equivariance(
    f: TestFunction, g: Sequence[Sequence[int]], matrices: Sequence, q: Sequence
) -> bool:
    """Check phi(g a_1, ..., g a_n)(q_eps) = g . phi(a_1, ..., a_n)(g^{-1} q_eps)
    for a stabilizing g and the invertible integer matrices a_i of
    `matrices`, where phi pairs psi_cdg with f and q_eps has the
    identity frame. g^{-1} q_eps = g^{-1} q + eps g^{-1} e_1 + ... has the
    frame g^{-1} = d adj(g), as det g = d = 1 or -1; the identity frame
    there would fail at some q on a face hyperplane."""
    cols, q = _columns(matrices, q, f.n)
    if not stabilizes(f, g):
        raise NotStabilizer("g does not stabilize the step function")
    # det g = +-1 (stabilizes checked it): the first columns of the g a_i are the
    # g-images of those of the a_i, and both sides carry the sign of det g det(cols)
    gm = linalg.int_mat(g)
    left = _paired(f, [linalg.mat_vec(gm, c) for c in cols], q)
    adj, d = linalg.adjugate(gm)
    g_inv = [[d * x for x in row] for row in adj]  # adj / d = d adj, since d = +-1
    right = _paired(f, cols, linalg.mat_vec(g_inv, q), g_inv)
    return pm_eq(left, act_pm(gm, right))


def verify_measure_valued(f: TestFunction, samples: int, q: Sequence, seed: int = 0) -> bool:
    """Sample congruence tuples and check that every paired cocycle value
    is a measure.

    Per trial, the vanishing hypothesis must hold on every ray of the
    cocycle value's primitive columns prims, and the series-side criterion
    must accept the half-open cone paired with f. The e_1 hypothesis is
    the caller's to check: a function that fails it runs to its failing
    verdict. Every trial is deformed along q with the identity frame; a q
    not of length f.n raises ValueError, also when samples is 0.
    """
    if len(q) != f.n:
        raise ValueError(f"a deformation vector of length {len(q)} for generators of length {f.n}")
    q = tuple(Fraction(x) for x in q)
    for trial in range(samples):
        mats = tuple(
            random_congruence_element(f.n, f.M, seed * 1009 + trial * 31 + j)
            for j in range(f.n)
        )
        if (cone := psi_cdg(mats, q)) is not None:
            _sign, prims, closed = cone
            if not (is_measure_vh(prims, f)
                    and is_measure_amice(pair_half_open(frozenset(prims), closed, f), f.p)):
                return False
    return True


def sample_congruence_tuple(n: int, M: int, count: int, seed: int) -> tuple:
    """Seeded tuple of count level-M congruence elements of SL_n(Z), for harness drivers."""
    return tuple(
        random_congruence_element(n, M, seed * 7919 + j * 101) for j in range(count)
    )
