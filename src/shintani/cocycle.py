"""Deformed-cone cocycle evaluation and exact verification harnesses.

The cocycle sends an n-tuple of invertible matrices and a deformation
vector q to the sign-weighted face decomposition of the cone on the first
columns, zero when they are dependent (cones.deformed_cone_decompose, one
Hermite pass per column tuple); pairing with a step function turns it into
a pseudo-measure. The
harnesses check, in exact arithmetic after pairing:

  * the homogeneous cocycle identity (the alternating sum over an
    (n+1)-tuple reduces to an integer multiple of delta_0),
  * equivariance under stabilizing congruence elements,
  * that every output cone passes the measure criteria when the vanishing
    hypothesis holds for e_1.

Values-as-functions-of-q are never materialized; every operation takes an
explicit rational q and deforms along q_eps = q + eps p_1 + ... + eps^n p_n
(cones.deformed_cone_decompose), so every q, q = 0 included, gets an exact
verdict. The matrices are integer congruence elements, so q is the only
rational value. Both are plain arguments: psi_cdg(matrices, q),
verify_cocycle(f, matrices, q) and verify_equivariance(f, g, matrices, q)
each check their matrices once and read q through Fraction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from . import linalg
from .amice import is_measure_amice, is_measure_vh
from .cones import ConeFunction, DeformationVector, deformed_cone_decompose
from .errors import NotStabilizer
from .linalg import IntVec
from .solomon_hu import (
    PseudoMeasure,
    act_pm,
    pair_cone_function,
    pair_open_cone,
    pm_eq,
    pm_is_integer_constant,
    pm_sum,
)
from .testfunctions import TestFunction, random_congruence_element, stabilizes


def _columns(matrices: Sequence, q: Sequence) -> tuple[list[IntVec], DeformationVector]:
    """The first columns of the matrices, and q as Fractions; a matrix that
    is not integral or not invertible raises ValueError."""
    mats = [linalg.int_mat(m) for m in matrices]
    if any(linalg.det(m) == 0 for m in mats):
        raise ValueError("cocycle arguments must be invertible")
    return [tuple(row[0] for row in m) for m in mats], tuple(Fraction(x) for x in q)


def psi_cdg(matrices: Sequence, q: Sequence) -> ConeFunction:
    """deformed_cone_decompose on the first columns of the n invertible
    integer matrices, deformed along q (rationals, or anything Fraction
    reads).

    Returns the zero cone function when the first columns are dependent
    (in particular on tuples from the mirabolic subgroup in dimension
    at least 2, where all the columns equal e_1).
    """
    return deformed_cone_decompose(*_columns(matrices, q))


def _alternating_sum(
    f: TestFunction, matrices: Sequence, q: Sequence, corrupt_sign: bool = False
) -> PseudoMeasure:
    # each matrix is checked once; the n-subsets then pair on columns
    cols, q = _columns(matrices, q)
    terms = []
    for i in range(len(cols)):
        coeff = (-1) ** i
        if corrupt_sign and i == 0:
            coeff = -coeff
        psi = deformed_cone_decompose(cols[:i] + cols[i + 1:], q)
        terms.append((coeff, pair_cone_function(psi, f)))
    # pm_sum of pm_sums: a zero term's own denominator stays out of the total
    return pm_sum(terms)


def verify_cocycle(
    f: TestFunction,
    matrices: Sequence,
    q: Sequence,
    corrupt_sign: bool = False,
) -> bool:
    """Check the homogeneous cocycle identity for one (n+1)-tuple at q.

    The alternating sum of the paired values must be an integer multiple of
    delta_0; `corrupt_sign` flips one term as a negative control. Every
    term is deformed along q with the identity frame.
    """
    total = _alternating_sum(f, matrices, q, corrupt_sign)
    return pm_is_integer_constant(total) is not None


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
    frame g^{-1} = adj(g), as det g = 1; the identity frame there would
    fail at some q on a face hyperplane."""
    cols, q = _columns(matrices, q)
    if not stabilizes(f, g):
        raise NotStabilizer("g does not stabilize the step function")
    # the a_i are invertible and stabilizes checked det g = 1, so the
    # first columns of the g a_i are the g-images of those of the a_i
    gm = linalg.int_mat(g)
    left = pair_cone_function(deformed_cone_decompose([linalg.mat_vec(gm, c) for c in cols], q), f)
    # g^-1 = adj(g), since d = det g = 1
    adj, _d = linalg.adjugate(gm)
    pulled_q = linalg.mat_vec(adj, q)
    right = act_pm(gm, pair_cone_function(deformed_cone_decompose(cols, pulled_q, adj), f))
    return pm_eq(left, right)


def verify_measure_valued(f: TestFunction, samples: int, q: Sequence, seed: int = 0) -> bool:
    """Sample congruence tuples and check that every paired cocycle value
    is a measure.

    Per trial, each cone of the cocycle value must pass the exact
    vanishing-hypothesis criterion, and the series-side criterion must
    agree on the paired single-cone pseudo-measures. The e_1 hypothesis is
    the caller's to check: a function that fails it runs to its failing
    verdict. The cones are faces of the cone on the primitive input
    columns, so their support needs no check. Every trial is deformed
    along q with the identity frame.
    """
    for trial in range(samples):
        mats = tuple(
            random_congruence_element(f.n, f.M, seed * 1009 + trial * 31 + j)
            for j in range(f.n)
        )
        for _coeff, cone in psi_cdg(mats, q).terms:
            if not is_measure_vh(cone, f):
                return False
            pm = pair_open_cone(cone, f)
            if pm.num and not is_measure_amice(pm, f.p):
                return False
    return True


def sample_congruence_tuple(n: int, M: int, count: int, seed: int) -> tuple:
    """Seeded tuple of count level-M congruence elements of SL_n(Z), for harness drivers."""
    return tuple(
        random_congruence_element(n, M, seed * 7919 + j * 101) for j in range(count)
    )
