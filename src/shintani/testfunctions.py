"""Level-M integer step functions on the standard lattice, away from p.

A step function of level M is a table on (Z/M)^n, read as a function on
integer vectors by reduction mod M and extended by zero off the lattice.
The prime p never divides M; the p-component is implicitly the full
characteristic function of Z_p^n, so the pipeline only ever evaluates at
honest integer points.

The vanishing hypothesis for a direction v asks that every one-dimensional
slice of the function along v has average zero.

Reduction lemma (used by check_vh). The hypothesis quantifies the slice
base point w over the whole rational space, but it suffices to check the
finite set {0,...,M-1}^n: for v primitive, the slice through a rational w
is either identically zero (the affine line w + Qv misses every point that
is integral away from p) or is a translate of the slice through an integral
base point on the same line, and Haar averages are translation invariant.
The brute-force test over denominators <= 4 in the test suite exercises
exactly this reduction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from math import gcd
from typing import Mapping, Sequence

from . import linalg
from .errors import CellTooLarge, NotUnimodular, SchemaError
from .linalg import IntMat, IntVec

# most integer points a pairing cell, or residues a walk over (Z/M)^n, may have
CELL_POINT_BUDGET = 10**6


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class LatticeContext:
    """Ambient dimension, working prime, and level (coprime to p)."""

    n: int
    p: int
    M: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.M < 1 or gcd(self.M, self.p) != 1:
            raise ValueError("level must be positive and coprime to p")


@dataclass(frozen=True)
class TestFunction:
    """Integer-valued level-M step function, stored as a residue table."""

    __test__ = False  # domain name, not a pytest case

    ctx: LatticeContext
    values: Mapping[IntVec, int] = field(default_factory=dict)
    # solomon_hu.pair_open_cone results by primitive generator set; the CLI
    # parses f once per command, so the memo lives for one command
    pairings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        M = self.ctx.M
        table: dict[IntVec, int] = {}
        for residue, weight in self.values.items():
            if len(residue) != self.ctx.n:
                raise ValueError("residue of wrong dimension")
            key = tuple(int(x) % M for x in residue)
            table[key] = table.get(key, 0) + int(weight)
        object.__setattr__(
            self, "values", {k: v for k, v in sorted(table.items()) if v != 0}
        )

    def value_at(self, v: Sequence[int]) -> int:
        M = self.ctx.M
        return self.values.get(tuple(int(x) % M for x in v), 0)

    def __bool__(self) -> bool:
        return bool(self.values)


def act(f: TestFunction, g: Sequence[Sequence[int]]) -> TestFunction:
    """Right action (f|g)(v) = f(g v) for g in SL_n(Z).

    The action factors through reduction mod M, so the new table is a
    permutation-with-multiplicity pullback of the old one.
    """
    ctx = f.ctx
    if ctx.M ** ctx.n > CELL_POINT_BUDGET:
        raise CellTooLarge(f"the action on a step function of level {ctx.M} in dimension "
                           f"{ctx.n} reads {ctx.M ** ctx.n} residues, more than {CELL_POINT_BUDGET}")
    gm = linalg.int_mat(g)
    if linalg.det(gm) != 1:
        raise NotUnimodular("action requires determinant 1")
    table = {}
    for x in product(range(ctx.M), repeat=ctx.n):
        val = f.value_at(linalg.mat_vec(gm, x))
        if val:
            table[x] = val
    return TestFunction(ctx, table)


def stabilizes(f: TestFunction, g: Sequence[Sequence[int]]) -> bool:
    return act(f, g).values == f.values


def check_vh(f: TestFunction, v: Sequence) -> bool:
    """Vanishing hypothesis for the ray through v.

    v is normalized to the primitive integer vector s on its ray (positive
    rescaling reparametrizes the slice without changing vanishing). By the
    reduction lemma in the module docstring the base point may run over
    (Z/M)^n, where the slice through w covers the orbit of w under
    translation by s, each point M / (orbit size) times. So the hypothesis
    holds iff f sums to zero over every orbit; only orbits meeting the
    support of f are walked, each of M points, at most M^n points in all;
    past CELL_POINT_BUDGET that count is refused (CellTooLarge) unwalked.
    """
    M = f.ctx.M
    count = min(M ** f.ctx.n, len(f.values) * M)
    if count > CELL_POINT_BUDGET:
        raise CellTooLarge(f"the vanishing-hypothesis walk of a step function of level {M} "
                           f"visits {count} residues, more than {CELL_POINT_BUDGET}")
    s = linalg.primitive_vector(v)
    seen: set[IntVec] = set()
    for w in f.values:
        total = 0
        while w not in seen:
            seen.add(w)
            total += f.values.get(w, 0)
            w = tuple((a + b) % M for a, b in zip(w, s))
        if total:
            return False
    return True


def random_congruence_element(ctx: LatticeContext, seed: int) -> IntMat:
    """Sample an element of the principal congruence subgroup of level M.

    Returns a product of elementary matrices I + c*M*E_ij (i != j), hence
    a determinant-1 matrix congruent to the identity mod M. Deterministic
    for a fixed seed.
    """
    rng = random.Random(seed)
    n = ctx.n
    count = rng.randint(1, 2)
    result = linalg.identity(n)
    if n == 1:
        return result
    for _ in range(count):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        c = rng.choice((-1, 1))
        elem = [list(row) for row in linalg.identity(n)]
        elem[i][j] = c * ctx.M
        result = linalg.int_mat(linalg.mat_mul(result, elem))
    return result


def from_json(data: dict) -> TestFunction:
    def as_int(x) -> int:
        if isinstance(x, bool) or not isinstance(x, (int, str)):
            raise ValueError(f"expected an integer, got {x!r}")
        return int(x)

    try:
        ctx = LatticeContext(n=as_int(data["n"]), p=as_int(data["p"]), M=as_int(data["M"]))
        table: dict[IntVec, int] = {}
        for term in data.get("terms", []):
            residue = tuple(as_int(x) for x in term["residue"])
            table[residue] = table.get(residue, 0) + as_int(term["weight"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad test-function JSON: {exc}") from exc
    return TestFunction(ctx, table)
