"""Level-M integer step functions on the standard lattice, away from p.

A step function TestFunction(n, p, M, values) of level M is a table on
(Z/M)^n, read as a function on integer vectors by reduction mod M and
extended by zero off the lattice. Its dimension n is at least 1 and at most
MAX_DIMENSION. The prime p never divides M; the p-component is implicitly
the full characteristic function of Z_p^n, so the pipeline only ever
evaluates at honest integer points.

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
from collections.abc import Hashable, Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd

from . import linalg
from .errors import NotUnimodular, SchemaError, _ReadOnly
from .linalg import IntMat, IntVec


PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Largest dimension n of a step function: a cocycle trial draws n + 1 matrices
# of size n x n and runs a Hermite pass on each, a cost that grows with n and
# not with the size of the input
MAX_DIMENSION = 32


def _is_prime(p: int) -> bool:
    """Miller-Rabin to the bases PRIME_BASES, exact for p < 2^64: the least
    odd composite that passes all twelve exceeds 3 * 10^23 (Sorenson and
    Webster, Math. Comp. 86, 2017). ValueError naming p above 2^64."""
    if p >= 1 << 64:
        raise ValueError(f"p = {p} is not below 2^64, where primality is decided exactly")
    if p < 2 or any(p % b == 0 for b in PRIME_BASES):
        return p in PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s d with d odd
    for b in PRIME_BASES:  # b passes when b^d = 1 or b^(2^k d) = -1 for some k < s
        xs = [pow(b, (p - 1) >> j, p) for j in range(s, 0, -1)]  # k = 0, ..., s - 1
        if xs[0] != 1 and p - 1 not in xs:
            return False
    return True


class TestFunction(_ReadOnly):
    """Integer-valued step function of level M on Z^n, away from the prime p
    (M coprime to p), stored as a residue table on (Z/M)^n. Read-only and
    unhashable; equal (n, p, M, values) make equal step functions. A weight
    or residue coordinate x with int(x) != x (1/2, 2.7, "3") is refused with
    a ValueError naming it."""

    __test__ = False  # domain name, not a pytest case
    # pairings: solomon_hu.pair_half_open results by (primitive generator set, closed
    # subset), the empty subset for an open cone, and residues: its packed support
    # residues, both for one command (the CLI parses f once per command) and outside
    # equality; packing those per cell took 110.5k _pack calls, not 71.8k, over the first
    # 600 pair_sweep ops at seed 1, and about 10% more cumulative _pair_cell time under cProfile
    __slots__ = ("n", "p", "M", "values", "pairings", "residues")

    def __init__(self, n: int, p: int, M: int, values: Mapping[IntVec, int] | None = None):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if n > MAX_DIMENSION:
            raise ValueError(f"dimension n = {n} is above MAX_DIMENSION = {MAX_DIMENSION}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if M < 1 or gcd(M, p) != 1:
            raise ValueError("level must be positive and coprime to p")
        table: dict[IntVec, int] = {}
        for residue, weight in (values or {}).items():
            if len(residue) != n:
                raise ValueError("residue of wrong dimension")
            if (ints := tuple(map(int, residue))) != residue:  # at once on a tuple of ints
                for x, i in zip(residue, ints):
                    if i != x:
                        raise ValueError(f"residue coordinate {x!r} is not an integer")
            if (w := int(weight)) != weight:
                raise ValueError(f"weight {weight!r} is not an integer")
            key = tuple([x % M for x in ints])
            table[key] = table.get(key, 0) + w
        values = {k: v for k, v in sorted(table.items()) if v != 0}
        for name, value in zip(self.__slots__, (n, p, M, values, {}, {})):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.p, self.M, self.values) == (other.n, other.p, other.M, other.values)


def _fibres_vanish(keyed: Iterable[tuple[Hashable, int | Fraction]]) -> bool:
    """Whether the coefficients c of the (key, c) pairs sum to 0 per key."""
    sums: dict = {}
    for key, c in keyed:
        sums[key] = sums.get(key, 0) + c
    return not any(sums.values())


def stabilizes(f: TestFunction, g: Sequence[Sequence[int]]) -> bool:
    """Whether f(g w) = f(w) for every w, for g in GL_n(Z) (det g = 1 or -1).

    g is a bijection mod M, so once f(g w) = f(w) on the support of f, g
    maps the support onto itself and nothing else into it: only the
    support is read.
    """
    gm = linalg.int_mat(g)
    if {len(gm), *map(len, gm)} != {f.n}:  # else mat_vec would drop coordinates
        raise ValueError(f"rows of lengths {[*map(len, gm)]} cannot act in dimension {f.n}")
    if abs(linalg.det(gm)) != 1:
        raise NotUnimodular("action requires determinant 1 or -1")
    M = f.M
    if all((x - (i == j)) % M == 0 for i, row in enumerate(gm) for j, x in enumerate(row)):
        return True  # g = I mod M fixes every residue
    return all(f.values.get(tuple(x % M for x in linalg.mat_vec(gm, w))) == c
               for w, c in f.values.items())


def check_vh(f: TestFunction, v: Sequence) -> bool:
    """Vanishing hypothesis for the ray through v.

    v is normalized to the primitive integer vector s on its ray (positive
    rescaling reparametrizes the slice without changing vanishing). By the
    reduction lemma in the module docstring the base point may run over
    (Z/M)^n, where the slice through w covers the orbit of w under
    translation by s, each point M / (orbit size) times. So the hypothesis
    holds iff f sums to zero over every orbit. Two residues share an orbit
    iff w - w' lies in Zs + MZ^n, i.e. iff their 2x2 minors
    w_i s_j - w_j s_i agree mod M: s is primitive, so for a complement b of
    s the b ^ s are part of a basis of the second exterior power. The
    support residues are grouped by their minors, and for n = 1 there are
    none, so the test is the total sum.
    """
    if len(v) != f.n:  # else the minors would skip coordinates of w or index past them
        raise ValueError(f"a ray of length {len(v)} cannot be checked in dimension {f.n}")
    M = f.M
    s = linalg.primitive_vector(v)
    pairs = [(i, j) for j in range(len(s)) for i in range(j)]
    return _fibres_vanish((tuple((w[i] * s[j] - w[j] * s[i]) % M for i, j in pairs), c)
                          for w, c in f.values.items())


def random_congruence_element(n: int, M: int, seed: int) -> IntMat:
    """Sample an element of the principal congruence subgroup of level M.

    Returns a product of elementary matrices I + c*M*E_ij (i != j), hence
    a determinant-1 matrix congruent to the identity mod M. Deterministic
    for a fixed seed.
    """
    rng = random.Random(seed)
    if n == 1:
        return linalg.identity(1)
    result = [list(row) for row in linalg.identity(n)]
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        c = rng.choice((-1, 1))
        for row in result:  # right-multiply by I + c*M*E_ij
            row[j] += c * M * row[i]
    return tuple(map(tuple, result))


def _as_int(x) -> int:
    """A JSON int as it is, or an integer string as an int; ValueError for a bool or a float."""
    if type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def _as_rational(x: int | str) -> int | Fraction:
    """A JSON int, or a string that int() reads, as an int; any other string as
    Fraction(x), so that only a non-integral value ("3/4") becomes a Fraction."""
    if type(x) is str:
        try:
            return int(x)
        except ValueError:
            return Fraction(x)
    return x


def _as_list(x, what: str) -> list:
    """A JSON array; SchemaError naming the field `what` for any other value."""
    if not isinstance(x, list):
        raise SchemaError(f"{what} must be a JSON array, got {x!r}")
    return x


def _only_keys(x, keys: tuple, what: str, optional: tuple = ()) -> None:
    """SchemaError naming the first key of the JSON object x outside `keys`
    and `optional` (a key that nothing reads is a misspelling or a value that
    would be lost), else the first of the required `keys` that x lacks."""
    if not isinstance(x, dict) or x.keys() == set(keys):  # at once on exactly `keys`
        return
    reads = keys + optional
    extra = [k for k in x if k not in reads]
    if extra:
        raise SchemaError(f"{what}: unknown key {extra[0]!r} (it reads {', '.join(reads)})")
    missing = [k for k in keys if k not in x]
    if missing:
        raise SchemaError(f"{what}: missing key {missing[0]!r}")


def from_json(data: dict) -> TestFunction:
    _only_keys(data, ("n", "p", "M", "terms"), "test_function")
    try:
        n, p, M = (_as_int(data[key]) for key in ("n", "p", "M"))
        table: dict[IntVec, int] = {}
        for term in _as_list(data["terms"], "terms"):
            _only_keys(term, ("residue", "weight"), "term")
            residue = tuple(map(_as_int, _as_list(term["residue"], "residue")))
            table[residue] = table.get(residue, 0) + _as_int(term["weight"])
        return TestFunction(n, p, M, table)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad test-function JSON: {exc}") from exc
