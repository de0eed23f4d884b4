"""Batch command-line interface with JSON input and output.

Commands (selected with --command):

  pair      pair a cone (or cone function) with a step function, emit the
            pseudo-measure; cone_function terms on one cone (the same primitive
            generators in the same order) are summed, and zero sums dropped
  vh        vanishing-hypothesis verdict per ray
  moments   power moments of a paired measure: the exact rational, and its
            p-adic expansion to --precision digits; poles are decided
            exactly before any moment is computed
  cocycle   run the cocycle / equivariance / measure-valuedness trials and
            emit a verification report; a trial whose cocycle identity
            fails holds cocycle.verify_cocycle's witness as "offending":
            the alternating sum's "denominator", its numerator's term count
            "terms" and WITNESS_TERMS lowest "numerator" terms, and its n + 1
            "cones" (signed "coefficient", primitive "generators", "closed"
            generator indices; null on dependent columns), whose half-open
            pairings times the coefficients sum back to it

All randomness flows from --seed; reports are byte-identical across runs
with the same configuration. `main` may be called many times in one
process: it builds its argument parser on the first call and reuses it.
Exit codes: 0 ok, 2 malformed input (JSON that cannot be read, is nested
too deeply or holds an integer literal past CPython's 4300-digit limit, a
field the schema calls an array given as anything else, a key the command
does not read, a missing key it needs (a step function's terms and a ray
object's v included), both or neither of cone and cone_function, a ray name
that is not a non-empty string, two rays with one report key (name, or
coordinates when unnamed), or repeated
denominator factors), a bad flag value (an --out path that cannot
be written included; one that names a directory or whose directory does
not exist is refused before the command runs; --n below 1 on a raw
pseudo-measure; --trials below 0, while 0 is a vacuous pass), a prime p (in
the step function or --p) not below 2^64, where primality is decided
exactly, a step function or raw pseudo-measure of dimension above
testfunctions.MAX_DIMENSION, a pairing cell over the point budget, a zero
ray, or a p^precision or moment past PRINT_BITS bits (too long to print), 3
dependent input vectors, 4 not a measure (2, 3 and 4 are the exit_code of
the error's class), 6 a verification trial failed.

Rationals are serialized as decimal strings ("3/4"); p-adic scalars as
"p^v*u" with valuation v and unit u, or "0".
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import random
import sys
from fractions import Fraction
from math import comb

from . import amice, cocycle, solomon_hu, testfunctions
from .cones import OpenCone
from .errors import NotAMeasure, SchemaError, ShintaniError

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_TRIAL_FAILED = 6

MOMENT_BUDGET = 2000  # most moment orders plus Bernoulli steps in one table
WITNESS_TERMS = 8  # numerator terms a failed cocycle trial prints, the lowest ones
PRINT_BITS = 14284  # 2^14284 < 10^4300, CPython's default limit on int-to-str digits
_parser = None  # build_parser(), made by the first main call and reused by the rest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shintani",
        description="exact cone pairings, p-adic measure tests, cocycle verification",
    )
    parser.add_argument("--command", required=True,
                        choices=("pair", "vh", "moments", "cocycle"))
    parser.add_argument("--input", help="path to the input JSON file")
    parser.add_argument("--p", type=int, default=3)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--precision", type=int, default=20,
                        help="p-adic digits printed per moment")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--max-order", type=int, default=3,
                        help="largest total moment order for --command moments")
    parser.add_argument("--corrupt-sign", action="store_true",
                        help="debug: flip one cocycle term, the identity must fail")
    parser.add_argument("--out", help="write the report here instead of stdout")
    return parser


def _load_input(path: str | None) -> dict:
    if path is None:
        raise SchemaError("--input is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    # ValueError: json.JSONDecodeError, UnicodeDecodeError, or an int literal past the
    # int-to-str digit limit; RecursionError: JSON too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaError(f"cannot read input JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError("top-level JSON value must be an object")
    return data


def _unwritable(path: str) -> str | None:
    """Why --out cannot be opened for writing, as far as that shows without
    creating it: it names a directory, or its directory does not exist."""
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    if not os.path.isdir(os.path.dirname(path) or "."):
        return os.strerror(errno.ENOENT)
    return None


def _parse_vector(raw, what: str, n: int) -> tuple:
    """A rational vector of the step function's dimension n: a JSON int or an integer string
    is read as an int, and only a non-integral entry becomes a Fraction, read from str(x)."""
    try:
        v = tuple(testfunctions._as_rational(x if type(x) is int else str(x))
                  for x in testfunctions._as_list(raw, what))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad vector {raw!r}") from exc
    if len(v) != n:
        raise SchemaError(f"{what} {raw!r} has {len(v)} coordinates, "
                          f"but the step function has n = {n}")
    return v


def _parse_cone_function(data: dict, n: int) -> dict[OpenCone, int]:
    """The input's cone_function as {cone: coefficient}, a cone as {cone: 1}: equal
    cones sum their coefficients, and a zero sum is dropped."""
    if "cone" in data and "cone_function" in data:
        raise SchemaError("input: both 'cone' and 'cone_function' (give one of them)")
    if "cone" not in data and "cone_function" not in data:
        raise SchemaError("input: neither 'cone' nor 'cone_function' (give one of them)")
    try:
        if "cone" in data:
            testfunctions._only_keys(data["cone"], ("generators",), "cone")
        k: dict[OpenCone, int] = {}
        for term in testfunctions._as_list(
                [data["cone"]] if "cone" in data else data["cone_function"], "cone_function"):
            testfunctions._only_keys(term, ("generators",), "cone_function term", ("coefficient",))
            gens = testfunctions._as_list(term["generators"], "generators")
            gens = [_parse_vector(g, "generator", n) for g in gens]
            coeff, cone = testfunctions._as_int(term.get("coefficient", 1)), OpenCone(tuple(gens))
            k[cone] = k.get(cone, 0) + coeff
        return {cone: c for cone, c in k.items() if c}
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad cone JSON: {exc}") from exc


def _load_step_function(args, *keys: str) -> tuple[dict, testfunctions.TestFunction]:
    """The input, holding test_function and no key outside `keys`, and its step function."""
    data = _load_input(args.input)
    testfunctions._only_keys(data, ("test_function",), "input", keys)
    return data, testfunctions.from_json(data["test_function"])


def cmd_pair(args) -> tuple[dict, int]:
    data, f = _load_step_function(args, "cone", "cone_function")
    k = _parse_cone_function(data, f.n)
    pm = solomon_hu.pair_cone_function(k, f)
    return solomon_hu.pm_to_json(pm), EXIT_OK


def cmd_vh(args) -> tuple[dict, int]:
    data, f = _load_step_function(args, "rays")
    out = {}
    for entry in testfunctions._as_list(data.get("rays", []), "rays"):
        named = isinstance(entry, dict)
        testfunctions._only_keys(entry, ("v",), "ray", ("name",))
        ray = _parse_vector(entry["v"] if named else entry, "ray", f.n)
        if named and "name" in entry:
            if type(key := entry["name"]) is not str or not key:
                raise SchemaError(f"ray name {json.dumps(key)} is not a non-empty string")
        else:
            key = ",".join(str(x) for x in ray)
        if not any(ray):
            raise SchemaError(f"ray {key!r} is the zero vector")
        if key in out:  # else the later verdict would hide the earlier one
            raise SchemaError(f"ray key {key!r} is repeated")
        out[key] = testfunctions.check_vh(f, ray)
    return out, EXIT_OK


def cmd_moments(args) -> tuple[dict, int]:
    """The moment of every order of total at most --max-order, sorted by (total, order)."""
    if args.precision < 1:
        raise SchemaError(f"--precision must be at least 1, got {args.precision}")
    data = _load_input(args.input)
    if "test_function" in data:
        testfunctions._only_keys(data, ("test_function",), "input", ("cone", "cone_function"))
        f = testfunctions.from_json(data["test_function"])
        k = _parse_cone_function(data, f.n)
        if list(k.values()) != [1]:
            raise SchemaError("moments need a single open cone with coefficient 1")
        (cone,) = k
        if not amice.is_measure_vh(cone.generators, f):
            raise NotAMeasure("vanishing hypothesis fails on an extremal ray")
        pm = solomon_hu.pair_open_cone(cone, f)
        p, n = f.p, f.n
    elif "numerator" in data:
        try:
            prime = testfunctions._is_prime(args.p)
        except ValueError as exc:
            raise SchemaError(f"--p: {exc}") from exc
        if not prime:
            raise SchemaError(f"--p must be a prime, got {args.p}")
        if args.n < 1:
            raise SchemaError(f"--n must be at least 1, got {args.n}")
        pm = solomon_hu.pm_from_json(data)
        p, n = args.p, args.n
    else:
        raise SchemaError("expected test_function+cone or a pseudo-measure")
    # with no vector at all, the dimension is the step function's, or --n
    dim, top = pm.dim if pm.num or pm.den else n, max(args.max_order, 0)
    work = top ** 2 + (comb(top + dim, dim) if top ** 2 <= MOMENT_BUDGET else 0)
    if work > MOMENT_BUDGET:
        raise SchemaError(f"--max-order {top} asks for at least {work} moment orders and "
                          f"Bernoulli steps in {dim} dimensions, more than {MOMENT_BUDGET}")
    if args.precision > PRINT_BITS or (p ** args.precision).bit_length() > PRINT_BITS:
        raise SchemaError(f"--precision {args.precision}: p^precision is past {PRINT_BITS} bits")
    table = []
    for kk, value in amice.moment_table(pm, p, dim, args.max_order):
        if max(value.numerator.bit_length(), value.denominator.bit_length()) > PRINT_BITS:
            raise SchemaError(f"moment {list(kk)} is past {PRINT_BITS} bits, too long to print")
        table.append({"order": list(kk), "rational": str(value),
                      "padic": _padic_str(value, p, args.precision)})
    return {"p": p, "precision": args.precision, "moments": table}, EXIT_OK


def _padic_str(x: Fraction, p: int, prec: int) -> str:
    """x = p^v * u with p not dividing u, as "p^v*u" with u taken mod
    p^prec (prec digits); zero as "0"."""
    if x == 0:
        return "0"
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    mod = p ** prec
    return f"{p}^{v}*{num * pow(den, -1, mod) % mod}"


def cmd_cocycle(args) -> tuple[dict, int]:
    if args.trials < 0:
        raise SchemaError(f"--trials must be at least 0, got {args.trials}")
    _data, f = _load_step_function(args)
    rng = random.Random(args.seed)
    trials = []
    all_pass = True
    for t in range(args.trials):
        trial_seed = args.seed * 65537 + t
        mats = cocycle.sample_congruence_tuple(f.n, f.M, f.n + 1, trial_seed)
        g = testfunctions.random_congruence_element(f.n, f.M, trial_seed ^ 0x5EED)
        q = cocycle.sample_deformation(f.n, rng)
        witness = cocycle.verify_cocycle(f, mats, q, args.corrupt_sign)
        ok_equiv = cocycle.verify_equivariance(f, g, mats[: f.n], q)
        record = {
            "index": t,
            "seed": trial_seed,
            "matrices": [[list(row) for row in m] for m in mats],
            "q": [str(x) for x in q],
            "cocycle": witness is None,
            "equivariance": ok_equiv,
        }
        if witness is not None:  # the sum's head and the cones that rebuild it
            total, cones = witness
            record["offending"] = {
                **solomon_hu.pm_to_json(total, WITNESS_TERMS), "terms": len(total.num.packed),
                "cones": [c and {"coefficient": c[0], "generators": [list(s) for s in c[1]],
                                 "closed": sorted(map(c[1].index, c[2]))} for c in cones]}
        all_pass &= witness is None and ok_equiv
        trials.append(record)
    e1 = tuple(1 if i == 0 else 0 for i in range(f.n))
    vh_e1 = testfunctions.check_vh(f, e1)
    measure_ok = cocycle.verify_measure_valued(
        f, max(1, args.trials // 4), cocycle.sample_deformation(f.n, rng), seed=args.seed)
    if vh_e1 and not measure_ok:
        all_pass = False
    report = {
        "config": {
            "command": "cocycle",
            "n": f.n,
            "p": f.p,
            "M": f.M,
            "seed": args.seed,
            "trials": args.trials,
            "corrupt_sign": bool(args.corrupt_sign),
        },
        "trials": trials,
        "vh_e1": vh_e1,
        "measure_valued": measure_ok,
        "all_pass": all_pass,
    }
    return report, EXIT_OK if all_pass else EXIT_TRIAL_FAILED


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    handlers = {"pair": cmd_pair, "vh": cmd_vh, "moments": cmd_moments, "cocycle": cmd_cocycle}
    try:
        if args.out and (reason := _unwritable(args.out)):  # refused before any work
            raise SchemaError(f"--out {args.out}: {reason}")
        report, code = handlers[args.command](args)
    except ShintaniError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed input: {exc!r}", file=sys.stderr)
        return EXIT_SCHEMA
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: --out {args.out}: {exc.strerror}", file=sys.stderr)
            return EXIT_SCHEMA
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
