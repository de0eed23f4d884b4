"""The JSON readers read integers as ints, and nothing else changes.

testfunctions.from_json, cli._parse_vector and solomon_hu.pm_from_json are
compared with oracles' reference readers, which read every vector entry and
coefficient through Fraction: on a seeded corpus of well- and ill-formed
inputs they give the same value, or the same exception class and message,
called directly and through cli.main. On integer input they build no
Fraction at all.
"""

import json
import random
import sys
from fractions import Fraction

import pytest

from shintani import cli, solomon_hu, testfunctions
from shintani.errors import DependentInput
from shintani.solomon_hu import PseudoMeasure
from shintani.testfunctions import TestFunction

import oracles

INTEGERS = [0, 1, -1, 2, 3, -4, 7, 10**20]
# signs, surrounding spaces, leading zeros and a unicode digit (ARABIC-INDIC
# DIGIT THREE): strings that int() and Fraction() both read; Fraction reads
# "1_0" from Python 3.11 on (test_an_underscore_string_is_read_as_int)
INTEGER_STRINGS = ["3", "-2", "+4", " 5 ", "\t6\n", "007", "-0", "٣",
                   *(["1_0"] * (sys.version_info >= (3, 11)))]
OTHERS = ["3/4", "-5/10", "2/1", "1/0", "3.0", "1e2", "abc", "", "1__0", "9" * 5000,
          1.5, 2.0, 0.1, True, False, None, [1], [[2]], {"a": 1}]


def _scalar(rng: random.Random, integral: float = 0.85):
    return rng.choice(INTEGERS + INTEGER_STRINGS if rng.random() < integral else OTHERS)


def _small(rng: random.Random):
    """A cone or ray entry: small, so that a pairing cell stays small."""
    if rng.random() < 0.85:
        x = rng.randint(-3, 3)
        return rng.choice([x, str(x), f" {x}", f"+{x}"])
    return rng.choice(["3/4", "-1/2", "2/1", "1/0", "3.0", 0.5, 2.0, True, None, [1], "٣"])


def _vector(rng: random.Random, n: int, entry=_scalar):
    if rng.random() < 0.04:
        return rng.choice(OTHERS)  # not an array
    length = n if rng.random() < 0.88 else rng.choice([0, n - 1, n + 1])
    return [entry(rng) for _ in range(length)]


def _keys(rng: random.Random, obj: dict) -> dict:
    """obj, now and then with an extra key or a key missing."""
    r = rng.random()
    if r < 0.04:
        obj["extra"] = 1
    elif r < 0.08:
        del obj[rng.choice(sorted(obj))]
    return obj


def _test_function(rng: random.Random, n: int | None = None) -> dict:
    n = n or rng.choice([1, 2, 3])
    M = rng.choice([2, 4, 5])
    residues = []
    for _ in range(rng.randrange(7)):
        if residues and rng.random() < 0.2:  # a duplicate residue
            residues.append(list(rng.choice(residues)))
        elif rng.random() < 0.8:
            residues.append([rng.randrange(-M, 2 * M) for _ in range(n)])
        else:
            residues.append(_vector(rng, n))
    terms = [_keys(rng, {"residue": r, "weight": _scalar(rng)}) for r in residues]
    tf = {"n": n, "p": 3, "M": M, "terms": terms}
    if rng.random() < 0.1:
        tf[rng.choice(["n", "p", "M"])] = _scalar(rng, 0.5)
    if rng.random() < 0.05:
        tf["terms"] = rng.choice(OTHERS)
    return _keys(rng, tf)


def _pseudo_measure(rng: random.Random) -> dict:
    n = rng.choice([1, 2])
    numerator = []
    for _ in range(rng.randrange(5)):
        vector = [rng.randint(-4, 4) for _ in range(n)] if rng.random() < 0.85 else _vector(rng, n)
        numerator.append(_keys(rng, {"vector": vector, "coeff": _scalar(rng, 0.7)}))
    if numerator and rng.random() < 0.2:  # a duplicate vector
        numerator.append(dict(numerator[0], coeff=_scalar(rng)))
    den = [[rng.randint(0, 3) for _ in range(n)] for _ in range(rng.randrange(n + 1))]
    if rng.random() < 0.1:
        den.append(_vector(rng, n))
    return _keys(rng, {"numerator": numerator, "denominator": den})


def _canonical(value):
    """A value with its types: ints and Fractions that are equal compare equal."""
    if isinstance(value, TestFunction):
        return value.n, value.p, value.M, sorted(value.values.items())
    if isinstance(value, PseudoMeasure):
        num = value.num
        return value.den, num.n, num.W, num.bound, sorted(
            (k, type(c).__name__, c) for k, c in num.packed.items())
    return value, [str(x) for x in value]  # a vector, with the names vh prints


def _outcome(reader, *args):
    try:
        return "value", _canonical(reader(*args))
    except Exception as exc:  # the class and the message are what is compared
        return "raised", type(exc), str(exc)


def _corpus(seed: int, count: int) -> list[tuple[str, tuple]]:
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        cases.append(("tf", (_test_function(rng),)))
        cases.append(("pm", (_pseudo_measure(rng),)))
        n = rng.choice([1, 2, 3])
        cases.append(("vector", (_vector(rng, n), "generator", n)))
    return cases


READERS = {"tf": testfunctions.from_json, "pm": solomon_hu.pm_from_json,
           "vector": cli._parse_vector}
REFERENCES = {"tf": oracles.reference_from_json, "pm": oracles.reference_pm_from_json,
              "vector": oracles.reference_parse_vector}


def _mismatches(readers, cases) -> list:
    return [(kind, args) for kind, args in cases
            if _outcome(readers[kind], *args) != _outcome(REFERENCES[kind], *args)]


def _true_as_one(x):
    if x is True:
        return 1
    if isinstance(x, list):
        return [_true_as_one(y) for y in x]
    if isinstance(x, dict):
        return {k: _true_as_one(v) for k, v in x.items()}
    return x


def test_the_readers_match_their_fraction_references():
    cases = _corpus(31, 300)
    outcomes = [_outcome(READERS[kind], *args)[0] for kind, args in cases]
    # the corpus reaches both sides of every reader
    for kind in READERS:
        seen = {o for (k, _a), o in zip(cases, outcomes) if k == kind}
        assert seen == {"value", "raised"}, kind
    assert _mismatches(READERS, cases) == []
    # negative control: a reader that takes True for 1 is caught, each of the three
    lax = {kind: lambda *args, r=reader: r(_true_as_one(args[0]), *args[1:])
           for kind, reader in READERS.items()}
    for kind in READERS:
        assert _mismatches({**READERS, kind: lax[kind]}, cases), kind


@pytest.mark.parametrize("kind, args, value", [
    ("tf", ({"n": 1, "p": 3, "M": 4, "terms": [{"residue": ["1_0"], "weight": 1}]},),
     (1, 3, 4, [((2,), 1)])),
    ("pm", ({"numerator": [{"vector": [1], "coeff": "1_0"}], "denominator": []},),
     ((), 1, 16, 1, [(1, "int", 10)])),
    ("vector", (["1_0", 2], "ray", 2), ((10, 2), ["10", "2"])),
])
def test_an_underscore_string_is_read_as_int(kind, args, value):
    # int() reads "1_0" as 10 on every supported Python; Fraction() reads it
    # so from Python 3.11 on, and refused it before
    assert _outcome(READERS[kind], *args) == ("value", value)
    if sys.version_info >= (3, 11):
        assert _outcome(REFERENCES[kind], *args) == ("value", value)


def _cli_inputs(seed: int, count: int) -> list[tuple[list[str], dict]]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice([1, 2])
        tf = _test_function(rng, n) if rng.random() < 0.3 else {
            "n": n, "p": 3, "M": 2, "terms": [{"residue": [1] + [0] * (n - 1), "weight": 1},
                                            {"residue": [0] * n, "weight": -1}]}
        gens = [_vector(rng, n, _small) for _ in range(rng.choice([1, n]))]
        if rng.random() < 0.5:
            cone = {"cone": _keys(rng, {"generators": gens})}
        else:
            term = {"generators": gens, "coefficient": _scalar(rng)}
            cone = {"cone_function": [_keys(rng, term)]}
        rays = [_vector(rng, n, _small) if rng.random() < 0.6 else
                {"v": _vector(rng, n, _small), "name": rng.choice(["", "e", None])}
                for _ in range(rng.randrange(4))]
        out += [(["--command", "pair"], {"test_function": tf, **cone}),
                (["--command", "moments", "--max-order", "2"], {"test_function": tf, **cone}),
                (["--command", "vh"], {"test_function": tf, "rays": rays}),
                (["--command", "moments", "--n", str(n), "--max-order", "2"],
                 _pseudo_measure(rng))]
    return out


def test_cli_reports_match_the_fraction_references(tmp_path, capsys, monkeypatch):
    def runs():
        got = []
        for i, (argv, payload) in enumerate(inputs):
            path = tmp_path / f"in{i}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            code = cli.main(argv + ["--input", str(path)])
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    inputs = _cli_inputs(31, 60)
    new = runs()
    with monkeypatch.context() as m:
        m.setattr(testfunctions, "from_json", oracles.reference_from_json)
        m.setattr(solomon_hu, "pm_from_json", oracles.reference_pm_from_json)
        m.setattr(cli, "_parse_vector", oracles.reference_parse_vector)
        old = runs()
    assert new == old
    # every command both prints a report and refuses some input
    for command in ("pair", "vh", "moments"):
        codes = {code for (argv, _p), (code, _o, _e) in zip(inputs, new) if argv[1] == command}
        assert 0 in codes and 2 in codes, (command, codes)
    # the vh reports name rays, rational ones by their entries
    names = {k for (argv, _p), (code, out, _e) in zip(inputs, new) if argv[1] == "vh" and code == 0
             for k in json.loads(out)}
    assert any("," in k for k in names)


def _integer_inputs(seed: int, count: int, entry=lambda rng: rng.randint(-3, 3)):
    """Seeded well-formed inputs with integer entries, JSON ints and integer
    strings: (reader, arguments) pairs."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, M = rng.choice([1, 2, 3]), rng.choice([2, 4, 5])
        tf = {"n": n, "p": 3, "M": M, "terms": [
            {"residue": [rng.randrange(M) for _ in range(n)], "weight": rng.choice([1, -1, 2])}
            for _ in range(4)]}
        gens = [[rng.choice([int(i == j), str(int(i == j))]) if rng.random() < 0.7 else entry(rng)
                 for j in range(n)] for i in range(n)]
        out += [(testfunctions.from_json, (tf,)),
                (cli._parse_cone_function, ({"cone_function": [
                    {"generators": gens, "coefficient": rng.choice([1, "2"])}]}, n)),
                (cli._parse_vector, ([rng.choice([1, "1"]), *(entry(rng) for _ in range(n - 1))],
                                     "ray", n)),
                (solomon_hu.pm_from_json, ({"numerator": [
                    {"vector": [rng.randint(-3, 3) for _ in range(n)],
                     "coeff": rng.choice([3, "-2", str(entry(rng))])}],
                    "denominator": [[M] + [0] * (n - 1)]},))]
    return out


def _fractions_built(monkeypatch, inputs) -> int:
    built = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", counting)
        for reader, args in inputs:
            try:
                reader(*args)
            except DependentInput:  # a dependent cone: only the count matters here
                pass
    return built


def test_integer_input_builds_no_fraction(monkeypatch):
    assert _fractions_built(monkeypatch, _integer_inputs(7, 100)) == 0
    # the count sees a Fraction: a "3/4" entry builds some
    quarters = _integer_inputs(7, 100, lambda rng: rng.choice([0, "3/4"]))
    assert _fractions_built(monkeypatch, quarters) > 0
