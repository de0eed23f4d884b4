import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations, product
from math import comb
from pathlib import Path

import pytest

from shintani import cli, linalg
from shintani.amice import is_measure_amice, moment_table
from shintani.cli import MOMENT_BUDGET, PRINT_BITS, build_parser, main
from shintani.cocycle import _alternating_sum, psi_cdg, sample_deformation, verify_cocycle
from shintani.solomon_hu import pair_half_open, pm_eq, pm_from_json, pm_sum, pm_to_json, pm_zero
from shintani.testfunctions import MAX_DIMENSION, from_json

from oracles import _solve_coords, hurwitz_zeta_neg, open_faces, phi


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


TF_ONE = {"n": 1, "p": 3, "M": 4, "terms": [{"residue": [1], "weight": 1}]}
TF_DIFF = {
    "n": 1,
    "p": 3,
    "M": 4,
    "terms": [{"residue": [1], "weight": 1}, {"residue": [3], "weight": -1}],
}
TF_BALANCED_2D = {
    "n": 2,
    "p": 3,
    "M": 4,
    "terms": [
        {"residue": [1, j], "weight": 1} for j in range(4)
    ] + [
        {"residue": [3, j], "weight": -1} for j in range(4)
    ],
}


def test_pair_command(tmp_path, capsys):
    path = write(tmp_path, "in.json", {
        "test_function": TF_ONE, "cone": {"generators": [["1"]]},
    })
    code, out = run(capsys, "--command", "pair", "--input", path)
    assert code == 0
    data = json.loads(out)
    assert data["numerator"] == [{"vector": [1], "coeff": "1"}]
    assert data["denominator"] == [[4]]


def test_pair_zero_function(tmp_path, capsys):
    path = write(tmp_path, "in.json", {
        "test_function": {"n": 1, "p": 3, "M": 4, "terms": []},
        "cone": {"generators": [["1"]]},
    })
    code, out = run(capsys, "--command", "pair", "--input", path)
    assert code == 0
    assert json.loads(out)["numerator"] == []


def test_pair_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["--command", "pair", "--input", str(bad)]) == 2
    missing = write(tmp_path, "missing.json", {"cone": {"generators": [["1"]]}})
    assert main(["--command", "pair", "--input", missing]) == 2


def test_pair_dependent_generators(tmp_path, capsys):
    path = write(tmp_path, "in.json", {
        "test_function": {"n": 2, "p": 3, "M": 2, "terms": []},
        "cone": {"generators": [["1", "0"], ["2", "0"]]},
    })
    assert main(["--command", "pair", "--input", path]) == 3


def test_pair_zero_generator_is_dependent(tmp_path, capsys):
    path = write(tmp_path, "in.json", {
        "test_function": TF_BALANCED_2D, "cone": {"generators": [["0", "0"], ["1", "0"]]},
    })
    assert main(["--command", "pair", "--input", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cone generators are linearly dependent\n"


def test_pair_is_unchanged_by_rescaled_generators(tmp_path, capsys):
    # a cone stores the primitive vector on each ray, so positive rescaling
    # of any generator leaves the report byte for byte
    outs = []
    for gens in ([["1", "2"], ["3", "-1"]], [["1/2", "1"], ["6", "-2"]], [["5", "10"], ["3/7", "-1/7"]]):
        path = write(tmp_path, "in.json", {
            "test_function": _table(2, 4, _T2),
            "cone_function": [{"coefficient": 1, "generators": gens},
                              {"coefficient": -2, "generators": [gens[1]]}],
        })
        code, out = run(capsys, "--command", "pair", "--input", path)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_pair_is_unchanged_by_the_order_of_the_cones(tmp_path, capsys):
    # the wedge cut by the ray (11, 9) pairs to zero with f = -[x = (0, 1)
    # mod 2]; every order of its three cones prints one report, whose
    # denominator is the union of the three cones' periods
    tf = {"n": 2, "p": 3, "M": 2, "terms": [{"residue": [0, 1], "weight": -1}]}
    cones = [{"generators": [["1", "0"], ["11", "9"]]},
             {"generators": [["-1", "0"], ["11", "9"]]},
             {"generators": [["11", "9"]]}]
    outs = set()
    for order in permutations(cones):
        path = write(tmp_path, "in.json", {"test_function": tf, "cone_function": list(order)})
        code, out = run(capsys, "--command", "pair", "--input", path)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    assert json.loads(outs.pop()) == {"numerator": [], "denominator": [[-2, 0], [2, 0], [22, 18]]}


# the cone_function merge rule on f = -[(0, 1)] + 2 [(1, 1)] mod 2: terms on
# one cone, the same primitive generators in the same order, sum their
# coefficients and a zero sum is dropped, while two orders of one cone stay
# two terms. Each case: its terms, the report's numerator term count and
# denominator, and the sha256 of the report, recorded before cone functions
# became plain {cone: coefficient} dicts
_TF_MERGE = {"n": 2, "p": 3, "M": 2, "terms": [{"residue": [0, 1], "weight": -1},
                                               {"residue": [1, 1], "weight": 2}]}
MERGE_RULE = {
    "two-orders": ([(1, [["1", "0"], ["1", "2"]]), (-1, [["1", "2"], ["1", "0"]])], 0,
                   [[2, 0], [2, 4]],
                   "505207d2d2e0ac2c63d9f4312b63ca2d433f73aea6db6486d4efe3313487cc9d"),
    "same-tuple": ([(1, [["1", "0"], ["1", "2"]]), (-1, [["2", "0"], ["1/2", "1"]])], 0, [],
                   "4f30081da50876d8288006afab149d22753de48ed8a496b4434c8e76b676a2e9"),
    "merged": ([(2, [["1", "0"], ["1", "2"]]), (1, [["1", "0"], ["1", "2"]])], 4,
               [[2, 0], [2, 4]],
               "bb04ba51e1df2aae9da88043501a782fc628e5566001f15a62ec506b3b3159b8"),
    "zero-term": ([(0, [["1", "0"], ["1", "2"]]), (1, [["1", "1"]])], 1, [[2, 2]],
                  "15a3873b6441d25abc6de47621d21f27903cd26d07b1e20bd3b021bc39b2f9b7"),
    "empty": ([], 0, [], "4f30081da50876d8288006afab149d22753de48ed8a496b4434c8e76b676a2e9"),
}


@pytest.mark.parametrize("name", sorted(MERGE_RULE))
def test_cone_function_terms_merge_on_equal_cones(tmp_path, capsys, name):
    terms, count, den, sha256 = MERGE_RULE[name]
    payload = {"test_function": _TF_MERGE,
               "cone_function": [{"coefficient": c, "generators": g} for c, g in terms]}
    code, out = run(capsys, "--command", "pair", "--input", write(tmp_path, "in.json", payload))
    assert code == 0
    report = json.loads(out)
    assert (len(report["numerator"]), report["denominator"]) == (count, den)
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


BIG = 10**30


@pytest.mark.parametrize("M, generators, periods, count", [
    (4, [["1", BIG], ["1", "0"]], [[4, 0], [4, 4 * BIG]], 16 * BIG),
    (BIG, [["1", "0"], ["0", "1"]], [[0, BIG], [BIG, 0]], BIG**2),
], ids=["huge-generator", "huge-level"])
def test_pair_refuses_a_cell_over_the_point_budget(tmp_path, capsys, M, generators, periods, count):
    # the cell's point count, |det| of the primitive generators times M^r,
    # is known before any point is made; past the budget it is exit 2
    # naming the periods, not an OverflowError traceback
    tf = {"n": 2, "p": 3, "M": M, "terms": [{"residue": [1, 0], "weight": 1}]}
    path = write(tmp_path, "in.json", {"test_function": tf, "cone": {"generators": generators}})
    assert main(["--command", "pair", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: the cell of the generators {periods} has {count} "
                            f"integer points, more than 1000000\n")
    # a huge primitive ray alone is a cell of M points
    path = write(tmp_path, "in.json", {"test_function": TF_BALANCED_2D,
                                       "cone": {"generators": [["1", BIG]]}})
    code, out = run(capsys, "--command", "pair", "--input", path)
    assert code == 0
    assert [t["vector"] for t in json.loads(out)["numerator"]] == [[1, BIG], [3, 3 * BIG]]


TF_BIG_UNBALANCED = {"n": 2, "p": 3, "M": BIG, "terms": [{"residue": [1, 0], "weight": 1}]}
TF_BIG_BALANCED = {"n": 2, "p": 3, "M": BIG, "terms": [
    {"residue": r, "weight": w} for r, w in (([0, 0], 1), ([1, 0], -1), ([0, 1], -1), ([1, 1], 1))
]}
QUADRANT = {"cone": {"generators": [["1", "0"], ["0", "1"]]}}


@pytest.mark.parametrize("command, payload, code, stdout, stderr", [
    ("vh", {"test_function": TF_BIG_UNBALANCED, "rays": [["1", "0"]]}, 0,
     '{\n  "1,0": false\n}\n', ""),
    ("vh", {"test_function": TF_BIG_BALANCED, "rays": [["1", "0"], ["0", "1"], ["1", "1"]]}, 0,
     '{\n  "0,1": true,\n  "1,0": true,\n  "1,1": false\n}\n', ""),
    ("moments", {"test_function": TF_BIG_UNBALANCED, **QUADRANT}, 4,
     "", "error: vanishing hypothesis fails on an extremal ray\n"),
    ("moments", {"test_function": TF_BIG_BALANCED, **QUADRANT}, 2,
     "", f"error: the cell of the generators [[0, {BIG}], [{BIG}, 0]] has {BIG**2} "
         f"integer points, more than 1000000\n"),
], ids=["vh", "vh-balanced", "moments-unbalanced", "moments-balanced"])
def test_a_huge_level_is_decided_from_the_support(tmp_path, command, payload, code, stdout,
                                                  stderr):
    # the vanishing hypothesis reads only the support of f, so M = 10**30
    # gets exact verdicts at once; only a pairing cell of M^2 points is
    # refused (a separate process, so a walk that did start is caught by
    # the timeout instead of holding the suite)
    path = write(tmp_path, "in.json", payload)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "shintani.cli", "--command", command,
                           "--input", path], capture_output=True, text=True, timeout=10, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)


@pytest.mark.parametrize("command, payload, flags", [
    ("vh", {"test_function": {**TF_ONE, "p": 10**30 + 57}, "rays": [["1"]]}, []),
    ("moments", {"numerator": [{"vector": [1], "coeff": "1"}], "denominator": [[4]]},
     ["--p", str(10**30 + 57)]),
], ids=["vh", "moments-p"])
def test_a_prime_past_2_to_the_64_is_refused_naming_it(tmp_path, command, payload, flags):
    # primality is decided exactly below 2^64 only, so a larger p is exit 2
    # naming it, at once (a separate process, so a trial division that did
    # start is caught by the timeout)
    path = write(tmp_path, "in.json", payload)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "shintani.cli", "--command", command,
                           "--input", path, *flags], capture_output=True, text=True,
                          timeout=5, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"p = {10**30 + 57} is not below 2^64" in proc.stderr


@pytest.mark.parametrize("command, payload, bad", [
    ("pair", {"test_function": TF_DIFF, "cone_function": [
        {"coefficient": 2.5, "generators": [["1"]]}]},
     "bad cone JSON: expected an integer, got 2.5"),
    ("pair", {"test_function": TF_DIFF, "cone_function": [
        {"coefficient": True, "generators": [["1"]]}]},
     "bad cone JSON: expected an integer, got True"),
    ("moments", {"numerator": [{"vector": [1.5], "coeff": "1"}], "denominator": [[4]]},
     "bad pseudo-measure JSON: expected an integer, got 1.5"),
    ("moments", {"numerator": [{"vector": [1], "coeff": "1"}], "denominator": [[4.0]]},
     "bad pseudo-measure JSON: expected an integer, got 4.0"),
    ("moments", {"numerator": [{"vector": [1], "coeff": True}], "denominator": []},
     "bad pseudo-measure JSON: coefficient True is not an integer or a rational string"),
    ("moments", {"numerator": [{"vector": [1], "coeff": "1"}, {"vector": [3], "coeff": 0.1}],
                 "denominator": []},
     "bad pseudo-measure JSON: coefficient 0.1 is not an integer or a rational string"),
    ("moments", {"numerator": [{"vector": [], "coeff": "1"}], "denominator": []},
     "bad pseudo-measure JSON: a vector has no coordinates"),
], ids=["coefficient-float", "coefficient-bool", "vector", "denominator", "coeff-bool",
        "coeff-float", "empty-vector"])
def test_non_integer_json_entries_are_malformed(tmp_path, capsys, command, payload, bad):
    # integer fields take JSON integers or integer strings; a float or a
    # bool is exit 2 naming it, not truncated or read as 1, and so is a
    # vector with no coordinates
    path = write(tmp_path, "in.json", payload)
    assert main(["--command", command, "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}\n"


def test_pseudo_measure_coefficients_are_integers_or_rational_strings(tmp_path, capsys):
    path = write(tmp_path, "in.json", {
        "numerator": [{"vector": [1], "coeff": 3}, {"vector": [3], "coeff": "-1/2"},
                      {"vector": [5], "coeff": "2"}],
        "denominator": [],
    })
    code, out = run(capsys, "--command", "moments", "--input", path, "--max-order", "0")
    assert code == 0
    assert json.loads(out)["moments"][0]["rational"] == "9/2"


@pytest.mark.parametrize("command, payload, what", [
    ("pair", {"cone": {"generators": [["1"]]}}, "generator ['1'] has 1 coordinates"),
    ("pair", {"cone": {"generators": [["1", "0", "0"]]}}, "generator ['1', '0', '0'] has 3 coordinates"),
    ("pair", {"cone": {"generators": [["1", "0", "0"], ["0", "1", "0"]]}},
     "generator ['1', '0', '0'] has 3 coordinates"),
    ("moments", {"cone": {"generators": [["0", "1", "0"]]}}, "generator ['0', '1', '0'] has 3 coordinates"),
    ("vh", {"rays": [[1]]}, "ray [1] has 1 coordinates"),
    ("vh", {"rays": [{"name": "long", "v": [0, 1, 5]}]}, "ray [0, 1, 5] has 3 coordinates"),
])
def test_vectors_of_the_wrong_dimension_are_malformed(tmp_path, capsys, command, payload, what):
    # against an n = 2 step function every generator and ray needs two
    # coordinates; any other length is exit 2 naming the vector and n
    path = write(tmp_path, "in.json", {"test_function": TF_BALANCED_2D, **payload})
    assert main(["--command", command, "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {what}, but the step function has n = 2\n"


@pytest.mark.parametrize("command, build, field, bad, good", [
    ("vh", lambda v: {"test_function": TF_DIFF, "rays": v}, "rays", "12", [["1"], ["2"]]),
    ("vh", lambda v: {"test_function": TF_BALANCED_2D, "rays": [v]}, "ray", "10", ["1", "0"]),
    ("vh", lambda v: {"test_function": TF_BALANCED_2D, "rays": [{"name": "x", "v": v}]},
     "ray", {"1": 0, "0": 0}, ["1", "0"]),
    ("vh", lambda v: {"test_function": {"n": 2, "p": 3, "M": 4, "terms": [
        {"residue": v, "weight": 1}]}, "rays": [["1", "0"]]}, "residue", "10", [1, 0]),
    ("moments", lambda v: {"test_function": TF_DIFF, "cone": {"generators": v}},
     "generators", "1", [["1"]]),
    ("pair", lambda v: {"test_function": TF_BALANCED_2D, "cone": {"generators": [v, ["0", "1"]]}},
     "generator", "10", ["1", "0"]),
    ("pair", lambda v: {"test_function": TF_BALANCED_2D, "cone_function": v}, "cone_function",
     {}, [{"coefficient": 1, "generators": [["1", "0"]]}]),
    ("pair", lambda v: {"test_function": TF_DIFF, "cone_function": [{"generators": v}]},
     "generators", "1", [["1"]]),
], ids=["rays", "ray", "named-ray", "residue", "generators", "generator", "cone_function",
        "term-generators"])
def test_array_fields_refuse_strings_and_objects(tmp_path, capsys, command, build, field, bad,
                                                 good):
    # a field the schema calls an array is read only from a JSON array: a
    # string or an object is exit 2 naming the field, not read one character
    # or one key at a time, and the array of the same entries is read
    assert main(["--command", command, "--input", write(tmp_path, "good.json", build(good))]) == 0
    capsys.readouterr()
    assert main(["--command", command, "--input", write(tmp_path, "bad.json", build(bad))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {field} must be a JSON array, got {bad!r}\n"


@pytest.mark.parametrize("command, payload, message", [
    ("cocycle", {"test_function": {"n": 33, "p": 3, "M": 4, "terms": []}},
     "bad test-function JSON: dimension n = 33 is above MAX_DIMENSION = 32"),
    ("vh", {"test_function": {"n": 2, "p": 3, "M": 4, "terms": [
        {"residue": [1, 0, 0], "weight": 1}]}, "rays": [["1", "0"]]},
     "bad test-function JSON: residue of wrong dimension"),
    ("moments", {"test_function": TF_DIFF, "cone_function": [
        {"coefficient": 1, "generators": [["1"]]}, {"coefficient": 1, "generators": [["-1"]]}]},
     "moments need a single open cone with coefficient 1"),
    ("vh", None, "--input is required for this command"),
    ("pair", {"test_function": TF_ONE},
     "input: neither 'cone' nor 'cone_function' (give one of them)"),
    ("moments", {"test_function": TF_DIFF},
     "input: neither 'cone' nor 'cone_function' (give one of them)"),
    ("vh", {"test_function": TF_DIFF, "rays": [{"name": "e1"}]}, "ray: missing key 'v'"),
    ("moments", {"numerator": [{"vector": [0, 0], "coeff": "1"}], "denominator": [[1, 0], [1, 0]]},
     "repeated denominator factors are not aligned: [[1, 0], [1, 0]]"),
    ("pair", {"cone": {"generators": [["1"]]}}, "input: missing key 'test_function'"),
    ("pair", {"test_function": TF_ONE, "cone_function": [{"coefficient": 1}]},
     "cone_function term: missing key 'generators'"),
    ("moments", {"numerator": [{"vector": [1], "coeff": "1"}]},
     "pseudo-measure: missing key 'denominator'"),
    ("vh", {"test_function": {**TF_ONE, "terms": [{"residue": [1]}]}, "rays": [["1"]]},
     "term: missing key 'weight'"),
    ("vh", {"test_function": {"n": 1, "p": 3, "M": 4}, "rays": [["1"]]},
     "test_function: missing key 'terms'"),
], ids=["dimension", "residue", "moments-cone-function", "no-input", "pair-no-cone",
        "moments-no-cone", "ray-without-v", "repeated-denominator", "no-test-function",
        "term-without-generators", "pseudo-measure-without-denominator", "term-without-weight",
        "step-function-without-terms"])
def test_step_function_and_input_refusals_name_the_problem(tmp_path, capsys, command, payload,
                                                           message):
    # a dimension above the bound is refused before any matrix is drawn, and
    # a residue of the wrong length is a step-function error like any other
    argv = ["--command", command]
    if payload is not None:
        argv += ["--input", write(tmp_path, "in.json", payload)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_too_deeply_nested_input_is_malformed(tmp_path, capsys):
    # past the decoder's recursion limit the input is refused, exit 2, not
    # a RecursionError traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert main(["--command", "vh", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read input JSON: maximum recursion depth")


@pytest.mark.parametrize("raw", [
    b'{"numerator": [{"vector": [1], "coeff": ' + b"7" * 5000 + b'}], "denominator": [[1]]}',
    b'{"numerator": [{"vector": [1], "coeff": "\xe9"}], "denominator": [[1]]}',
], ids=["digit-limit", "not-utf-8"])
def test_input_that_json_load_refuses_is_unreadable_json(tmp_path, capsys, raw):
    # json.load raises a plain ValueError, not a JSONDecodeError, on an int
    # literal of more than 4300 digits (CPython's int-to-str limit), and a
    # UnicodeDecodeError on bytes that are not UTF-8: exit 2 as input that
    # cannot be read, not as "malformed input: ValueError(...)"
    path = tmp_path / "in.json"
    path.write_bytes(raw)
    assert main(["--command", "moments", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read input JSON: ")


def test_an_unwritable_out_path_is_a_bad_flag_value(tmp_path, capsys):
    path = write(tmp_path, "in.json", {"test_function": TF_DIFF, "rays": [["1"]]})
    out = tmp_path / "missing" / "report.json"
    assert main(["--command", "vh", "--input", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --out {out}: ")
    out.parent.mkdir()
    assert main(["--command", "vh", "--input", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8")) == {"1": True}


def test_an_unwritable_out_path_is_refused_before_the_command_runs(tmp_path, capsys,
                                                                   monkeypatch):
    # the --out check comes first: with an input that cannot be read either,
    # the error names --out, and the handler is never called
    missing_input = str(tmp_path / "no-such-input.json")
    for out, reason in [(tmp_path / "missing" / "x.json", "No such file or directory"),
                        (tmp_path, "Is a directory")]:
        assert main(["--command", "vh", "--input", missing_input, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out {out}: {reason}\n"
    calls = []

    def handler(args):
        calls.append(args)
        raise AssertionError("the handler ran before --out was checked")

    monkeypatch.setattr(cli, "cmd_cocycle", handler)
    path = write(tmp_path, "f.json", {"test_function": TF_BALANCED_2D})
    out = tmp_path / "missing" / "x.json"
    assert main(["--command", "cocycle", "--input", path, "--out", str(out)]) == 2
    assert calls == [] and not out.parent.exists()


def test_a_failing_command_leaves_the_out_file_alone(tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_text("kept\n", encoding="utf-8")
    path = write(tmp_path, "in.json", {"test_function": TF_ONE, "rays": [["1", "0"]]})
    assert main(["--command", "vh", "--input", path, "--out", str(out)]) == 2
    assert out.read_text(encoding="utf-8") == "kept\n"
    fresh = tmp_path / "fresh.json"
    assert main(["--command", "vh", "--input", path, "--out", str(fresh)]) == 2
    assert not fresh.exists()


@pytest.mark.parametrize("command, payload, drop, message", [
    ("pair", {"test_function": TF_ONE, "cone": {"generators": [["1"]], "coefficient": 2}},
     ("cone", "coefficient"), "cone: unknown key 'coefficient' (it reads generators)"),
    ("pair", {"test_function": TF_ONE, "cone": {"generators": [["1"]]},
              "cone_function": [{"coefficient": 2, "generators": [["1"]]}]},
     ("cone_function",), "input: both 'cone' and 'cone_function' (give one of them)"),
    ("vh", {"test_function": TF_DIFF, "rays": [], "ray": [["1"]]},
     ("ray",), "input: unknown key 'ray' (it reads test_function, rays)"),
    ("vh", {"test_function": TF_DIFF, "rays": [{"v": ["1"], "nmae": "e1"}]},
     ("rays", 0, "nmae"), "ray: unknown key 'nmae' (it reads v, name)"),
    ("pair", {"test_function": TF_ONE, "cone_function": [
        {"generators": [["1"]], "coefficent": 2}]},
     ("cone_function", 0, "coefficent"),
     "cone_function term: unknown key 'coefficent' (it reads generators, coefficient)"),
    ("cocycle", {"test_function": {**TF_BALANCED_2D, "level": 4}},
     ("test_function", "level"), "test_function: unknown key 'level' (it reads n, p, M, terms)"),
    ("pair", {"test_function": {**TF_ONE, "terms": [{"residue": [1], "weight": 1, "w": 2}]},
              "cone": {"generators": [["1"]]}},
     ("test_function", "terms", 0, "w"), "term: unknown key 'w' (it reads residue, weight)"),
    ("cocycle", {"test_function": TF_BALANCED_2D, "trials": 3},
     ("trials",), "input: unknown key 'trials' (it reads test_function)"),
    ("moments", {"test_function": TF_DIFF, "cone": {"generators": [["1"]]}, "p": 7},
     ("p",), "input: unknown key 'p' (it reads test_function, cone, cone_function)"),
    ("moments", {"numerator": [{"vector": [1], "coeff": "1"}, {"vector": [3], "coeff": "-1"}],
                 "denominator": [[4]], "p": 7},
     ("p",), "pseudo-measure: unknown key 'p' (it reads numerator, denominator)"),
    ("moments", {"numerator": [{"vector": [1], "coeff": "1", "coef": "2"},
                               {"vector": [3], "coeff": "-1"}], "denominator": [[4]]},
     ("numerator", 0, "coef"), "numerator term: unknown key 'coef' (it reads vector, coeff)"),
], ids=["cone-coefficient", "cone-and-cone_function", "ray-for-rays", "named-ray",
        "cone_function-term", "test_function", "step-term", "cocycle-input", "moments-input",
        "pseudo-measure", "numerator-term"])
def test_input_keys_the_command_does_not_read_are_refused(tmp_path, capsys, command, payload,
                                                          drop, message):
    # a key that nothing reads is a misspelling or a value that would be
    # silently lost: exit 2 naming it; the same input without it is read
    *path, key = drop
    good = json.loads(json.dumps(payload))
    node = good
    for step in path:
        node = node[step]
    del node[key]
    assert main(["--command", command, "--input", write(tmp_path, "good.json", good)]) == 0
    capsys.readouterr()
    assert main(["--command", command, "--input", write(tmp_path, "bad.json", payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _fresh_process(argv):
    """Exit code, stdout and stderr of `python -m shintani.cli argv`."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
           "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-m", "shintani.cli", *argv], capture_output=True,
                          text=True, timeout=60, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # a bad flag: argparse exits
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_called_in_sequence_matches_fresh_processes(tmp_path, capsys, monkeypatch):
    # main builds its parser once and reuses it: no flag value, default or
    # parse error of one call may leak into the next
    monkeypatch.setenv("COLUMNS", "80")  # the usage line wraps at the terminal width
    f = write(tmp_path, "f.json", {"test_function": TF_BALANCED_2D})
    pm = write(tmp_path, "pm.json", {"numerator": [{"vector": [1], "coeff": "1"},
                                                   {"vector": [3], "coeff": "-1"}],
                                     "denominator": [[4]]})
    cocycle = ["--command", "cocycle", "--input", f, "--trials", "1", "--seed", "7"]
    moments = ["--command", "moments", "--input", pm]
    for sequence, codes in [([cocycle + ["--corrupt-sign"], cocycle], [6, 0]),
                            ([moments + ["--p", "x"], moments], [2, 0]),
                            ([moments + ["--p", "7"], moments], [0, 0])]:
        seen = [_in_process(capsys, argv) for argv in sequence]
        assert seen == [_fresh_process(argv) for argv in sequence]
        assert [code for code, _out, _err in seen] == codes
    assert json.loads(seen[0][1])["p"] == 7 and json.loads(seen[1][1])["p"] == 3


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    # not at import, which the benchmark's setup_s times, but on the first
    # call, and never again in the same process
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    probe = "import shintani.cli as c; print(c._parser)"
    assert subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=env).stdout == "None\n"
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    path = write(tmp_path, "in.json", {"test_function": TF_DIFF, "rays": [["1"]]})
    for _ in range(5):
        assert main(["--command", "vh", "--input", path]) == 0
    assert len(built) == 1


def test_pair_round_trip(tmp_path, capsys):
    path = write(tmp_path, "in.json", {
        "test_function": TF_DIFF, "cone": {"generators": [["1"]]},
    })
    code, out = run(capsys, "--command", "pair", "--input", path)
    pm = pm_from_json(json.loads(out))
    code2, out2 = run(capsys, "--command", "pair", "--input", path)
    assert pm_eq(pm, pm_from_json(json.loads(out2)))
    assert out == out2


def test_vh_command(tmp_path, capsys):
    path = write(tmp_path, "in.json", {
        "test_function": TF_DIFF, "rays": [{"name": "e1", "v": [1]}],
    })
    code, out = run(capsys, "--command", "vh", "--input", path)
    assert code == 0 and json.loads(out) == {"e1": True}
    path2 = write(tmp_path, "in2.json", {
        "test_function": TF_ONE, "rays": [{"name": "e1", "v": [1]}],
    })
    _, out2 = run(capsys, "--command", "vh", "--input", path2)
    assert json.loads(out2) == {"e1": False}
    path3 = write(tmp_path, "in3.json", {"test_function": TF_ONE, "rays": []})
    code3, out3 = run(capsys, "--command", "vh", "--input", path3)
    assert code3 == 0 and json.loads(out3) == {}


@pytest.mark.parametrize("ray, key", [
    (["0", "0"], "0,0"),
    (["0/3", 0], "0,0"),
    ({"name": "origin", "v": ["0", "0"]}, "origin"),
])
def test_a_zero_ray_is_refused_naming_it(tmp_path, capsys, ray, key):
    # a zero ray has no primitive vector: exit 2 naming the ray, then no report
    path = write(tmp_path, "in.json", {"test_function": TF_BALANCED_2D, "rays": [["1", "0"], ray]})
    assert main(["--command", "vh", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ray {key!r} is the zero vector\n"
    path = write(tmp_path, "in2.json", {"test_function": TF_BALANCED_2D, "rays": [["0", "1"]]})
    assert run(capsys, "--command", "vh", "--input", path)[0] == 0


@pytest.mark.parametrize("rays, key", [
    ([{"name": "a", "v": ["1", "0"]}, {"name": "a", "v": ["0", "1"]}, ["1", "0"], ["2", "0"],
      {"v": ["1", "0"]}], "a"),
    ([["1", "0"], ["2", "0"], {"v": ["1", 0]}], "1,0"),
    ([{"name": "1,0", "v": ["0", "1"]}, ["1", "0"]], "1,0"),
], ids=["named", "unnamed", "name-and-coordinates"])
def test_two_rays_with_one_report_key_are_refused_naming_it(tmp_path, capsys, rays, key):
    # the report maps each key to one verdict, so a repeated key would print
    # only the later verdict: exit 2 naming the key, then no report
    path = write(tmp_path, "in.json", {"test_function": TF_BALANCED_2D, "rays": rays})
    assert main(["--command", "vh", "--input", path]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: ray key {key!r} is repeated\n")
    path = write(tmp_path, "in2.json", {"test_function": TF_BALANCED_2D, "rays": [
        {"name": "a", "v": ["1", "0"]}, {"name": "b", "v": ["0", "1"]}, ["1", "0"], ["2", "0"]]})
    code, out = run(capsys, "--command", "vh", "--input", path)
    assert code == 0 and json.loads(out) == {"a": True, "b": False, "1,0": True, "2,0": True}


@pytest.mark.parametrize("name, printed", [
    (["x"], '["x"]'), (0, "0"), ("", '""'), (None, "null"),
], ids=["list", "zero", "empty", "null"])
def test_a_ray_name_that_is_not_a_non_empty_string_is_refused_naming_it(
        tmp_path, capsys, name, printed):
    # ["x"] once reported under the key "['x']", and 0, "" and null under the
    # ray's coordinates, with exit 0
    path = write(tmp_path, "in.json", {"test_function": TF_BALANCED_2D,
                                       "rays": [{"name": name, "v": ["1", "0"]}]})
    assert main(["--command", "vh", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ray name {printed} is not a non-empty string\n"


def test_moments_command(tmp_path, capsys):
    path = write(tmp_path, "in.json", {
        "test_function": TF_DIFF, "cone": {"generators": [["1"]]},
    })
    code, out = run(capsys, "--command", "moments", "--input", path, "--max-order", "2")
    assert code == 0
    rows = {tuple(r["order"]): r for r in json.loads(out)["moments"]}
    assert rows[(0,)]["rational"] == "1/2"
    assert rows[(1,)]["rational"] == "0"
    assert rows[(2,)]["rational"] == "-1/2"


def test_moments_rejects_non_measures(tmp_path, capsys):
    path = write(tmp_path, "in.json", {
        "test_function": TF_ONE, "cone": {"generators": [["1"]]},
    })
    assert main(["--command", "moments", "--input", path]) == 4


def test_moments_from_raw_pseudo_measure(tmp_path, capsys):
    pm_json = {
        "numerator": [
            {"vector": [1], "coeff": "1"},
            {"vector": [3], "coeff": "-1"},
        ],
        "denominator": [[4]],
    }
    path = write(tmp_path, "in.json", pm_json)
    code, out = run(capsys, "--command", "moments", "--input", path,
                    "--p", "3", "--max-order", "2")
    assert code == 0
    rows = {tuple(r["order"]): r for r in json.loads(out)["moments"]}
    assert rows[(0,)]["rational"] == "1/2"


def test_cocycle_command_and_determinism(tmp_path, capsys):
    path = write(tmp_path, "f.json", {"test_function": TF_BALANCED_2D})
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["--command", "cocycle", "--input", path, "--trials", "2",
                 "--seed", "7", "--out", str(out1)]) == 0
    assert main(["--command", "cocycle", "--input", path, "--trials", "2",
                 "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["all_pass"] and report["vh_e1"]
    assert len(report["trials"]) == 2


def test_cocycle_vacuous_and_corrupted(tmp_path, capsys):
    path = write(tmp_path, "f.json", {"test_function": TF_BALANCED_2D})
    assert main(["--command", "cocycle", "--input", path, "--trials", "0",
                 "--seed", "7", "--out", str(tmp_path / "v.json")]) == 0
    assert main(["--command", "cocycle", "--input", path, "--trials", "1",
                 "--seed", "7", "--corrupt-sign",
                 "--out", str(tmp_path / "c.json")]) == 6
    report = json.loads((tmp_path / "c.json").read_text())
    assert not report["all_pass"]
    assert "offending" in report["trials"][0]
    # a negative count is refused by name, not passed vacuously
    capsys.readouterr()
    assert main(["--command", "cocycle", "--input", path, "--trials", "-3"]) == 2
    assert capsys.readouterr() == ("", "error: --trials must be at least 0, got -3\n")


def test_four_dimensional_deformed_cones_pass_and_are_measures(tmp_path, capsys):
    # each deformed cone pairs as one half-open cell, here 4-dimensional ones
    # at n = 4, M = 2: 8 trials pass, and f smoothed along e_1 makes every
    # paired cocycle value a measure
    tf = {"n": 4, "p": 3, "M": 2, "terms": [{"residue": [x, *r], "weight": 1 if x else -1}
                                            for x in (0, 1) for r in product((0, 1), repeat=3)]}
    code, out = run(capsys, "--command", "cocycle", "--trials", "8", "--seed", "1",
                    "--input", write(tmp_path, "f.json", {"test_function": tf}))
    report = json.loads(out)
    assert (code, report["all_pass"], report["measure_valued"]) == (0, True, True)


def test_a_function_that_fails_vh_along_e1_fails_the_measure_check_but_not_the_run(
        tmp_path, capsys):
    # a single residue fails vh along e_1, so the measure check fails too; the
    # hypothesis of the measure check does not hold, so all_pass stays true
    tf = {"n": 3, "p": 3, "M": 4, "terms": [{"residue": [1, 0, 0], "weight": 1}]}
    code, out = run(capsys, "--command", "cocycle", "--trials", "4", "--seed", "1",
                    "--input", write(tmp_path, "f.json", {"test_function": tf}))
    report = json.loads(out)
    assert code == 0
    assert [report["vh_e1"], report["measure_valued"], report["all_pass"]] == [False, False, True]


def test_a_failed_measure_check_under_vh_fails_the_run(tmp_path, capsys, monkeypatch):
    # vh holds along e_1, so a paired cocycle value that is not a measure
    # fails the run (exit 6) although every trial passes
    monkeypatch.setattr("shintani.cocycle.verify_measure_valued", lambda *args, **kw: False)
    code, out = run(capsys, "--command", "cocycle", "--trials", "2", "--seed", "7",
                    "--input", write(tmp_path, "f.json", {"test_function": TF_BALANCED_2D}))
    report = json.loads(out)
    assert code == cli.EXIT_TRIAL_FAILED
    assert [report["vh_e1"], report["measure_valued"], report["all_pass"]] == [True, False, False]
    assert all(t["cocycle"] and t["equivariance"] for t in report["trials"])


def test_cocycle_reports_the_verified_q(tmp_path, capsys):
    # at seed 9705 the first deformation vector lies on a face hyperplane of
    # the trial; the CLI verifies the trial at that very vector (the
    # infinitesimal frame breaks the tie), so the corrupted trial fails with
    # exit 6, the plain one passes, and the report records the drawn q
    tf = {"n": 3, "p": 3, "M": 4, "terms": [
        {"residue": [x, a, b], "weight": 1 if x == 1 else -1}
        for x in (1, 3) for a in range(4) for b in range(4)]}
    path = write(tmp_path, "f.json", {"test_function": tf})
    out = tmp_path / "r.json"
    assert main(["--command", "cocycle", "--input", path, "--trials", "1", "--corrupt-sign",
                 "--seed", "9705", "--out", str(out)]) == 6
    trial = json.loads(out.read_text())["trials"][0]
    assert trial["q"] == ["-1", "-27/13", "-25/13"]
    q = tuple(Fraction(x) for x in trial["q"])
    assert q == sample_deformation(3, random.Random(9705))
    assert not trial["cocycle"] and trial["equivariance"]
    f = from_json(tf)
    mats = tuple(trial["matrices"])
    assert verify_cocycle(f, mats, q) is None
    # q lies on a face hyperplane of at least one nonzero term
    on_face = 0
    for i in range(4):
        cols = [tuple(row[0] for row in m) for j, m in enumerate(mats) if j != i]
        if linalg.det(cols) and 0 in _solve_coords(cols, q):
            on_face += 1
            assert open_faces(psi_cdg([m for j, m in enumerate(mats) if j != i], q))
    assert on_face
    plain = tmp_path / "p.json"
    assert main(["--command", "cocycle", "--input", path, "--trials", "1",
                 "--seed", "9705", "--out", str(plain)]) == 0
    assert json.loads(plain.read_text())["trials"][0]["q"] == trial["q"]


def test_moments_rejects_more_denominator_vectors_than_the_dimension(tmp_path, capsys):
    path = write(tmp_path, "in.json", {
        "numerator": [{"vector": [0, 0], "coeff": "1"}],
        "denominator": [[1, 0], [0, 1], [1, 1]],
    })
    assert main(["--command", "moments", "--input", path, "--p", "3"]) == 3
    # the refusal names the denominator, sorted as the pseudo-measure stores it
    assert capsys.readouterr() == (
        "", "error: denominator vectors [[0, 1], [1, 0], [1, 1]] are linearly dependent\n")


def test_a_raw_pseudo_measure_above_max_dimension_is_refused_at_once(tmp_path, capsys):
    # the entries of an elimination on a dense n x n denominator, and so its
    # time, grow steeply with n, so a raw pseudo-measure has the step
    # function's bound on n: past it, exit 2 naming n and the bound within a
    # second, before any elimination, on a unit denominator at n = 33 and a
    # dense one at n = 80; at the bound it is read
    rng = random.Random(80)
    for n, den in ((MAX_DIMENSION + 1, [[1] + [0] * MAX_DIMENSION]),
                   (80, [[rng.randint(-3, 3) for _ in range(80)] for _ in range(80)])):
        path = write(tmp_path, "in.json", {"numerator": [{"vector": [1] * n, "coeff": "1"}],
                                           "denominator": den})
        start = time.perf_counter()
        assert main(["--command", "moments", "--input", path, "--p", "3", "--max-order", "0"]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", f"error: bad pseudo-measure JSON: dimension n = {n} "
                                           f"is above MAX_DIMENSION = {MAX_DIMENSION}\n")
    path = write(tmp_path, "top.json", {"numerator": [{"vector": [0] * MAX_DIMENSION,
                                                       "coeff": "1"}], "denominator": []})
    code, out = run(capsys, "--command", "moments", "--input", path, "--max-order", "0")
    assert (code, json.loads(out)["moments"]) == (0, [
        {"order": [0] * MAX_DIMENSION, "rational": "1", "padic": "3^0*1"}])


def test_a_dense_raw_denominator_is_refused_without_an_adjugate(tmp_path, capsys):
    # a seeded dense 32 x 32 denominator with one numerator term: the pole test
    # runs on the index of the Hermite pass that validates the denominator and
    # builds no adjugate, whose products grew with the elimination's entries,
    # so the refusal (exit 4) takes well under a second
    rng = random.Random(1)
    while linalg.det(den := [[rng.randint(-3, 3) for _ in range(32)] for _ in range(32)]) == 0:
        pass
    path = write(tmp_path, "dense.json", {"numerator": [{"vector": [0] * 32, "coeff": "1"}],
                                          "denominator": den})
    start = time.perf_counter()
    assert main(["--command", "moments", "--input", path, "--p", "3", "--max-order", "0"]) == 4
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", "error: series-side divisibility test fails\n")


def test_moments_rejects_a_pole_beyond_the_series_degree(tmp_path, capsys):
    # sum_t (-1)^t C(13, t) delta_(0,t) over 1 - delta_(1,0) at p = 3: every
    # coefficient of the T_1 = 0 series up to degree 12 cancels, yet the
    # fibre sums do not, so the pole is genuine
    pm_json = {
        "numerator": [{"vector": [0, t], "coeff": str((-1) ** t * comb(13, t))}
                      for t in range(14)],
        "denominator": [[1, 0]],
    }
    assert not is_measure_amice(pm_from_json(pm_json), 3)
    path = write(tmp_path, "pole.json", pm_json)
    assert main(["--command", "moments", "--input", path, "--p", "3"]) == 4


def test_moments_at_high_precision(tmp_path, capsys):
    path = write(tmp_path, "in.json", {
        "numerator": [{"vector": [1], "coeff": "1"}, {"vector": [3], "coeff": "-1"}],
        "denominator": [[4]],
    })
    tables = {}
    for precision in ("20", "700"):
        code, out = run(capsys, "--command", "moments", "--input", path,
                        "--p", "3", "--precision", precision)
        assert code == 0
        tables[precision] = [r["rational"] for r in json.loads(out)["moments"]]
    assert tables["700"] == tables["20"] == ["1/2", "0", "-1/2", "0"]


def test_moments_refuse_what_is_too_long_to_print(tmp_path, capsys):
    # CPython prints no int of more than 4300 digits. The CLI refuses first,
    # against its own bound: a --precision whose p^precision is past
    # PRINT_BITS bits before any moment is computed, and a moment whose
    # numerator or denominator is past it, naming the moment's order; both
    # exit 2 without reaching the interpreter's limit
    assert 2**PRINT_BITS < 10**4300 < 2 ** (PRINT_BITS + 1)
    split = write(tmp_path, "split.json", {
        "numerator": [{"vector": [x], "coeff": str(c)}
                      for x, c in {-8: 3, 5: 2, 7: 2, 11: -1, 13: -5, 14: -1}.items()],
        "denominator": [[-12]]})
    # 3^9000 has 4295 digits, 3^9100 has 4342
    code, out = run(capsys, "--command", "moments", "--input", split, "--p", "3",
                    "--precision", "9000")
    assert code == 0
    assert max(len(r["padic"]) for r in json.loads(out)["moments"]) > 4000
    for precision in ("9100", "100000"):
        assert main(["--command", "moments", "--input", split, "--p", "3",
                     "--precision", precision]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --precision {precision}: p^precision is past ")
    # (delta_0 - delta_N)/(1 - delta_1) is sum_{0 <= x < N} delta_x: its
    # order-k moment is about N^(k+1)/(k+1), past the bound at k = 43 for N = 10^100
    big = write(tmp_path, "big.json", {
        "numerator": [{"vector": [0], "coeff": "1"}, {"vector": [str(10**100)], "coeff": "-1"}],
        "denominator": [[1]]})
    code, out = run(capsys, "--command", "moments", "--input", big, "--n", "1", "--max-order", "42")
    assert code == 0
    rows = json.loads(out)["moments"]
    assert Fraction(rows[1]["rational"]) == Fraction(10**100 * (10**100 - 1), 2)
    assert len(rows[42]["rational"]) > 4200
    assert main(["--command", "moments", "--input", big, "--n", "1", "--max-order", "44"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: moment [43] is past {PRINT_BITS} bits")


def _table(n, M, values):
    return {"n": n, "p": 3, "M": M, "terms": [
        {"residue": list(r), "weight": w} for r, w in sorted(values.items()) if w]}


def _difference(values, M, s):
    out = dict(values)
    for r, w in values.items():
        t = tuple((a + b) % M for a, b in zip(r, s))
        out[t] = out.get(t, 0) - w
    return out


_T2 = {(a, b): (3 * a + b * b) % 5 - 2 for a, b in product(range(4), repeat=2)}
_T3 = {r: (2 * sum(r) + r[0]) % 3 - 1 for r in product(range(2), repeat=3)}
_F3 = {(x, a, b): 1 if x else -1 for x, a, b in product(range(2), repeat=3)}
# (d1 - d3)(x) * (d1 - d4 + 2 d2 - 2 d8)(y) over (1 - d(4,0))(1 - d(0,12)):
# a product of two measures whose denominator lattice has index 48 in Z^2,
# so at p = 3 the moments run per coset, two of the three carrying mass
_PM_P_COSETS = {
    "numerator": [{"vector": [x, y], "coeff": str(a * b)}
                  for x, a in ((1, 1), (3, -1)) for y, b in ((1, 1), (4, -1), (2, 2), (8, -2))],
    "denominator": [[4, 0], [0, 12]],
}
GOLDEN = {
    "pair_cone_function": ({"test_function": _table(2, 4, _T2), "cone_function": [
        {"coefficient": 1, "generators": [["1", "2"], ["3", "-1"]]},
        {"coefficient": -2, "generators": [["-1", "-2"], ["3", "-1"]]},
        {"coefficient": 1, "generators": [["2", "2"]]},
    ]}, ["--command", "pair"]),
    "pair_n3": ({"test_function": _table(3, 2, _T3), "cone": {
        "generators": [["1", "1", "0"], ["0", "1", "2"], ["1", "0", "1/2"]]}},
        ["--command", "pair"]),
    "vh": ({"test_function": TF_BALANCED_2D, "rays": [
        {"name": "e1", "v": [1, 0]}, [0, 1], ["1", "1"], {"v": [2, -1]}]},
        ["--command", "vh"]),
    "moments_cone": ({"test_function": _table(2, 4, _difference(_difference(_T2, 4, (1, 0)), 4, (1, 2))),
                      "cone": {"generators": [["1", "0"], ["1", "2"]]}},
                     ["--command", "moments", "--max-order", "3"]),
    "moments_pseudo_measure": (_PM_P_COSETS, ["--command", "moments", "--p", "3", "--max-order", "2"]),
    "cocycle_n2": ({"test_function": TF_BALANCED_2D},
                   ["--command", "cocycle", "--trials", "3", "--seed", "7"]),
    "cocycle_n3": ({"test_function": _table(3, 2, _F3)},
                   ["--command", "cocycle", "--trials", "3", "--seed", "5"]),
    # the one pinned report that prints a cocycle witness: its "offending"
    # prints the 8 lowest of the sum's 32 numerator terms in n = 3 and the 4
    # deformed cones, so it pins the order of the vectors and of their
    # coordinates, and the witness format
    "cocycle_n3_corrupt": ({"test_function": _table(3, 2, _F3)},
                           ["--command", "cocycle", "--trials", "1", "--seed", "7", "--corrupt-sign"]),
}
# sha256 of each report, recorded before elimination, coset enumeration and
# the deformation retry were each folded into one kernel; the retired
# "bound" key is dropped from cocycle configs before hashing, and the
# retired "precision" and "degree" keys, which no cocycle check reads, are
# restored at the values those reports echoed. The two moments reports were
# re-recorded when moments became exact: see SERIES_MOMENTS; cocycle_n3_corrupt
# was re-recorded when "offending" became a bounded witness of the sum
GOLDEN_SHA256 = {
    "cocycle_n2": "e2ff825631f8f0839eb3278fb5d86e5610ccafa603c2a0311f0b0f863044e8ed",
    "cocycle_n3": "fbf8ecfb29ad7b0c0bf27f3b2e0b2f4ff564ee7fd40e240e301bead3e3a3bc69",
    "cocycle_n3_corrupt": "ea1f77c56683973ea2338957fe9ab8d1be6dc796c24a686ec34b63d194c01320",
    "moments_cone": "1c58a8a188a8760fbfc7362e3473e84badbf6a80e8604e83a23a21fb22fe8109",
    "moments_pseudo_measure": "27c4e85b916ec0b8b006fec173f20688ee2de980b628f014d30b40cff16cd1ec",
    "pair_cone_function": "3b23a09b41ded43407308d2340711bddba2cac75175f1e271310d86df1f29a10",
    "pair_n3": "5a2a50e84462a73e9f4fe223b8536b11abc9414f5462585f2eba8823b614347b",
    "vh": "4e289d27d0b8c6946cb6bd2ebf56ca3d93ca45c9eb38aa0f16952a1533000a0b",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reports_match_golden_hashes(tmp_path, capsys, name):
    payload, argv = GOLDEN[name]
    out = tmp_path / "report.json"
    code = cli.EXIT_TRIAL_FAILED if "--corrupt-sign" in argv else cli.EXIT_OK
    assert main(argv + ["--input", write(tmp_path, "in.json", payload), "--out", str(out)]) == code
    report = json.loads(out.read_text(encoding="utf-8"))
    if "config" in report:
        assert not {"bound", "precision", "degree"} & set(report["config"])
        report["config"].update(precision=20, degree=12)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[name]


# seeded --corrupt-sign runs at n = 2, 3 and 4, each with the sha256 of the
# report it printed when a failed trial's "offending" was the whole sum
_TF4 = {"n": 4, "p": 3, "M": 2, "terms": [{"residue": [x, *r], "weight": 1 if x else -1}
                                          for x in (0, 1) for r in product((0, 1), repeat=3)]}
WITNESS_RUNS = {
    2: (TF_BALANCED_2D, ["--trials", "4", "--seed", "7"],
        "1886e98eb0325a1978564510e9fd22ad24ffa01b0a1d342714ffadeec684f3c9"),
    3: (_table(3, 2, _F3), ["--trials", "3", "--seed", "7"],
        "9de3e54da3468e66de4c1c00d8d0dfc48e83b10332ec408c63fe4e4d4a0dcb8c"),
    4: (_TF4, ["--trials", "8", "--seed", "1"],
        "c8f320f511b4432d136528e6eb7e079ddd920a314ceeb1de8d5036288765aeb6"),
}


def _rebuild(cones, f):
    """The alternating sum from a witness's cones, each paired as one half-open cell."""
    terms = []
    for cone in filter(None, cones):
        prims = [tuple(s) for s in cone["generators"]]
        closed = frozenset(prims[i] for i in cone["closed"])
        terms.append((cone["coefficient"], pair_half_open(frozenset(prims), closed, f)))
    return pm_sum(terms)


@pytest.mark.parametrize("n", sorted(WITNESS_RUNS))
def test_a_failed_trial_prints_a_witness_that_rebuilds_its_sum(tmp_path, capsys, monkeypatch, n):
    tf, argv, old_sha256 = WITNESS_RUNS[n]
    calls, sums = [], []
    monkeypatch.setattr("shintani.cocycle.verify_cocycle",
                        lambda *args: calls.append(args) or verify_cocycle(*args))
    monkeypatch.setattr("shintani.cocycle._alternating_sum",
                        lambda *args: sums.append(args) or _alternating_sum(*args))
    code, out = run(capsys, "--command", "cocycle", "--corrupt-sign", *argv,
                    "--input", write(tmp_path, "f.json", {"test_function": tf}))
    assert code == cli.EXIT_TRIAL_FAILED
    report = json.loads(out)
    # each trial is decided by one verify_cocycle call, which builds its sum
    # once, a failed trial included
    assert len(calls) == len(sums) == len(report["trials"])
    f, failed = from_json(tf), 0
    for trial in report["trials"]:
        if "offending" not in trial:
            continue
        failed += 1
        witness = trial["offending"]
        mats, q = trial["matrices"], [Fraction(x) for x in trial["q"]]
        # the whole sum, face by face, with the first term flipped
        full = pm_sum([((-1) ** i * (-1 if i == 0 else 1), phi(f, mats[:i] + mats[i + 1:], q))
                       for i in range(n + 1)])
        want = pm_to_json(full)
        assert sorted(witness) == ["cones", "denominator", "numerator", "terms"]
        assert witness["denominator"] == want["denominator"]
        assert witness["terms"] == len(want["numerator"]) > cli.WITNESS_TERMS
        assert witness["numerator"] == want["numerator"][:cli.WITNESS_TERMS]
        assert len(witness["cones"]) == n + 1
        rebuilt = _rebuild(witness["cones"], f)
        assert pm_to_json(rebuilt) == want
        # negative control: flipping a cone that pairs to nonzero breaks the rebuild
        flips = 0
        for i, cone in enumerate(witness["cones"]):
            if cone and _rebuild([cone], f).num:
                flipped = list(witness["cones"])
                flipped[i] = {**cone, "coefficient": -cone["coefficient"]}
                assert not pm_eq(_rebuild(flipped, f), full)
                flips += 1
        assert flips
        trial["offending"] = want
    assert failed
    # outside "offending" the report is the one the whole sum was printed in
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == old_sha256


def test_a_trial_where_only_equivariance_fails_prints_no_witness(tmp_path, capsys, monkeypatch):
    # the cocycle identity holds, so there is no sum to show: the trial and
    # the run fail (exit 6), and no trial prints "offending"
    monkeypatch.setattr("shintani.cocycle.verify_equivariance", lambda *args: False)
    code, out = run(capsys, "--command", "cocycle", "--trials", "3", "--seed", "7",
                    "--input", write(tmp_path, "f.json", {"test_function": TF_BALANCED_2D}))
    assert code == cli.EXIT_TRIAL_FAILED
    report = json.loads(out)
    assert report["all_pass"] is False
    assert [(t["cocycle"], t["equivariance"]) for t in report["trials"]] == [(True, False)] * 3
    assert not any("offending" in t for t in report["trials"])


# the moments the two golden moments reports printed when they were read off
# a p-adic series at 20 digits: (order, padic, absolute precision of that
# string, rational). The series lost digits to cancellation, so some strings
# were short or read O(3^21); the exact moments must print every rational
# unchanged and agree with each old string modulo 3^(its precision)
SERIES_MOMENTS = {
    "moments_cone": [
        ((0, 0), "3^0*2179240250", 20, "-5/8"), ((0, 1), "3^0*1307544148", 20, "-19/8"),
        ((1, 0), "3^2*48427561", 20, "-9/8"), ((0, 2), "3^0*2615088299", 20, "-7/4"),
        ((1, 1), "3^1*72641341", 20, "-33/16"), ((2, 0), "3^1*72641341", 20, "-33/16"),
        ((0, 3), "3^0*2615088316", 20, "61/4"), ((1, 2), "3^0*3050936354", 20, "25/8"),
        ((2, 1), "3^0*217924024", 20, "-17/16"), ((3, 0), "3^1*653772074", 20, "-57/16"),
    ],
    "moments_pseudo_measure": [
        ((0, 0), "3^0*1307544151", 20, "5/8"), ((0, 1), "3^1*1089620125", 20, "-15/16"),
        ((1, 0), "O(3^21)", 21, "0"), ((0, 2), "3^0*3050936347", 20, "-31/8"),
        ((1, 1), "O(3^21)", 21, "0"), ((2, 0), "3^0*2179240250", 20, "-5/8"),
    ],
}


def _padic_value(text, p):
    if text == "0" or text.startswith("O("):
        return Fraction(0)
    power, unit = text.split("*")
    base, val = power.split("^")
    assert int(base) == p
    return Fraction(p) ** int(val) * int(unit)


def _p_valuation(x, p):
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


@pytest.mark.parametrize("name", sorted(SERIES_MOMENTS))
def test_exact_moments_agree_with_the_series_strings(tmp_path, capsys, name):
    payload, argv = GOLDEN[name]
    code, out = run(capsys, *argv, "--input", write(tmp_path, "in.json", payload))
    assert code == 0
    rows = json.loads(out)["moments"]
    assert [tuple(r["order"]) for r in rows] == [row[0] for row in SERIES_MOMENTS[name]]
    changed = 0
    for r, (_order, old, abs_prec, rational) in zip(rows, SERIES_MOMENTS[name]):
        assert r["rational"] == rational
        new = _padic_value(r["padic"], 3)
        for reference, digits in ((_padic_value(old, 3), abs_prec), (Fraction(rational), 20)):
            assert new == reference or _p_valuation(new - reference, 3) >= digits, (r, old)
        changed += r["padic"] != old
    assert changed == {"moments_cone": 3, "moments_pseudo_measure": 2}[name]


def test_moments_of_a_zero_measure_have_its_dimension(tmp_path, capsys):
    # a zero numerator still has the dimension of its denominator vectors;
    # --n is read only when the pseudo-measure gives no vector at all
    cases = [
        ({"test_function": {"n": 1, "p": 3, "M": 4, "terms": []}, "cone": {"generators": [["1"]]}},
         1),
        ({"numerator": [], "denominator": [[4, 0, 0]]}, 3),
        ({"numerator": [], "denominator": []}, 2),
    ]
    for payload, dim in cases:
        code, out = run(capsys, "--command", "moments", "--input", write(tmp_path, "in.json", payload),
                        "--max-order", "1")
        assert code == 0
        rows = json.loads(out)["moments"]
        assert [r["order"] for r in rows] == [[0] * dim] + [
            [int(i == j) for i in range(dim)] for j in reversed(range(dim))]
        assert all(r["padic"] == r["rational"] == "0" for r in rows)


def test_moments_of_a_p_split_measure_are_exact(tmp_path, capsys):
    # p = 3 divides the index 12 of the denominator lattice and the
    # numerator's sums on the classes 1 and 2 mod 3 vanish, so the measure
    # test runs on two cosets. The order-k moment is the sum of
    # coeff * zeta(-k, x/-12) * (-12)^k over the numerator points x; at
    # order 3 it is -111955/8, too large to be read back from 20 p-adic
    # digits as a small fraction
    num = {-8: 3, 5: 2, 7: 2, 11: -1, 13: -5, 14: -1}
    payload = {"numerator": [{"vector": [x], "coeff": str(c)} for x, c in num.items()],
               "denominator": [[-12]]}
    code, out = run(capsys, "--command", "moments", "--input", write(tmp_path, "in.json", payload),
                    "--p", "3")
    assert code == 0
    rows = json.loads(out)["moments"]
    want = [sum(c * hurwitz_zeta_neg(k, Fraction(x, -12)) * (-12) ** k for x, c in num.items())
            for k in range(4)]
    assert [Fraction(r["rational"]) for r in rows] == want
    assert rows[3]["rational"] == "-111955/8"


@pytest.mark.parametrize("flag, value, args", [
    ("--p", "0", ()), ("--p", "1", ()), ("--p", "4", ()), ("--p", "-3", ()),
    ("--precision", "0", ()), ("--precision", "-2", ()), ("--precision", "0", ("cone",)),
    ("--n", "0", ()), ("--n", "-1", ()),
])
def test_moments_rejects_bad_flag_values(tmp_path, capsys, flag, value, args):
    # a raw pseudo-measure needs a prime --p and a dimension --n of at least
    # 1, and every moment prints at least one p-adic digit; a bad value is
    # exit 2 naming the flag, before any moment is computed
    payload = {"test_function": TF_DIFF, "cone": {"generators": [["1"]]}} if args else {
        "numerator": [{"vector": [1], "coeff": "1"}, {"vector": [3], "coeff": "-1"}],
        "denominator": [[4]],
    }
    path = write(tmp_path, "in.json", payload)
    assert main(["--command", "moments", "--input", path, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be ")


def test_moments_rejects_malformed_pseudo_measures(tmp_path, capsys):
    for payload in (
        {"numerator": [{"vector": [1], "coeff": "1/0"}], "denominator": [[4]]},
        {"numerator": [{"vector": [1], "coeff": "1"}, {"vector": [], "coeff": "1"}],
         "denominator": [[4]]},
        {"numerator": [{"vector": [1], "coeff": "1"}], "denominator": [[4, 0]]},
    ):
        path = write(tmp_path, "in.json", payload)
        assert main(["--command", "moments", "--input", path, "--p", "3"]) == 2
        assert capsys.readouterr().err.startswith("error: bad pseudo-measure JSON: ")


def test_moments_with_a_negative_max_order_print_an_empty_table(tmp_path, capsys):
    path = write(tmp_path, "in.json", _PM_P_COSETS)
    code, out = run(capsys, "--command", "moments", "--input", path, "--max-order", "-1")
    assert code == 0
    assert json.loads(out) == {"p": 3, "precision": 20, "moments": []}


def test_moment_orders_are_the_orders_of_bounded_total():
    for n in range(4):
        for top in range(-1, 5):
            want = sorted((e for e in product(range(top + 1), repeat=n) if sum(e) <= top),
                          key=lambda e: (sum(e), e))
            assert moment_table(pm_zero(), 3, n, top) == [(e, 0) for e in want]


def test_moments_refuse_a_table_over_the_budget(tmp_path, capsys):
    # the table's work, C(max + n, n) orders and max^2 Bernoulli steps, is
    # predicted before any moment is computed: past the budget it is exit 2
    # naming --max-order (a separate process, so a table that did start is
    # caught by the timeout instead of holding the suite)
    pm3 = {"numerator": [{"vector": [1, 0, 0], "coeff": "1"}, {"vector": [3, 0, 0], "coeff": "-1"}],
           "denominator": [[4, 0, 0]]}
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "shintani.cli", "--command", "moments",
                           "--input", write(tmp_path, "in.json", pm3), "--max-order", "1000000"],
                          capture_output=True, text=True, timeout=20, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: --max-order 1000000 asks for at least ")
    # in one dimension the work is max^2 + max + 1: 44 fits 2000, 45 does not
    assert 44**2 + 45 <= MOMENT_BUDGET < 45**2 + 46
    path = write(tmp_path, "in1.json", {"numerator": [{"vector": [1], "coeff": "1"},
                                                      {"vector": [3], "coeff": "-1"}],
                                        "denominator": [[4]]})
    code, out = run(capsys, "--command", "moments", "--input", path, "--max-order", "44")
    assert code == 0 and len(json.loads(out)["moments"]) == 45
    assert main(["--command", "moments", "--input", path, "--max-order", "45"]) == 2
    assert "--max-order 45" in capsys.readouterr().err


def _mutate(rng, value, depth=0):
    """value with one random node replaced, dropped or retyped."""
    junk = [None, True, 0, -1, 3, 2.5, "", "x", "1/0", "1/3", "-7", [], {}, [[]], ["1"], [0, 0],
            {"vector": [1], "coeff": "1"}, 10**30]
    if depth > 3 or not isinstance(value, (dict, list)) or not value or rng.random() < 0.25:
        return rng.choice(junk)
    out = dict(value) if isinstance(value, dict) else list(value)
    key = rng.choice(list(out)) if isinstance(out, dict) else rng.randrange(len(out))
    if rng.random() < 0.2:
        del out[key]
    else:
        out[key] = _mutate(rng, out[key], depth + 1)
    return out


def test_moments_fuzz_sees_only_documented_exit_codes(tmp_path, capsys):
    # seeded mutations of the moments flags and of both input schemas:
    # every run ends in a documented exit code and nothing escapes main
    rng = random.Random(59)
    bases = [
        _PM_P_COSETS,
        {"numerator": [{"vector": [1], "coeff": "1"}, {"vector": [3], "coeff": "-1"}],
         "denominator": [[4]]},
        {"test_function": TF_DIFF, "cone": {"generators": [["1"]]}},
        {"test_function": TF_BALANCED_2D, "cone": {"generators": [["1", "0"], ["1", "2"]]}},
    ]
    codes = set()
    for i in range(300):
        payload = rng.choice(bases)
        for _ in range(rng.randint(0, 2)):
            payload = _mutate(rng, payload)
        argv = ["--command", "moments", "--input", write(tmp_path, f"in{i}.json", payload),
                "--p", str(rng.choice((-3, 0, 1, 2, 3, 4, 5, 9))),
                "--precision", str(rng.choice((-1, 0, 1, 2, 20))),
                "--max-order", str(rng.choice((-1, 0, 1, 2))),
                "--n", str(rng.choice((0, 1, 2)))]
        code = main(argv)
        capsys.readouterr()
        assert code in {0, 2, 3, 4}, (argv, payload)
        codes.add(code)
    assert {0, 2, 4} <= codes


@pytest.mark.parametrize("command, bases, extra, seen", [
    ("vh", [{"test_function": TF_DIFF, "rays": [["1"], {"name": "back", "v": ["-2"]}]},
            {"test_function": TF_BALANCED_2D, "rays": [["1", "0"], ["0", "1"], ["1", "1"]]}],
     [], {0, 2}),
    ("pair", [{"test_function": TF_DIFF, "cone": {"generators": [["1"]]}},
              {"test_function": TF_BALANCED_2D, "cone_function": [
                  {"coefficient": 1, "generators": [["1", "0"], ["1", "2"]]},
                  {"coefficient": -1, "generators": [["1", "0"]]}]}],
     [], {0, 2, 3}),
    ("cocycle", [{"test_function": TF_DIFF},
                 {"test_function": {"n": 2, "p": 3, "M": 2, "terms": [
                     {"residue": [1, 0], "weight": 1}, {"residue": [0, 1], "weight": -1}]}}],
     ["--trials", "1"], {0, 2}),
], ids=["vh", "pair", "cocycle"])
def test_fuzz_sees_only_documented_exit_codes(tmp_path, capsys, command, bases, extra, seen):
    # seeded mutations of each command's input, as for moments: every run
    # ends in a documented exit code and nothing escapes main
    rng = random.Random(61)
    codes = set()
    for i in range(500):
        payload = rng.choice(bases)
        for _ in range(rng.randint(0, 2)):
            payload = _mutate(rng, payload)
        argv = ["--command", command, "--input", write(tmp_path, f"in{i}.json", payload),
                "--seed", str(rng.randrange(100)), *extra]
        code = main(argv)
        capsys.readouterr()
        assert code in {0, 2, 3, 4, 6}, (argv, payload)
        codes.add(code)
    assert seen <= codes, codes
