"""End-to-end smokes of the command line, each run as `python -m shintani.cli`
in a fresh process: a printed p-adic expansion, a dense cell's term count and
peak memory, the largest n = 3 moment table the budget accepts, a 10^4-term
moment table's time and peak memory, a failed cocycle trial's bounded witness,
and the exact reports of a congruence cell and of cocycle trials whose
deformation vector lies on a face hyperplane. Each keeps the input, expected
value, bound and timeout of the CI check it replaced; the tier-1 suite is the
only place CLI behaviour is checked, and CI runs the installed console script
only to compare it with the module entry point. A last check imports the CLI
in a clean interpreter and names the modules it must not load.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _cli(tmp_path, payload, *argv, timeout=None):
    """(exit code, stdout) of `python -m shintani.cli` on the payload as --input."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "shintani.cli", *argv, "--input", str(path)],
                          capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": SRC})
    return proc.returncode, proc.stdout


def padic_string(tmp_path):
    # a measure whose denominator lattice has index divisible by p = 3: its
    # third moment is -111955/8, a value that 20 p-adic digits cannot pin
    # down; the row's expansion at p = 3, from the printer in cli.py
    pm = {"numerator": [{"vector": [-8], "coeff": "3"}, {"vector": [5], "coeff": "2"},
                        {"vector": [7], "coeff": "2"}, {"vector": [11], "coeff": "-1"},
                        {"vector": [13], "coeff": "-5"}, {"vector": [14], "coeff": "-1"}],
          "denominator": [[-12]]}
    code, out = _cli(tmp_path, pm, "--command", "moments", "--p", "3")
    assert code == 0
    assert '"rational": "-111955/8"' in out
    assert '"padic": "3^0*1307530156"' in out


def dense_cell(tmp_path):
    # a dense step function pairs in one pass over its cell: every residue
    # of (Z/2)^12 weighted on the unit cone is a 4096-point cell and 4096
    # numerator terms, read through a table of the 4096 support residues (a
    # table of |support| * 2^n keys took 13 s and 1.5 GB on this input)
    n = 12
    payload = {"test_function": {"n": n, "p": 3, "M": 2, "terms": [
        {"residue": list(r), "weight": 1 + sum(r) % 3}
        for r in itertools.product((0, 1), repeat=n)]},
        "cone": {"generators": [[str(int(i == j)) for j in range(n)] for i in range(n)]}}
    code, out = _cli(tmp_path, payload, "--command", "pair", timeout=20)
    assert code == 0
    assert len(json.loads(out)["numerator"]) == 4096
    # and in little memory: the peak RSS of a process that runs it through
    # cli.main stays under 200 MB (ru_maxrss is per process, so its own)
    probe = ("import resource, sys; from shintani import cli; code = cli.main(['--command', "
             "'pair', '--input', sys.argv[1], '--out', sys.argv[2]]); mb = resource.getrusage("
             "resource.RUSAGE_SELF).ru_maxrss / 1024; print(code, mb, 'MB'); "
             "sys.exit(code != 0 or mb >= 200)")
    report = tmp_path / "dense_cli.json"
    proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "in.json"), str(report)],
                          capture_output=True, text=True, timeout=20,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert report.read_text(encoding="utf-8") == out


def moments_n3_top_order(tmp_path):
    # the largest n = 3 table the moment budget accepts (--max-order 19), on a
    # cone whose basis is not diagonal, in integer arithmetic: all C(22, 3)
    # orders of total at most 19; the report's sha256 was recorded before the
    # check moved out of the CI workflow
    payload = {"test_function": {"n": 3, "p": 3, "M": 2, "terms": [
        {"residue": [x, a, b], "weight": 4 if x else -4}
        for x in (0, 1) for a in (0, 1) for b in (0, 1)]},
        "cone": {"generators": [["-1", "2", "-2"], ["-2", "2", "-2"], ["-1", "0", "1"]]}}
    code, out = _cli(tmp_path, payload, "--command", "moments", "--max-order", "19", timeout=60)
    assert code == 0
    assert len(json.loads(out)["moments"]) == 1540
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e6cd6ec914bed6d80b55009c378b5855b54847f03e10576030d1e76ea9ec6c93")


def moments_alternating_10k_terms(tmp_path):
    # a 10^4-term table: the unit cone paired with f(x) = g(x_1) g(x_2), g
    # alternating +-1 mod M = 100, at --max-order 20, whose power sums are
    # built one column product per term per key (per-key products of powers
    # took 3 s); keeping every list of them reached 182 MB
    M = 100
    payload = {"test_function": {"n": 2, "p": 3, "M": M, "terms": [
        {"residue": [a, b], "weight": (-1) ** (a + b)} for a in range(M) for b in range(M)]},
        "cone": {"generators": [["1", "0"], ["0", "1"]]}}
    code, out = _cli(tmp_path, payload, "--command", "moments", "--max-order", "20", timeout=30)
    assert code == 0
    assert len(json.loads(out)["moments"]) == 231
    # the peak RSS of a process that runs it through cli.main stays under
    # 100 MB, and its --out file is the report printed to stdout
    probe = ("import resource, sys; from shintani import cli; code = cli.main(['--command', "
             "'moments', '--input', sys.argv[1], '--max-order', '20', '--out', sys.argv[2]]); "
             "mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024; "
             "print(code, mb, 'MB'); sys.exit(code != 0 or mb >= 100)")
    report = tmp_path / "alt_cli.json"
    proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "in.json"), str(report)],
                          capture_output=True, text=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert report.read_text(encoding="utf-8") == out


def cocycle_witness_n4(tmp_path):
    # a failed trial prints a bounded witness of its sum: the term count and
    # a few lowest terms (the whole sum made the report 36,795 bytes); under
    # --corrupt-sign the n = 4, M = 2 run exits 6 with a nonzero offending sum
    payload = {"test_function": {"n": 4, "p": 3, "M": 2, "terms": [
        {"residue": [x, *r], "weight": 1 if x else -1}
        for x in (0, 1) for r in itertools.product((0, 1), repeat=3)]}}
    code, out = _cli(tmp_path, payload, "--command", "cocycle", "--trials", "8", "--seed", "1",
                     "--corrupt-sign")
    assert code == 6
    terms = [t["offending"]["terms"] for t in json.loads(out)["trials"] if "offending" in t]
    assert any(terms)
    assert len(out.encode()) < 24000


def congruence_cell(tmp_path):
    # a cell of first columns of Gamma(4) elements, all e_1 mod 4: its 4^3
    # lifts fall into 4 residue classes, and f is read once per base point
    # and class; the report's sha256 was recorded before the lifts were
    # grouped (160 base points, 10,240 cell points, 5120 numerator terms)
    payload = {"test_function": {"n": 3, "p": 3, "M": 4, "terms": [
        {"residue": [x, a, b], "weight": 1 + (a + 2 * b) % 3 if x == 1 else -1}
        for x in (1, 3) for a in range(4) for b in range(4)]},
        "cone": {"generators": [["1", "4", "0"], ["1", "-4", "16"], ["1", "-4", "-4"]]}}
    code, out = _cli(tmp_path, payload, "--command", "pair", timeout=30)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "400738a38271c0bba002e6d008c270a3677ec61fbc65065ca07dedfbedbe4e30")


def cocycle_tie_path(tmp_path):
    # a deformation vector on a face hyperplane: at seed 9705 the first q
    # drawn, (-1, -27/13, -25/13), lies on one, so two deformed cones of this
    # n = 3, M = 4 run break the tie with the frame, the one path that builds
    # a whole adjugate; the report's sha256 was recorded before deformed cones
    # found adj (s q) by forward substitution
    payload = {"test_function": {"n": 3, "p": 3, "M": 4, "terms": [
        {"residue": [x, a, b], "weight": 1 if x == 1 else -1}
        for x in (1, 3) for a in range(4) for b in range(4)]}}
    code, out = _cli(tmp_path, payload, "--command", "cocycle", "--trials", "4", "--seed", "9705",
                     timeout=30)
    assert code == 0
    assert json.loads(out)["trials"][0]["q"] == ["-1", "-27/13", "-25/13"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1567ad31fda4b4c09ed159ee13ee02aa7b1864acf48be8174969ae814604b876")


SMOKES = {f.__name__: f for f in (padic_string, dense_cell, moments_n3_top_order,
                                  moments_alternating_10k_terms, cocycle_witness_n4,
                                  congruence_cell, cocycle_tie_path)}


@pytest.mark.parametrize("name", sorted(SMOKES))
def test_smoke(tmp_path, name):
    SMOKES[name](tmp_path)


def test_the_cli_import_loads_no_dataclasses_or_typing():
    # every command is one process that pays for its import first: dataclasses,
    # with inspect, ast, dis and tokenize, was over half of importing
    # shintani.cli; -I -S keeps site hooks from loading any of them first
    heavy = ("ast", "dataclasses", "dis", "inspect", "tokenize", "typing")
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import shintani.cli; "
             "print(sorted(set(sys.argv[2:]) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", probe, SRC, *heavy],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
