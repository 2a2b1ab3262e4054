import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from ccodes import (CapExceeded, InvariantViolation, __version__, cli, enumerator, make_vt,
                    polyring, vt_q_size, vt_size, weight_enumerator, weight_enumerator_fold)
from ccodes.cli import main, parse_range
from ccodes.cli import UsageError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version(capsys):
    code, out, _ = run(capsys, "version")
    assert code == 0
    assert out.strip() == f"ccodes {__version__}"


def test_enum_vt_plain(capsys):
    code, out, _ = run(capsys, "enum", "--family", "vt", "--n", "4", "--b", "0")
    assert code == 0
    assert out.strip() == "family=vt n=4 b=0 method=exact size=4 W(z)=1 + 2z^2 + z^4"


def test_enum_vt_json_roundtrip(capsys):
    code, out, _ = run(capsys, "enum", "--family", "vt", "--n", "4", "--b", "0",
                       "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["size"] == 4
    assert rec["enumerator"] == [1, 0, 2, 0, 1]
    assert rec["params"] == {"n": 4, "b": 0}
    # recomputing the size from the enumerator matches the size field
    assert sum(rec["enumerator"]) == rec["size"]


def test_enum_json_big_integers_are_strings(capsys):
    code, out, _ = run(capsys, "enum", "--family", "vt", "--n", "64", "--b", "0",
                       "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert isinstance(rec["size"], str)
    assert int(rec["size"]) == vt_size(64, 0)
    total = sum(int(c) for c in rec["enumerator"])
    assert total == int(rec["size"])
    # the middle weight classes exceed 2^53 and must arrive as strings
    assert any(isinstance(c, str) for c in rec["enumerator"])
    assert any(isinstance(c, int) for c in rec["enumerator"])


def test_enum_blcc(capsys):
    code, out, _ = run(capsys, "enum", "--family", "blcc", "--coeffs", "1,2",
                       "--mod", "3", "--b", "0", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["size"] == 2
    assert rec["enumerator"] == [1, 0, 1]


def test_enum_svt_parity_filtered(capsys):
    code, out, _ = run(capsys, "enum", "--family", "svt", "--k", "4", "--n", "5",
                       "--b", "1", "--r", "1", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["size"] == 2
    assert rec["enumerator"] == [0, 1, 0, 1, 0]


def test_enum_vt_qary(capsys):
    code, out, _ = run(capsys, "enum", "--family", "vt", "--n", "2", "--b", "0",
                       "--q", "3", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["size"] == 3
    assert "enumerator" not in rec


def test_enum_csv(capsys):
    code, out, _ = run(capsys, "enum", "--family", "vt", "--n", "4", "--b", "0",
                       "--format", "csv")
    assert code == 0
    # the deviation column stays in the layout, always empty
    header = "family,params,method,size,deviation,enumerator\n"
    assert out == header + "vt,n=4 b=0,exact,4,,1 0 2 0 1\n"
    code, out, _ = run(capsys, "enum", "--family", "vt", "--n", "2", "--b", "0",
                       "--q", "3", "--format", "csv")
    assert code == 0
    assert out == header + "vt,n=2 b=0 q=3,closed,3,,\n"


def test_enum_missing_flag_exits_2(capsys):
    code, _, err = run(capsys, "enum", "--family", "vt")
    assert code == 2
    assert "requires --n" in err


def test_bad_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_bad_range_exits_2(capsys):
    code, _, err = run(capsys, "table", "--family", "vt", "--quantity", "size",
                       "--n", "1..x", "--b", "all")
    assert code == 2
    assert "bad range" in err


def test_residue_out_of_range_exits_2(capsys):
    code, _, err = run(capsys, "enum", "--family", "vt", "--n", "4", "--b", "9")
    assert code == 2
    assert "residue" in err


def test_table_vt_partition(capsys):
    code, out, _ = run(capsys, "table", "--family", "vt", "--quantity", "size",
                       "--n", "1..6", "--b", "all")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "family,n,b,size"
    sums: dict[int, int] = {}
    for line in lines[1:]:
        _, n, b, s = line.split(",")
        sums[int(n)] = sums.get(int(n), 0) + int(s)
    assert sums == {n: 2**n for n in range(1, 7)}


def test_table_empty_range_header_only(capsys):
    code, out, _ = run(capsys, "table", "--family", "vt", "--quantity", "size",
                       "--n", "6..4", "--b", "all")
    assert code == 0
    assert out.strip() == "family,n,b,size"


@pytest.mark.parametrize("grid, columns", [
    (("--family", "vt", "--n", "5..3", "--b", "0"), "n,b"),
    (("--family", "levenshtein", "--k", "4..3", "--n", "k+1", "--b", "all"), "k,n,b"),
    (("--family", "helberg", "--k", "3..2", "--s", "2", "--b", "0"), "k,s,b"),
    (("--family", "blcc", "--coeffs", "1,2", "--mod", "5..4", "--b", "all"), "coeffs,mod,b"),
])
@pytest.mark.parametrize("quantity", ["size", "enumerator", "nt"])
def test_table_header_of_an_empty_grid_names_the_grid_flags(capsys, grid, columns, quantity):
    # the columns come from the family, not from a first row; nt has no weights to name
    code, out, err = run(capsys, "table", *grid, "--quantity", quantity)
    value = {"size": ",size", "enumerator": ",enumerator", "nt": ""}[quantity]
    assert (code, out, err) == (0, f"family,{columns}{value}\n", "")


_HUGE = "1..100000000000"


@pytest.mark.parametrize("argv, status, out, err, built", [
    (("enum", "--family", "vt", "--n", _HUGE, "--b", "3..2"), 2, "",
     "ccodes: enum needs a grid of exactly one instance; use table or verify\n", 1),
    (("table", "--family", "vt", "--n", _HUGE, "--b", "3..2"), 0, "family,n,b,size\n", "", 1),
    (("verify", "--family", "vt", "--n", _HUGE, "--b", "3..2"), 0, "0/0 instances agree\n", "", 1),
    (("table", "--family", "levenshtein", "--k", _HUGE, "--n", "3..2", "--b", "0"), 0,
     "family,k,n,b,size\n", "", 0),
    (("table", "--family", "vt", "--n", "0", "--b", "3..2"), 2,
     "", "ccodes: VT length must be >= 1\n", 1),
], ids=["enum-vt", "table-vt", "verify-vt", "table-levenshtein", "table-vt-n0"])
def test_an_empty_range_ends_the_grid_walk(capsys, monkeypatch, argv, status, out, err, built):
    # an empty --b stops the walk after the first code, whose own error still comes
    # first; an empty absolute grid range stops it before any code is built. Each grid
    # flag is read once, so a walk that goes on fails here instead of running for ever.
    family = cli._FAMILIES[argv[argv.index("--family") + 1]]
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn)
            if len(calls) > 2:  # not an assert, which -O strips
                pytest.fail("the walk went on past its first code")
            return fn(*args)
        return wrapper

    monkeypatch.setitem(cli._FAMILIES, argv[argv.index("--family") + 1], family._replace(
        make=counted(family.make), grid=tuple((flag, counted(read)) for flag, read in family.grid)))
    assert run(capsys, *argv) == (status, out, err)
    assert calls.count(family.make) == built


def test_table_svt_empty_grid_header(capsys):
    code, out, _ = run(capsys, "table", "--family", "svt", "--k", "3..2", "--n", "k+1",
                       "--b", "all", "--r", "both")
    assert (code, out) == (0, "family,k,n,b,r,size\n")


@pytest.mark.parametrize("argv", [
    ("table", "--family", "blcc", "--coeffs", "1,2", "--mod", "0", "--b", "all"),
    ("table", "--family", "blcc", "--coeffs", "1,2", "--mod", "0", "--b", "0"),
    ("verify", "--family", "blcc", "--coeffs", "1,2", "--mod", "-4", "--b", "all"),
    ("table", "--family", "levenshtein", "--k", "3", "--n", "0", "--b", "all"),
    ("verify", "--family", "levenshtein", "--k", "3", "--n", "-1", "--b", "all"),
    ("table", "--family", "svt", "--k", "3", "--n", "0", "--b", "all", "--r", "0"),
    ("verify", "--family", "svt", "--k", "3", "--n", "-2", "--b", "all", "--r", "both"),
    ("table", "--family", "vt", "--n", "-1", "--b", "all"),
    ("enum", "--family", "blcc", "--coeffs", "1,2", "--mod", "0", "--b", "all"),
])
def test_modulus_below_one_is_a_usage_error(capsys, argv):
    # --b all over such a modulus was an empty grid that printed a header, exit 0.
    # The code is built before --b is read, so VT(n), of modulus n+1, names its length
    code, out, err = run(capsys, *argv)
    modulus = int(argv[argv.index("--mod" if "--mod" in argv else "--n") + 1])
    assert (code, out) == (2, "")
    assert err == ("ccodes: VT length must be >= 1\n" if argv[2] == "vt"
                   else f"ccodes: modulus {modulus} must be >= 1\n")


def test_table_helberg_sizes(capsys):
    code, out, _ = run(capsys, "table", "--family", "helberg", "--quantity", "size",
                       "--k", "1..8", "--s", "2", "--b", "0")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    sizes = [int(r.split(",")[-1]) for r in rows]
    assert len(sizes) == 8
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_table_nt_columns(capsys):
    code, out, _ = run(capsys, "table", "--family", "vt", "--quantity", "nt",
                       "--n", "1..4", "--b", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "family,n,b,N0,N1,N2,N3,N4"
    assert lines[-1] == "vt,4,0,1,0,2,0,1"


def test_verify_vt_all_methods(capsys):
    code, out, _ = run(capsys, "verify", "--family", "vt", "--n", "1..8", "--b", "all",
                       "--methods", "exact,closed,float,brute")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "44/44 instances agree"


def test_verify_quiet_suppresses_summary(capsys):
    code, out, _ = run(capsys, "verify", "--family", "vt", "--n", "2", "--b", "all",
                       "--quiet")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert all(line.startswith("PASS") for line in lines)


def test_verify_random_deterministic(capsys):
    code, out1, _ = run(capsys, "verify", "--family", "blcc", "--random", "15",
                        "--seed", "7")
    assert code == 0
    code, out2, _ = run(capsys, "verify", "--family", "blcc", "--random", "15",
                        "--seed", "7")
    assert code == 0
    assert out1 == out2
    code, out3, _ = run(capsys, "verify", "--family", "blcc", "--random", "15",
                        "--seed", "8")
    assert code == 0
    assert out3 != out1


def test_verify_negative_random_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--family", "blcc", "--random", "-3")
    assert (code, out, err) == (2, "", "ccodes: --random must be >= 0\n")
    code, out, err = run(capsys, "verify", "--family", "blcc", "--random", "0")
    assert (code, out, err) == (0, "0/0 instances agree\n", "")


def test_verify_svt_relative_n(capsys):
    code, out, _ = run(capsys, "verify", "--family", "svt", "--k", "1..6",
                       "--n", "k+1", "--b", "all", "--r", "both", "--quiet")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.strip().split("\n"))
    # the closed form covers every base code with n = k+1
    code, out, _ = run(capsys, "verify", "--family", "svt", "--k", "1..6",
                       "--n", "k+1", "--b", "all", "--r", "both", "--methods", "exact,closed")
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "54/54 instances agree"
    assert all(line.startswith("PASS") and " methods=exact,closed " in line
               for line in lines[:-1])


def test_verify_repeated_method_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--family", "vt", "--n", "3", "--b", "0",
                         "--methods", "exact,exact")
    assert (code, out, err) == (2, "", "ccodes: --methods names exact twice\n")


def test_verify_unknown_method_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--family", "vt", "--n", "2", "--b", "0",
                       "--methods", "exact,magic")
    assert code == 2
    assert "unknown method" in err


@pytest.mark.parametrize("argv, label", [
    (("--family", "levenshtein", "--k", "11", "--n", "4"), "family=levenshtein k=11 n=4"),
    (("--family", "helberg", "--k", "6", "--s", "1"), "family=helberg k=6 s=1"),
    # 1..5 mod 3 in another order, shifted by multiples of 3, two of them negative
    (("--family", "blcc", "--coeffs", "5,-3,7,-11,8", "--mod", "3"),
     "family=blcc coeffs=5,-3,7,-11,8 mod=3"),
])
def test_verify_closed_passes_in_its_domain(capsys, argv, label):
    code, out, _ = run(capsys, "verify", *argv, "--b", "all", "--methods", "exact,closed")
    lines = out.splitlines()
    assert code == 0 and lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} instances agree"
    assert all(line.startswith(f"PASS {label} b=") and line.endswith(
        " methods=exact,closed dev=0.000e+00") for line in lines[:-1])
    # closed is opt-in outside vt: the default methods leave it out, bytes unchanged
    code, out, _ = run(capsys, "verify", *argv, "--b", "all")
    assert code == 0 and "closed" not in out


def test_verify_closed_skips_outside_its_domain(capsys):
    code, out, _ = run(capsys, "verify", "--family", "levenshtein", "--k", "10", "--n", "4",
                       "--b", "1", "--methods", "exact,closed,brute")
    label = "family=levenshtein k=10 n=4 b=1"
    assert (code, out.splitlines()) == (0, [
        f"SKIP {label} method=closed reason=modulus 4 does not divide k+1 = 11",
        f"PASS {label} methods=exact,brute dev=0.000e+00",
        "1/1 instances agree",
    ])
    code, out, _ = run(capsys, "verify", "--family", "blcc", "--coeffs", "1,1", "--mod", "3",
                       "--b", "2", "--methods", "closed")
    label = "family=blcc coeffs=1,1 mod=3 b=2"
    assert (code, out.splitlines()) == (1, [
        f"SKIP {label} method=closed reason=coefficients mod 3 are not 1..2 mod 3",
        f"UNVERIFIED {label} methods=",
        "0/1 instances agree",
    ])


def test_verify_skips_out_of_domain_methods(capsys):
    # float drifts off an integer at n = 50 and brute force is past its cap;
    # exact and closed still agree, so the instance passes
    code, out, _ = run(capsys, "verify", "--family", "vt", "--n", "50", "--b", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("SKIP family=vt n=50 b=0 method=float "
                               "reason=character sum off integer by ")
    assert lines[1:] == [
        "SKIP family=vt n=50 b=0 method=brute reason=2^50 tuples exceeds the 2^24 cap",
        "PASS family=vt n=50 b=0 methods=exact,closed dev=0.000e+00",
        "1/1 instances agree",
    ]


def test_verify_needs_two_methods_that_ran(capsys):
    coeffs = ",".join(str(a) for a in range(1, 32))
    code, out, _ = run(capsys, "verify", "--family", "blcc", "--coeffs", coeffs,
                       "--mod", "97", "--b", "0", "--methods", "exact,brute")
    assert code == 1
    label = f"family=blcc coeffs={coeffs} mod=97 b=0"
    assert out.split("\n") == [
        f"SKIP {label} method=brute reason=2^31 tuples exceeds the 2^24 cap",
        f"UNVERIFIED {label} methods=exact",
        "0/1 instances agree",
        "",
    ]


def test_verify_single_requested_method(capsys):
    code, out, _ = run(capsys, "verify", "--family", "vt", "--n", "50", "--b", "0",
                       "--methods", "closed")
    assert (code, out) == (0, "PASS family=vt n=50 b=0 methods=closed dev=0.000e+00\n"
                              "1/1 instances agree\n")
    code, out, _ = run(capsys, "verify", "--family", "vt", "--n", "50", "--b", "0",
                       "--methods", "float")
    assert code == 1
    assert out.split("\n")[1:] == ["UNVERIFIED family=vt n=50 b=0 methods=",
                                    "0/1 instances agree", ""]


def test_verify_disagreement_among_methods_that_ran_fails(capsys, monkeypatch):
    def wrong_closed(code):
        plan = enumerator.closed_plan(code)

        def wrong(b):
            counts = list(plan(b).counts)
            counts[0] ^= 1
            return enumerator.WeightEnumerator(code.length, counts)

        return wrong

    monkeypatch.setattr(cli, "closed_plan", wrong_closed)
    code, out, _ = run(capsys, "verify", "--family", "vt", "--n", "50", "--b", "0")
    assert code == 1
    lines = out.strip().split("\n")
    assert [line.split()[0] for line in lines[:-1]] == ["SKIP", "SKIP", "FAIL"]
    assert lines[2].startswith("FAIL family=vt n=50 b=0 exact=(1, 0, ")
    assert "; closed=(0, 0, " in lines[2] and "float=" not in lines[2]
    assert lines[-1] == "0/1 instances agree"


def test_parse_range():
    assert list(parse_range("7")) == [7]
    assert list(parse_range("1..4")) == [1, 2, 3, 4]
    assert list(parse_range("4..1")) == []
    with pytest.raises(UsageError):
        parse_range("a..b")


def test_fold_invariant_is_not_a_usage_error(capsys, monkeypatch):
    def broken_check(rows, k, width):
        raise InvariantViolation("broken")

    monkeypatch.setattr(polyring, "_check_mass", broken_check)
    # 4 does not divide k+1 = 5, so the closed form does not answer and enum folds
    instance = ("--family", "levenshtein", "--k", "4", "--n", "4", "--b", "0")
    code, out, err = run(capsys, "enum", *instance)
    assert (code, out) == (3, "")
    assert err == "ccodes: internal error: InvariantViolation: broken\n"
    code, out, _ = run(capsys, "verify", *instance, "--methods", "exact,closed")
    assert code == 1
    assert out.startswith("FAIL family=levenshtein k=4 n=4 b=0 error=broken")


@pytest.mark.parametrize("argv", [
    # flags that were accepted and ignored
    ("table", "--family", "vt", "--n", "4", "--b", "0", "--format", "csv"),
    ("verify", "--family", "vt", "--n", "4", "--b", "0", "--format", "plain"),
    ("enum", "--family", "vt", "--n", "4", "--b", "0", "--quiet"),
    ("table", "--family", "vt", "--n", "4", "--b", "0", "--quiet"),
    # grid flags the family does not take
    ("enum", "--family", "vt", "--n", "4", "--b", "0", "--k", "3"),
    ("enum", "--family", "helberg", "--k", "3", "--s", "2", "--b", "0", "--q", "3"),
    ("table", "--family", "blcc", "--coeffs", "1,2", "--mod", "3", "--b", "0", "--n", "4"),
    ("verify", "--family", "levenshtein", "--k", "3", "--n", "4", "--b", "0", "--s", "2"),
    ("verify", "--family", "blcc", "--random", "3", "--mod", "5"),
    ("verify", "--family", "vt", "--n", "4", "--b", "0", "--seed", "3"),
])
def test_flag_that_would_be_ignored_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("ccodes: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("enum", "--family", "vt", "--n", "4", "--b", "all"),
    ("enum", "--family", "vt", "--n", "5..4", "--b", "0"),
    ("enum", "--family", "svt", "--k", "4", "--n", "5", "--b", "1", "--r", "both"),
    ("enum", "--family", "vt", "--n", "4", "--b", "0", "--q", "0"),
    ("enum", "--family", "helberg", "--k", "0", "--s", "2", "--b", "0"),
    ("table", "--family", "levenshtein", "--k", "0..2", "--n", "k+1", "--b", "0"),
    # a length past a C ssize_t, and one past Python's 4300-digit limit on int parsing
    ("enum", "--family", "vt", "--n", "1" + "0" * 20, "--b", "0"),
    ("enum", "--family", "vt", "--n", "1" + "0" * 20, "--b", "0", "--q", "3"),
    ("verify", "--family", "svt", "--k", "1" * 5000, "--n", "3", "--b", "0", "--r", "0"),
])
def test_bad_grid_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("ccodes: ")


def test_impossible_enumerator_is_not_a_usage_error(capsys, monkeypatch):
    def impossible(spec):
        return enumerator.WeightEnumerator(1, (5, 0))  # raises ValueError: N_0 = 5

    monkeypatch.setattr(cli, "weight_enumerator", impossible)
    code, out, err = run(capsys, "enum", "--family", "vt", "--n", "4", "--b", "0")
    assert (code, out) == (3, "")
    assert err == "ccodes: internal error: ValueError: N_0 = 5 impossible at length 1\n"
    # inside verify it is that instance's FAIL, like any other package error
    monkeypatch.setattr(cli, "fold_plan", lambda code: impossible)
    code, out, err = run(capsys, "verify", "--family", "vt", "--n", "4", "--b", "0",
                         "--methods", "exact,closed")
    assert (code, err) == (1, "")
    assert out.splitlines() == ["FAIL family=vt n=4 b=0 error=N_0 = 5 impossible at length 1",
                                "0/1 instances agree"]


def test_table_svt_rejects_non_size_quantity_before_computing(capsys, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("weight_enumerators ran before the usage check")

    monkeypatch.setattr(cli, "weight_enumerators", must_not_run)  # every table row reads it
    for quantity in ("nt", "enumerator"):
        code, out, err = run(capsys, "table", "--family", "svt", "--quantity", quantity,
                             "--k", "3", "--n", "k+1", "--b", "all", "--r", "both")
        assert (code, out) == (2, "")
        assert "--quantity size only" in err


def test_table_svt_usage_check_precedes_the_fold(capsys, monkeypatch):
    folds = count_folds(monkeypatch)
    monkeypatch.setattr(polyring, "_MAX_BITS", 0)  # every fold is past the cap
    # 3 does not divide k+1 = 4, so the closed form does not answer and the fold is capped
    code, out, err = run(capsys, "table", "--family", "svt", "--quantity", "nt",
                         "--k", "3", "--n", "3", "--b", "all", "--r", "both")
    assert (code, out) == (2, "")  # the usage error wins over the cap's exit 4
    assert "--quantity size only" in err
    assert folds == []


def parsed(parse, argv):
    """vars() of the parsed command line, or the UsageError text."""
    try:
        return vars(parse(list(argv)))
    except UsageError as exc:
        return str(exc)


GRID = ("--family", "vt", "--n", "4", "--b", "0")


@pytest.mark.parametrize("argv", [
    # both spellings, prefixes, repeats, defaults and the switch
    ("version",),
    ("enum", *GRID),
    ("enum", "--family=blcc", "--coeffs=1,2", "--mod=3", "--b=0", "--format=json"),
    ("enum", "--fam", "vt", "--n", "4", "--b", "0", "--fo", "csv", "--q", "3"),
    ("enum", *GRID, "--n", "5", "--b", "1"),  # the last repeat wins
    ("enum", "--family", "blcc", "--coeffs", "-3", "--mod", "5", "--b", "0"),  # a negative number
    ("enum", "--family", "vt", "--n", "4", "--b", "-1"),
    ("table", "--family", "svt", "--k", "1..4", "--n", "k+1", "--b", "all", "--r", "both"),
    ("table", *GRID, "--quant", "nt", "--quantity", "enumerator"),
    ("verify", *GRID, "--quiet", "--methods", "exact,brute", "--quiet"),
    ("verify", "--family", "blcc", "--ra", "5", "--se", "-7"),
    ("verify", *GRID, "--b", "- x"),
    ("verify", *GRID, "--methods", "--x y"),  # a space makes a --token a value
])
def test_parser_reads_what_argparse_reads(argv):
    args = parsed(cli.parse_args, argv)
    assert isinstance(args, dict)
    assert args == parsed(cli.build_parser().parse_args, argv)


CHOOSE_FAMILY = "(choose from 'vt', 'levenshtein', 'helberg', 'svt', 'blcc')"


@pytest.mark.parametrize("argv, message", [
    # one case for each of argparse's wordings
    ((), "the following arguments are required: command (see ccodes --help)"),
    (("frobnicate",), "argument command: invalid choice: 'frobnicate' "
                      "(choose from 'enum', 'table', 'verify', 'version') (see ccodes --help)"),
    (("",), "argument command: invalid choice: '' "
            "(choose from 'enum', 'table', 'verify', 'version') (see ccodes --help)"),
    (("-x", "version"), "argument command: invalid choice: '-x' "
                        "(choose from 'enum', 'table', 'verify', 'version') (see ccodes --help)"),
    (("enum",), "the following arguments are required: --family (see ccodes enum --help)"),
    (("enum", "--family"), "argument --family: expected one argument (see ccodes enum --help)"),
    (("enum", "--family", "xx"),
     f"argument --family: invalid choice: 'xx' {CHOOSE_FAMILY} (see ccodes enum --help)"),
    (("enum", *GRID, "--format", "xml"), "argument --format: invalid choice: 'xml' "
                                         "(choose from 'plain', 'json', 'csv') (see ccodes enum --help)"),
    (("enum", "--family", "svt", "--k", "4", "--n", "5", "--b", "1", "--r", "2"),
     "argument --r: invalid choice: '2' (choose from '0', '1', 'both') (see ccodes enum --help)"),
    (("enum", *GRID, "--q", "x"), "argument --q: invalid int value: 'x' (see ccodes enum --help)"),
    (("verify", *GRID, "--random", "1.5"),
     "argument --random: invalid int value: '1.5' (see ccodes verify --help)"),
    (("enum", "--family", "vt", "--n", "--b", "0"),
     "argument --n: expected one argument (see ccodes enum --help)"),
    (("enum", "--family", "vt", "--n", "4", "--b"),
     "argument --b: expected one argument (see ccodes enum --help)"),
    (("enum", "--f", "vt"),
     "ambiguous option: --f could match --family, --format (see ccodes enum --help)"),
    (("verify", *GRID, "--m", "exact"),
     "ambiguous option: --m could match --mod, --methods (see ccodes verify --help)"),
    (("verify", *GRID, "--m=exact"),
     "ambiguous option: --m=exact could match --mod, --methods (see ccodes verify --help)"),
    (("enum", *GRID, "extra", "--bogus", "-x"),
     "unrecognized arguments: extra --bogus -x (see ccodes --help)"),
    (("version", "--n", "3"), "unrecognized arguments: --n 3 (see ccodes --help)"),
    (("verify", *GRID, "--quiet=1"),
     "argument --quiet: ignored explicit argument '1' (see ccodes verify --help)"),
    (("verify", *GRID, "--qu="),
     "argument --quiet: ignored explicit argument '' (see ccodes verify --help)"),
    # the first bad flag or value in argv order, then a missing --family, then extra tokens
    (("enum", "--family", "xx", "--q", "x"),
     f"argument --family: invalid choice: 'xx' {CHOOSE_FAMILY} (see ccodes enum --help)"),
    (("enum", "--family", "xx", "--fo", "x", "--f"),
     f"argument --family: invalid choice: 'xx' {CHOOSE_FAMILY} (see ccodes enum --help)"),
    (("enum", "--n", "4", "--b", "0", "extra"),
     "the following arguments are required: --family (see ccodes enum --help)"),
    # the -- separator takes no flag's place and is no value
    (("enum", *GRID, "--"), "unrecognized arguments: -- (see ccodes --help)"),
    (("enum", *GRID, "--", "x"), "unrecognized arguments: -- x (see ccodes --help)"),
    (("enum", "--family", "--", "vt"),
     "argument --family: expected one argument (see ccodes enum --help)"),
])
def test_parser_usage_errors(argv, message):
    # The messages are fixed, not read from the running argparse, whose wording
    # and order of errors differ between Python releases; argparse rejects each
    # command line too.
    assert parsed(cli.parse_args, argv) == message
    assert isinstance(parsed(cli.build_parser().parse_args, argv), str)


def test_leading_double_dash_is_no_command(capsys):
    # argparse rejects it on Python 3.10 to 3.12.1 and 3.13.0; 3.12.10's accepts it
    code, out, err = run(capsys, "--", "enum", *GRID)
    assert (code, out) == (2, "")
    assert err == ("ccodes: argument command: invalid choice: '--' (choose from "
                   "'enum', 'table', 'verify', 'version') (see ccodes --help)\n")


def test_flag_values_may_start_with_a_dash(capsys):
    argv = ("enum", "--family", "blcc", "--coeffs", "-3,2", "--mod", "5", "--b", "0")
    # argparse reads -3,2 as an unknown option; the table parser takes it as the value
    assert parsed(cli.build_parser().parse_args, argv) == (
        "argument --coeffs: expected one argument (see ccodes enum --help)")
    assert parsed(cli.parse_args, argv)["coeffs"] == "-3,2"
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, "family=blcc coeffs=-3,2 mod=5 b=0 method=exact size=1 W(z)=1\n", "")
    # a value still cannot be a --flag
    code, _, err = run(capsys, "enum", "--family", "blcc", "--coeffs", "--mod", "5", "--b", "0")
    assert (code, err) == (2, "ccodes: argument --coeffs: expected one argument "
                              "(see ccodes enum --help)\n")


@pytest.mark.parametrize("columns", ["80", "120"])
@pytest.mark.parametrize("command", [None, "enum", "table", "verify", "version"])
def test_help_is_what_argparse_renders(capsys, monkeypatch, columns, command):
    monkeypatch.setenv("COLUMNS", columns)
    parser = cli.build_parser()
    if command is not None:
        [sub] = [a for a in parser._actions if a.dest == "command"]
        parser = sub.choices[command]
    prefix = [] if command is None else [command]
    for flag in ("--help", "-h", "--he"):
        code, out, err = run(capsys, *prefix, flag)
        assert (code, out, err) == (0, parser.format_help(), "")
    # help wins over a usage error later in argv, as argparse reads it
    code, out, _ = run(capsys, *prefix, "--help", "--bogus")
    assert (code, out) == (0, parser.format_help())


ENUM_HELP_80 = (
    'usage: ccodes enum [-h] --family {vt,levenshtein,helberg,svt,blcc} [--n N]\n'
    '                   [--k K] [--s S] [--b B] [--r {0,1,both}] [--coeffs COEFFS]\n'
    '                   [--mod MOD] [--q Q] [--format {plain,json,csv}]\n'
    '\n'
    'options:\n'
    '  -h, --help            show this help message and exit\n'
    '  --family {vt,levenshtein,helberg,svt,blcc}\n'
    '                        vt takes --n --b; levenshtein takes --k --n --b;\n'
    '                        helberg takes --k --s --b; svt takes --k --n --b --r;\n'
    '                        blcc takes --coeffs --mod --b\n'
    '  --n N                 length / modulus parameter; INT, LO..HI, k+1 or 2k\n'
    '  --k K                 block length; INT or LO..HI\n'
    '  --s S                 Helberg deletion parameter\n'
    '  --b B                 congruence residue; INT, LO..HI or all\n'
    '  --r {0,1,both}        weight parity for svt\n'
    '  --coeffs COEFFS       comma-separated coefficients for blcc\n'
    '  --mod MOD             modulus for blcc; INT or LO..HI\n'
    '  --q Q                 alphabet size for the q-ary vt size\n'
    '  --format {plain,json,csv}\n'
)


def test_enum_help_is_pinned(capsys, monkeypatch):
    # a fixed rendering: a lost help string, a reordered flag or a changed
    # converter shows here, where a comparison with build_parser() cannot see it
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, "enum", "--help") == (0, ENUM_HELP_80, "")


def test_docstring_examples_run(capsys):
    examples = [line.split()[1:] for line in cli.__doc__.splitlines()
                if line.startswith("    ccodes ")]
    assert {argv[0] for argv in examples} == {"enum", "table", "verify"}
    assert {argv[argv.index("--family") + 1] for argv in examples} == set(cli._FAMILIES)
    for argv in examples:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out


def count_folds(monkeypatch):
    """Record the modulus of every full fold the enumerator builds."""
    folds = []
    fold = enumerator.residue_product
    monkeypatch.setattr(enumerator, "residue_product",
                        lambda coeffs, n: folds.append(n) or fold(coeffs, n))
    return folds


BLCC18 = ",".join(str(10**8 + 7919 * i * i) for i in range(18))


def test_single_enum_does_not_fold_and_a_sweep_folds_once(capsys, monkeypatch):
    folds = count_folds(monkeypatch)
    for argv in (("--family", "helberg", "--k", "20", "--s", "2", "--b", "7"),
                 ("--family", "blcc", "--coeffs", BLCC18, "--mod", "1000000007", "--b", "0")):
        code, out, _ = run(capsys, "enum", *argv)
        assert code == 0 and "size=" in out
    assert folds == []
    # one residue, as a table row too, meets in the middle where the cost model prefers it;
    # --r both asks it once for both parities' rows, so it is one residue too
    for b in ("7", "7..7"):
        code, out, _ = run(capsys, "table", "--family", "helberg", "--k", "10", "--s", "2",
                           "--b", b)
        assert code == 0 and len(out.splitlines()) == 2
    for r, rows in (("0", 1), ("both", 2)):
        code, out, _ = run(capsys, "table", "--family", "svt", "--k", "12", "--n", "24",
                           "--b", "3", "--r", r)
        assert code == 0 and len(out.splitlines()) == 1 + rows
    assert folds == []
    # a grid of several residues of a code folds it once: --b all, a --b range
    code, out, _ = run(capsys, "table", "--family", "helberg", "--quantity", "nt",
                       "--k", "10", "--s", "2", "--b", "all")
    assert code == 0 and len(out.splitlines()) == 1 + 232
    assert folds == [232]
    code, out, _ = run(capsys, "table", "--family", "helberg", "--k", "11", "--s", "2",
                       "--b", "3..4")
    assert code == 0 and len(out.splitlines()) == 1 + 2
    assert folds == [232, 376]


def test_svt_both_parities_ask_each_residue_once(capsys, monkeypatch):
    asked, sweep = [], cli.weight_enumerators
    monkeypatch.setattr(cli, "weight_enumerators",
                        lambda code, bs: asked.append(list(bs)) or sweep(code, bs))
    code, out, _ = run(capsys, "table", "--family", "svt", "--k", "12", "--n", "24",
                       "--b", "3", "--r", "both")
    assert code == 0 and len(out.splitlines()) == 1 + 2
    assert asked == [[3], [3]]  # the walk that charges the grid, then the rows


def test_svt_both_parities_past_the_fold_cap_meet_in_the_middle(capsys, monkeypatch):
    # 30 residues of a modulus of 60 past the fold's cap meet in the middle at each residue,
    # for either parity alone and for both: asked twice, they would count as the code's 60
    # and exit 4 on the fold's cap
    monkeypatch.setattr(polyring, "_MAX_BITS", 45 * 11**2)
    folds = count_folds(monkeypatch)
    grid = ("--family", "svt", "--k", "10", "--n", "60", "--b", "0..29", "--r")
    rows = {}
    for r in ("0", "1", "both"):
        code, out, err = run(capsys, "table", *grid, r)
        assert (code, err) == (0, "")
        rows[r] = out.splitlines()
    assert len(rows["both"]) == 1 + 60 and folds == []
    assert rows["both"][1:] == [row for pair in zip(rows["0"][1:], rows["1"][1:]) for row in pair]


def test_cap_exits_4_outside_verify(capsys, monkeypatch):
    halves = []
    fold = polyring._fold
    monkeypatch.setattr(polyring, "_fold", lambda a, *rest: halves.append(len(a)) or fold(a, *rest))
    monkeypatch.setattr(polyring, "_MAX_BITS", 100 * 11**2)
    # Helberg(10, 2): modulus 232, rows of 11^2 bits; the halves reach at most 27 and 32
    # residues
    code, out, err = run(capsys, "table", "--family", "helberg", "--quantity", "size",
                         "--k", "10", "--s", "2", "--b", "all")
    assert (code, out) == (4, "")
    assert err == f"ccodes: limit: up to {232 * 11**2} packed bits exceeds the cap of 12100\n"
    assert halves == []  # an all-residue table reads the fold, capped before any folding
    # --b 0..231 names the same 232 residues: the same bytes, where each met in the middle
    assert run(capsys, "table", "--family", "helberg", "--quantity", "size",
               "--k", "10", "--s", "2", "--b", "0..231") == (code, out, err)
    assert halves == []
    # a two-residue sweep past the fold's cap meets in the middle at each residue
    code, out, _ = run(capsys, "table", "--family", "helberg", "--quantity", "size",
                       "--k", "10", "--s", "2", "--b", "0..1")
    assert code == 0 and out.splitlines()[1:] == ["helberg,10,2,0,4", "helberg,10,2,1,4"]
    assert halves == [5, 5, 5, 5]
    code, out, err = run(capsys, "enum", "--family", "helberg", "--k", "20", "--s", "2",
                         "--b", "0")
    assert (code, out) == (4, "")
    assert err.startswith("ccodes: limit: up to ") and err.count("\n") == 1


def test_vt_past_the_bit_cap_exits_4(capsys):
    # VT(800)'s coefficients shifted by one, 2..801 mod 801, lie outside the closed
    # form's domain: 801 rows of 801^2 bits, for the fold and for either half alike
    coeffs = ",".join(str(a) for a in range(2, 802))
    code, out, err = run(capsys, "enum", "--family", "blcc", "--coeffs", coeffs,
                         "--mod", "801", "--b", "0")
    assert (code, out) == (4, "")
    assert err == f"ccodes: limit: up to {801**3} packed bits exceeds the cap of 469762048\n"


def test_vt_past_the_fold_caps_answers_from_the_closed_form(capsys):
    # VT(800) exited 4 on the fold's bit cap before the closed form answered enum
    code, out, err = run(capsys, "enum", "--family", "vt", "--n", "800", "--b", "0",
                         "--format", "json")
    assert (code, err) == (0, "")
    rec = json.loads(out)
    assert int(rec["size"]) == vt_size(800, 0)
    assert [int(c) for c in rec["enumerator"]] == list(
        enumerator.vt_weight_enumerator_closed(800, 0).counts)


def test_vt_past_the_float_work_bound_is_unverified(capsys):
    # VT(3000): the closed form alone answers; the float sum would take about half an hour
    code, out, _ = run(capsys, "verify", "--family", "vt", "--n", "3000", "--b", "0")
    label = "family=vt n=3000 b=0"
    assert (code, out.splitlines()) == (1, [
        f"SKIP {label} method=exact reason=up to {3001 * 3001**2} packed bits exceeds the cap "
        "of 469762048",
        f"SKIP {label} method=float reason={3001 * 3000 * 3001} float cells exceeds the cap "
        "of 33554432",
        f"SKIP {label} method=brute reason=2^3000 tuples exceeds the 2^24 cap",
        f"UNVERIFIED {label} methods=closed",
        "0/1 instances agree",
    ])


@pytest.mark.parametrize("argv", [
    # moduli 2..13, rows of 12^2 bits; only the last is over the cap, and 13 does not
    # divide k+1 = 12, so the closed form does not answer it
    ("--family", "levenshtein", "--k", "11", "--n", "2..13"),
    ("--family", "svt", "--k", "11", "--n", "3..13", "--r", "both"),
])
def test_table_checks_every_modulus_before_folding(capsys, monkeypatch, argv):
    folds = count_folds(monkeypatch)
    monkeypatch.setattr(polyring, "_MAX_BITS", 12 * 12**2)
    code, out, err = run(capsys, "table", *argv, "--b", "all")
    assert (code, out) == (4, "")
    assert err == f"ccodes: limit: up to {13 * 12**2} packed bits exceeds the cap of 1728\n"
    assert folds == []


def test_vt_table_reads_one_closed_form_per_gcd_class(capsys, monkeypatch):
    folds = count_folds(monkeypatch)
    halves = []
    fold = polyring._fold
    monkeypatch.setattr(polyring, "_fold", lambda a, *rest: halves.append(len(a)) or fold(a, *rest))
    calls = []
    form = enumerator._closed_form
    monkeypatch.setattr(enumerator, "_closed_form",
                        lambda k, n, g: calls.append((n, g)) or form(k, n, g))
    code, out, _ = run(capsys, "table", "--family", "vt", "--quantity", "nt", "--n", "1..12",
                       "--b", "all")
    assert (code, folds, halves) == (0, [], [])
    # one evaluation per class gcd(b, n + 1), in the order the residues meet them:
    # tau(2) + ... + tau(13) = 36 of them
    want = []
    for q in range(2, 14):
        want += [(q, g) for g in dict.fromkeys(math.gcd(b, q) for b in range(q))]
    assert calls == want and len(calls) == 36
    rows = out.splitlines()[1:]
    assert len(rows) == sum(range(2, 14))
    for row in rows:  # the per-residue fold gives every row of the class sweep
        _, n, b, *cells = row.split(",")
        assert [int(c) for c in cells if c] == list(weight_enumerator_fold(
            make_vt(int(n), int(b))).counts)


def test_vt_table_past_the_fold_caps_answers(capsys):
    # VT(776) is the largest VT the fold's bit cap lets through
    code, out, err = run(capsys, "table", "--family", "vt", "--quantity", "size", "--n", "777",
                         "--b", "all")
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert rows[0] == "family,n,b,size" and len(rows) == 1 + 778
    assert rows[1:] == [f"vt,777,{b},{vt_size(777, b)}" for b in range(778)]


def test_closed_form_cap_charges_every_kept_gcd_class(capsys, monkeypatch):
    # a cap between one and two rows of VT(20), 22 entries of 20 + 1 + 5 bits: the class
    # of b = 0 is built, and b = 1's, a second class, is refused however residues are asked
    monkeypatch.setattr(enumerator, "_MAX_CLOSED_BITS", 2 * 22 * 26 - 1)
    limit = "up to 1144 closed-form bits exceeds the cap of 1143"
    sizes, plan = [], enumerator.closed_plan(make_vt(20, 0))
    with pytest.raises(CapExceeded, match=f"^{limit}$"):
        for b in range(21):
            sizes.append(plan(b).size())
    assert sizes == [vt_size(20, 0)]
    code, out, err = run(capsys, "verify", "--family", "vt", "--n", "20", "--b", "0..1",
                         "--methods", "exact,closed")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "PASS family=vt n=20 b=0 methods=exact,closed dev=0.000e+00",
        f"SKIP family=vt n=20 b=1 method=closed reason={limit}",
        "UNVERIFIED family=vt n=20 b=1 methods=exact",
        "1/2 instances agree",
    ]
    assert run(capsys, "table", "--family", "vt", "--n", "20", "--b", "0..1") == (
        4, "", f"ccodes: limit: {limit}\n")


def test_svt_float_overflow_skips_inside_verify(capsys):
    # 2^1099 passes the largest float; the exact fold of 1100 coefficients mod 5 answers
    code, out, _ = run(capsys, "verify", "--family", "svt", "--k", "1100", "--n", "5",
                       "--b", "0", "--r", "0")
    label = "family=svt k=1100 n=5 b=0 r=0"
    assert (code, out.splitlines()) == (1, [
        f"SKIP {label} method=float reason=scale 2^1099 / 5 overflows a float",
        f"SKIP {label} method=brute reason=2^1100 tuples exceeds the 2^24 cap",
        f"UNVERIFIED {label} methods=exact",
        "0/1 instances agree",
    ])


def test_charsum_float_overflow_skips_inside_verify(capsys):
    # C(1100, 550) passes the largest float: the character sum's coefficients turn to inf
    code, out, _ = run(capsys, "verify", "--family", "levenshtein", "--k", "1100", "--n", "5",
                       "--b", "0")
    label = "family=levenshtein k=1100 n=5 b=0"
    assert (code, out.splitlines()) == (1, [
        f"SKIP {label} method=float reason=character sum of 1100 coefficients overflows a float",
        f"SKIP {label} method=brute reason=2^1100 tuples exceeds the 2^24 cap",
        f"UNVERIFIED {label} methods=exact",
        "0/1 instances agree",
    ])


@pytest.mark.parametrize("grid, labels, route", [
    (("--family", "levenshtein", "--k", "60", "--n", "2..7", "--b", "0"),
     [f"family=levenshtein k=60 n={n} b=0" for n in range(2, 8)], "character sum"),
    (("--family", "levenshtein", "--k", "60", "--n", "1", "--b", "0"),
     ["family=levenshtein k=60 n=1 b=0"], "character sum"),
    (("--family", "svt", "--k", "64", "--n", "11", "--b", "0", "--r", "0"),
     ["family=svt k=64 n=11 b=0 r=0"], "parity character sum"),
], ids=["levenshtein-n2..7", "levenshtein-n1", "svt"])
def test_float_counts_from_2_to_the_52_skip_inside_verify(capsys, grid, labels, route):
    # from 2^52 on, rounding hides a float sum's error: unchecked, these counts gave false
    # FAILs at n = 2..7, an impossible N_25 at n = 1 and an svt size 16 too large
    code, out, _ = run(capsys, "verify", *grid, "--methods", "exact,float")
    reason = f"{route} reaches 2^52, where a float stops resolving integers"
    want = []
    for label in labels:
        want += [f"SKIP {label} method=float reason={reason}", f"UNVERIFIED {label} methods=exact"]
    assert (code, out.splitlines()) == (1, want + [f"0/{len(labels)} instances agree"])


def test_cap_skips_inside_verify(capsys, monkeypatch):
    monkeypatch.setattr(polyring, "_MAX_BITS", 100 * 11**2)
    code, out, _ = run(capsys, "verify", "--family", "helberg", "--k", "10", "--s", "2",
                       "--b", "3", "--methods", "exact,mitm,brute")
    assert code == 0
    label = "family=helberg k=10 s=2 b=3"
    assert out.splitlines() == [
        f"SKIP {label} method=exact reason=up to {232 * 11**2} packed bits exceeds the cap "
        "of 12100",
        f"PASS {label} methods=mitm,brute dev=0.000e+00",
        "1/1 instances agree",
    ]


@pytest.mark.parametrize("argv", [
    ("--family", "vt", "--n", "1..9", "--b", "all"),
    ("--family", "levenshtein", "--k", "6", "--n", "2k", "--b", "all"),
    ("--family", "helberg", "--k", "9", "--s", "2", "--b", "all"),
    ("--family", "svt", "--k", "1..6", "--n", "k+1", "--b", "all", "--r", "both"),
    ("--family", "blcc", "--coeffs", "3,-1,4,0,5", "--mod", "1..12", "--b", "all"),
])
def test_verify_mitm_method(capsys, argv):
    code, out, _ = run(capsys, "verify", *argv, "--methods", "exact,mitm,brute")
    lines = out.splitlines()
    assert code == 0 and len(lines) > 2
    assert all(line.startswith("PASS ") and " methods=exact,mitm,brute " in line
               for line in lines[:-1])
    # mitm is opt-in: the default methods leave it out
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0 and "mitm" not in out


def test_verify_float_skips_a_huge_modulus(capsys):
    code, out, _ = run(capsys, "verify", "--family", "blcc", "--coeffs", "3,5,-7",
                       "--mod", "1000000007", "--b", "8")
    assert code == 0
    label = "family=blcc coeffs=3,5,-7 mod=1000000007 b=8"
    assert out.splitlines() == [
        f"SKIP {label} method=float reason=modulus 1000000007 exceeds the float cap of 65536",
        f"PASS {label} methods=exact,brute dev=0.000e+00",
        "1/1 instances agree",
    ]


@pytest.mark.parametrize("grid", [
    ("--family", "vt", "--n", "6", "--b", "1"),
    ("--family", "svt", "--k", "5", "--n", "6", "--b", "1", "--r", "0"),
])
@pytest.mark.parametrize("method", ["exact", "closed", "float", "brute", "mitm"])
def test_every_verify_method_runs_its_routes_current_global(capsys, monkeypatch, grid, method):
    route = {"exact": "fold_plan", "closed": "closed_plan", "float": "charsum_float_plan",
             "brute": "brute_plan", "mitm": "mitm_plan"}[method]
    if method == "float" and grid[1] == "svt":
        route = "svt_float_plan"  # svt's one method that does not split base counts
    calls = []
    original = getattr(cli, route)
    monkeypatch.setattr(cli, route, lambda code: calls.append(code) or original(code))
    code, out, _ = run(capsys, "verify", *grid, "--methods", method)
    assert code == 0 and out.startswith(f"PASS family={grid[1]} ")
    assert len(calls) == 1


@pytest.mark.parametrize("argv, digest", [
    (("--family", "blcc", "--random", "125", "--seed", "92542"),
     "4a4eeaf944062af4512b4f026fb71ec6cf435147185125891dd3cccb14bfb2af"),
    (("--family", "svt", "--k", "1..12", "--n", "2k", "--b", "all", "--r", "both"),
     "dd0c997f55b08860a98e87ac09e3c4c80f3dcb18d9963df5f688972d63c2262c"),
])
def test_verify_stdout_pins_the_float_deviations(capsys, argv, digest):
    # every PASS line prints the float sum's dev, so a float kernel must keep every bit
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str limit")
@pytest.mark.parametrize("n, digits", [(9020, 4300), (9021, 4301)])
def test_sizes_print_on_each_side_of_4300_digits(capsys, n, digits):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default: the 4301-digit size exited 3 under it
    try:
        code, out, err = run(capsys, "enum", "--family", "vt", "--n", str(n), "--b", "0",
                             "--q", "3")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == 4300  # main gives its caller's limit back
        size = out.removesuffix("\n").split(" size=")[1]
        sys.set_int_max_str_digits(0)
        assert (len(size), size) == (digits, str(vt_q_size(n, 0, 3)))
    finally:
        sys.set_int_max_str_digits(saved)


def test_vt_table_prints_a_size_past_4300_digits(capsys):
    code, out, err = run(capsys, "table", "--family", "vt", "--quantity", "size",
                         "--n", "14320", "--b", "0")
    assert (code, err) == (0, "")
    header, row = out.splitlines()
    assert header == "family,n,b,size"
    assert row.startswith("vt,14320,0,") and len(row.split(",")[3]) == 4307


def test_output_cap_sits_between_vt_15086_and_vt_15087(capsys):
    # VT(14299)'s enumerator, the largest output before the 4300-digit limit was
    # lifted, is 4.43e7 digits; the cap admits VT(n, 0)'s enumerator up to n = 15086
    counts = weight_enumerator(make_vt(15086, 0)).counts
    cli._check_digits(map(int.bit_length, (sum(counts), *counts)))
    code, out, err = run(capsys, "enum", "--family", "vt", "--n", "15087", "--b", "0")
    assert (code, out) == (4, "")
    assert err == "ccodes: limit: about 50000153 output digits exceed the cap of 50000000\n"


def test_output_cap_refuses_before_the_first_byte(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_MAX_DIGITS", 100)
    code, out, _ = run(capsys, "table", "--family", "vt", "--quantity", "nt", "--n", "1..14",
                       "--b", "0")
    assert code == 0 and len(out.splitlines()) == 15
    for argv in (("enum", "--family", "vt", "--n", "60", "--b", "0", "--format", "json"),
                 ("enum", "--family", "vt", "--n", "400", "--b", "0", "--q", "3"),
                 ("table", "--family", "vt", "--quantity", "nt", "--n", "1..15", "--b", "0"),
                 ("table", "--family", "vt", "--quantity", "size", "--n", "400", "--b", "all")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, ""), argv  # not even the table's header line
        assert err.startswith("ccodes: limit: about ")
        assert err.endswith(" output digits exceed the cap of 100\n") and err.count("\n") == 1


def test_qary_size_past_the_output_cap_is_refused_before_the_sum(capsys, monkeypatch):
    # under a cap of 100 digits the ternary VT(214) size prints, VT(215)'s 101
    # digits are refused after the sum and VT(216)'s before it
    monkeypatch.setattr(cli, "_MAX_DIGITS", 100)
    argv = ("enum", "--family", "vt", "--b", "0", "--q", "3", "--n")
    assert run(capsys, *argv, "214") == (
        0, f"family=vt n=214 b=0 q=3 method=closed size={vt_q_size(214, 0, 3)}\n", "")
    assert run(capsys, *argv, "215") == (
        4, "", "ccodes: limit: about 101 output digits exceed the cap of 100\n")

    def unreachable(*args):
        raise AssertionError("vt_q_size called")

    monkeypatch.setattr(cli, "vt_q_size", unreachable)
    code, out, err = run(capsys, *argv, "216")
    assert (code, out) == (4, "")
    assert err.startswith("ccodes: limit: about ") and err.count("\n") == 1
    assert err.endswith(" output digits exceed the cap of 100\n")


def test_qary_size_builds_no_coefficients(capsys):
    # the q-ary size reads n and b alone: VT(3e7)'s coefficients, about 1.2 GB as a
    # tuple of ints, are never built before the output cap refuses the size, and
    # the cap reads a bit length, so no number near VT(1e9)'s 200 MB size is built
    for n, digits in ((30000000, 47647481952), (1000000000, 52941702439832)):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "enum", "--family", "vt", "--n", str(n), "--b", "0",
                                 "--q", "3")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (4, "")
        assert err == f"ccodes: limit: about {digits} output digits exceed the cap of 50000000\n"
        assert peak < 20 * 2**20, n


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "vt", "--n", "40", "--b", "all"),
    ("table", "--family", "levenshtein", "--k", "12", "--n", "30", "--b", "all"),
    ("table", "--family", "svt", "--k", "9", "--n", "10", "--b", "all", "--r", "both"),
    ("table", "--family", "helberg", "--k", "12", "--s", "2", "--b", "all"),
    ("verify", "--family", "blcc", "--coeffs", "3,5,7", "--mod", "11", "--b", "all"),
])
def test_b_all_grid_shares_one_coefficient_tuple(argv):
    # VT(5039) --b all held 5040 tuples of 5039 ints, about 1 GB; the grid yields each
    # code once, with its residues as a range, and no spec per residue, in every family
    [(_, code, residues)] = cli._grid(cli.parse_args(argv))
    assert code.modulus > 1 and residues == range(code.modulus)


def test_cli_start_up_imports_no_heavy_stdlib_modules():
    # `ccodes version` and one `enum` in a child, against a bare child: site hooks
    # may preload some modules, so only the ones ccodes itself adds count
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    listing = "print(*sorted(sys.modules))"

    def modules(code, *flags):
        done = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        return set(done.stdout.splitlines()[-1].split())

    # argparse, with gettext and locale behind it, loads only to render --help,
    # and csv, with re and enum behind it, only to write CSV
    heavy = {"argparse", "gettext", "locale", "dataclasses", "inspect", "json", "random", "csv"}
    for argv in (["version"], ["enum", "--family", "vt", "--n", "4", "--b", "0"]):
        run_argv = f"import sys, ccodes.cli; ccodes.cli.main({argv!r}); {listing}"
        bare = modules(f"import sys; {listing}")
        added = modules(run_argv) - bare
        assert "ccodes.cli" in added
        assert not added & heavy, argv
        # with -S the site hooks preload nothing, so typing would show if ccodes imported it
        bare = modules(f"import sys; {listing}", "-S")
        added = modules(run_argv, "-S") - bare
        assert "ccodes.cli" in added
        assert not added & (heavy | {"typing", "re", "enum"}), argv
    # --help does load argparse and enum --format csv loads csv, so the checks above can fail
    added = modules(f"import sys, ccodes.cli; ccodes.cli.main(['--help']); {listing}") - bare
    assert "argparse" in added
    csv_argv = ["enum", "--family", "vt", "--n", "4", "--b", "0", "--format", "csv"]
    added = modules(f"import sys, ccodes.cli; ccodes.cli.main({csv_argv!r}); {listing}") - bare
    assert "csv" in added


def test_verify_svt_runs_each_method_once_per_base_code(capsys, monkeypatch):
    # r = 0 and r = 1 print the same split of one base code: each method plans once per
    # code and runs once per (k, b), whether it answers or raises
    calls = {}  # plan name -> the (code, residue) of each run, or (code, None) for a plan

    def counted(name):
        make = getattr(cli, name)

        def plan(code):
            calls.setdefault(name, []).append((code, None))
            run = make(code)

            def call(b):
                calls[name].append((code, b))
                return run(b)

            return call

        monkeypatch.setattr(cli, name, plan)

    for name in ("fold_plan", "brute_plan", "svt_float_plan", "closed_plan", "mitm_plan"):
        counted(name)
    grid = ("--family", "svt", "--k", "1..3", "--n", "k+1", "--b", "all", "--r", "both")
    for methods, routes in (((), ("fold_plan", "brute_plan", "svt_float_plan")),  # the defaults
                            (("--methods", "closed,mitm"), ("closed_plan", "mitm_plan"))):
        calls.clear()
        code, out, _ = run(capsys, "verify", *grid, *methods)
        assert code == 0
        assert sum(line.startswith("PASS ") for line in out.splitlines()) == 18
        assert sorted(calls) == sorted(routes)
        runs = calls[routes[0]]
        assert len(runs) == len(set(runs)) == 3 + 2 + 3 + 4
        assert [b for _, b in runs].count(None) == 3
        assert all(calls[name] == calls[routes[0]] for name in routes)
    # a method that raises runs once for r = 0 and prints its SKIP or FAIL on both lines
    calls.clear()
    code, out, _ = run(capsys, "verify", "--family", "svt", "--k", "1100", "--n", "5",
                       "--b", "0", "--r", "both", "--methods", "float")
    assert code == 1
    assert len(calls["svt_float_plan"]) == 1
    skips = [line for line in out.splitlines() if line.startswith("SKIP ")]
    assert [line.replace(" r=1 ", " r=0 ") for line in skips] == [skips[0]] * 2

    def broken(code):
        calls.setdefault("broken", []).append(code)
        raise ValueError("broken route")

    monkeypatch.setattr(cli, "fold_plan", broken)
    calls.clear()
    code, out, _ = run(capsys, "verify", "--family", "svt", "--k", "3", "--n", "4",
                       "--b", "1", "--r", "both", "--methods", "exact,brute")
    assert (code, len(calls["broken"])) == (1, 1)
    assert out.splitlines() == [f"FAIL family=svt k=3 n=4 b=1 r={r} error=broken route"
                                for r in (0, 1)] + ["0/2 instances agree"]


class _Sink(io.TextIOBase):
    """A stdout that keeps nothing of what is written to it."""

    def writable(self):
        return True

    def write(self, text):
        return len(text)


def test_verify_streams_its_instances(monkeypatch):
    # verify holds one instance and one outcome at a time: what it holds at its last
    # instance does not grow with the number of instances, where a list of 2000
    # random specs held about 1 MB. A full collection first empties the
    # interpreter's free lists, which a peak would count with what verify holds
    monkeypatch.setattr(sys, "stdout", _Sink())
    fold, calls, held = cli.fold_plan, [0], []

    def fold_reading_memory_last(code):
        calls[0] += 1
        if calls[0] == count:
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
        return fold(code)

    monkeypatch.setattr(cli, "fold_plan", fold_reading_memory_last)
    for count in (200, 2000):
        calls[0] = 0
        tracemalloc.start()
        try:
            assert main(["verify", "--family", "blcc", "--random", str(count),
                         "--methods", "exact", "--quiet"]) == 0
        finally:
            tracemalloc.stop()
    assert held[1] < held[0] + 50_000, held


def test_verify_of_a_helberg_grid_holds_one_length_at_a_time(monkeypatch):
    # 32 Helberg lengths near 3000, each 3000 multipliers of about 2100 bits, 0.56 MB,
    # past every route's cap: two SKIPs and an UNVERIFIED line a length. A cache of 32
    # multiplier tuples peaked at 10 MB; keeping each SKIP's traceback, whose frames
    # refer back to their exception until the cyclic collector runs, at 17 MB with it
    monkeypatch.setattr(sys, "stdout", _Sink())
    tracemalloc.start()
    try:
        assert main(["verify", "--family", "helberg", "--k", "3000..3031", "--s", "2",
                     "--b", "0", "--methods", "exact,brute", "--quiet"]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("argv", [
    ("--family", "vt", "--n", "1..30", "--b", "3"),
    ("--family", "levenshtein", "--k", "0..3", "--n", "k+1", "--b", "0"),
    ("--family", "helberg", "--k", "1..6", "--s", "2", "--b", "3"),
    ("--family", "svt", "--k", "1..4", "--n", "2k", "--b", "2", "--r", "both"),
    ("--family", "blcc", "--coeffs", "1,2", "--mod", "0..5", "--b", "0"),
])
def test_verify_grid_with_a_usage_error_prints_nothing(capsys, argv):
    # verify streams its grid, and ranges expand in ascending order: a residue or
    # length that is bad anywhere in the grid is bad at its first instance
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("ccodes: ") and err.count("\n") == 1


class _BrokenPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def writable(self):
        return True

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ("version",),
    ("enum", "--family", "vt", "--n", "4", "--b", "0"),
    ("table", "--family", "vt", "--n", "1..3", "--b", "all"),
    ("verify", "--family", "vt", "--n", "3", "--b", "0"),
])
def test_broken_pipe_in_process_exits_0_quietly(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _BrokenPipe())
    assert main(list(argv)) == 0
    assert capsys.readouterr().err == ""


# the program as the console script and the benchmark run it
_PROGRAM = "import sys; from ccodes.cli import main; sys.exit(main())"


def _program(argv, code=_PROGRAM, **kwargs):
    """`python -c code argv` in a child under this interpreter's -O, -X dev and -W
    switches; no PYTHON* variable such as PYTHONUNBUFFERED reaches it, so its stdout
    into a pipe is block-buffered and flushed as the process ends."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") or k == "PYTHONHOME"}
    env.update(PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), COLUMNS="80")
    flags = ["-O"] * sys.flags.optimize + ["-X", "dev"] * sys.flags.dev_mode
    flags += [f"-W{option}" for option in sys.warnoptions]
    return subprocess.run([sys.executable, *flags, "-c", code, *argv], env=env, timeout=60,
                          **kwargs)


@pytest.mark.parametrize("argv, status", [
    (("version",), 0),
    *[(("enum", "--family", "vt", "--n", "4", "--b", "0", "--format", fmt), 0)
      for fmt in ("plain", "json", "csv")],
    (("verify", "--family", "vt", "--n", "50", "--b", "0", "--methods", "float"), 1),
    (("enum", "--family", "vt", "--n", "4", "--b", "0", "--format", "xml"), 2),
    (("table", "--family", "helberg", "--k", "28", "--s", "2", "--b", "all"), 4),
    (("--help",), 0),
    (("enum", "--help"), 0),
])
def test_program_exit_matches_main_in_process(capsys, monkeypatch, argv, status):
    # main() ends the process with os._exit; what it prints and returns stays main(argv)'s
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the terminal width
    code, out, err = run(capsys, *argv)
    done = _program(argv, capture_output=True)
    assert code == status
    assert (done.returncode, done.stdout, done.stderr.decode()) == (code, out.encode(), err)


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_closed_form_cap_stops_vt_300000_early_in_a_child():
    # the closed form's row of VT(300000) would hold about 9e10 bits: the cap refuses
    # it before the row is built. The child limits its own address space to 1 GiB, so
    # a missing cap ends in a MemoryError there, not in the machine's memory. Its peak
    # is VmHWM, which starts afresh at exec; ru_maxrss would keep this process's peak.
    code = ("import atexit, pathlib, re, resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "atexit.register(lambda: print(re.search(r'VmHWM:\\s*(\\d+) kB', "
            "pathlib.Path('/proc/self/status').read_text())[1], file=sys.stderr)); "
            + _PROGRAM)
    start = time.perf_counter()
    done = _program(["enum", "--family", "vt", "--n", "300000", "--b", "0"], code,
                    capture_output=True, text=True)
    seconds = time.perf_counter() - start
    limit, peak_kib = done.stderr.splitlines()
    assert (done.returncode, done.stdout) == (4, "")
    assert limit == "ccodes: limit: up to 90006600040 closed-form bits exceeds the cap of 1610612736"
    assert seconds < 10 and int(peak_kib) < 50 * 1024, (seconds, peak_kib)


def test_program_runs_atexit_handlers_and_survives_a_closed_reader():
    code = "import atexit; atexit.register(print, 'handler ran'); " + _PROGRAM
    done = _program(["version"], code, capture_output=True)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, f"ccodes {__version__}\nhandler ran\n".encode(), b"")
    # the output waits in stdout's buffer for the final flush, which finds no reader:
    # exit 0 with nothing on stderr, where Python's own exit reports the error with 120
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _program(["enum", "--family", "vt", "--n", "4", "--b", "0"], stdout=write_end,
                        stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")
