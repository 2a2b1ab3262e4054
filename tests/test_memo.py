import importlib
import pkgutil
import random
import sys
import threading
import tracemalloc
import weakref

import pytest

import ccodes
from ccodes import (
    CodeSpec,
    _memo,
    brute_weight_enumerator,
    cli,
    enumerator,
    oracle,
    weight_enumerator,
    weight_enumerator_charsum_float,
    weight_enumerator_fold,
)
from ccodes._memo import Memo


def test_memo_builds_once_per_key():
    memo, builds = Memo(), []
    for code, route in (("a", 1), ("a", 1), ("a", 2), ("b", 1), ("b", 1)):
        value = memo.get(code, route, lambda: builds.append((code, route)) or code * route)
        assert value == code * route
    assert builds == [("a", 1), ("a", 2), ("b", 1)]
    assert memo.values("b") == {1: "b"}


def test_memo_drops_the_old_value_before_the_build():
    class Rows:
        pass

    memo, rows = Memo(), Rows()
    freed = weakref.ref(rows)
    memo.get(1, "fold", lambda: rows)
    del rows
    seen = []
    assert memo.get(2, "fold", lambda: seen.append(freed()) or "two") == "two"
    assert seen == [None]


def test_memo_is_empty_after_a_build_that_raises():
    memo = Memo()
    memo.get(1, "fold", lambda: "one")
    with pytest.raises(ZeroDivisionError):
        memo.get(2, "fold", lambda: 1 // 0)
    assert memo.values(2) == {}
    # a failed route stores nothing beside the code's other values
    memo.get(2, "brute", lambda: "cells")
    with pytest.raises(ZeroDivisionError):
        memo.get(2, "fold", lambda: 1 // 0)
    assert memo.values(2) == {"brute": "cells"}
    assert memo.get(1, "fold", lambda: "again") == "again"


def test_memo_mark_holds_a_key_that_get_builds():
    # the dispatcher marks a first call in the code's values; get builds beside it
    memo = Memo()
    memo.get(1, "fold", lambda: "one")
    memo.values(2)["mitm"] = True
    assert memo.values(2) == {"mitm": True}
    assert memo.get(2, "fold", lambda: "two") == "two"
    assert memo.values(2) == {"mitm": True, "fold": "two"}
    assert memo.values(3) == {}
    assert memo.values(2) == {}


def test_sweep_is_the_only_memo():
    # a route that keeps a value adds a slot to _memo.sweep, not a memo of its own
    names = [f"ccodes.{info.name}" for info in pkgutil.iter_modules(ccodes.__path__)]
    assert "ccodes._memo" in names and "ccodes.enumerator" in names
    memos = [(name, attr) for name in ["ccodes"] + names
             for attr, value in vars(importlib.import_module(name)).items()
             if isinstance(value, Memo)]
    assert memos == [("ccodes._memo", "sweep")]


def test_another_code_frees_the_last_codes_values():
    # a fold of 16 random coefficients mod 10^9+7 reaches 2^16 residues, about 7.9 MB;
    # brute force and the float sum on another code drop it before they build
    rng = random.Random(35)
    big = CodeSpec(tuple(rng.randrange(10**9 + 7) for _ in range(16)), 10**9 + 7, 0)
    small = CodeSpec((1, 2, 3, 5), 7, 3)
    tracemalloc.start()
    try:
        weight_enumerator_fold(big)
        held = tracemalloc.get_traced_memory()[0]
        brute_weight_enumerator(small)
        weight_enumerator_charsum_float(small)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held > 5 << 20
    assert after < 1 << 20


def test_one_codes_routes_coexist(monkeypatch, capsys):
    # a --b all sweep of one code keeps its fold, float rows and brute cells together
    built = []
    fold, cells, sums = enumerator.residue_product, oracle._cells, enumerator._float_sums

    def counting_sums(route, spec, width, build, eta, size):
        def counted(ms, phases):
            built.append(route)
            return build(ms, phases)

        return sums(route, spec, width, counted, eta, size)

    monkeypatch.setattr(enumerator, "residue_product",
                        lambda *args: built.append("fold") or fold(*args))
    monkeypatch.setattr(oracle, "_cells", lambda *args: built.append("brute") or cells(*args))
    monkeypatch.setattr(enumerator, "_float_sums", counting_sums)
    assert cli.main(["verify", "--family", "levenshtein", "--k", "10", "--n", "7",
                     "--b", "all", "--methods", "exact,float,brute"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["PASS"] * 7 + ["7/7"]
    assert built == ["fold", "charsum", "brute"]  # 7 * 11 cells: one float block


# Two short coefficient lists outside the closed form's domain, so their
# sweeps swap the code of the one sweep memo many times a second, while
# every route keeps its slot of the code.
SWEEPS = [[CodeSpec(coeffs, n, b) for b in range(n)]
          for coeffs, n in (((1, 2, 3, 5), 7), ((1, 2, 4, 7), 6))]
ROUTES = (weight_enumerator, lambda spec: weight_enumerator_charsum_float(spec)[0],
          brute_weight_enumerator)


def _answers(start: int, rounds: int) -> list:
    return [[route(spec) for spec in SWEEPS[i % 2] for route in ROUTES]
            for i in range(start, start + rounds)]


def test_shared_memos_under_threads():
    rounds = 600
    serial = [_answers(start, rounds) for start in (0, 1)]
    results, errors = {}, []

    def work(t):
        try:
            results[t] = _answers(t % 2, rounds)  # half the threads start at each list
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert results == {t: serial[t % 2] for t in range(4)}
