import sys
import threading

import pytest

from ccodes import (
    CodeSpec,
    brute_weight_enumerator,
    weight_enumerator,
    weight_enumerator_charsum_float,
)
from ccodes._memo import Memo


def test_memo_builds_once_per_key():
    memo, builds = Memo(), []
    for key in "aab":
        assert memo.get(key, lambda: builds.append(key) or key.upper()) == key.upper()
    assert builds == ["a", "b"]
    assert memo.peek() == ("b", "B")


def test_memo_drops_the_old_value_before_the_build():
    memo = Memo()
    memo.get(1, lambda: "one")
    held = []
    assert memo.get(2, lambda: held.append(memo.peek()) or "two") == "two"
    assert held == [None]


def test_memo_is_empty_after_a_build_that_raises():
    memo = Memo()
    memo.get(1, lambda: "one")
    with pytest.raises(ZeroDivisionError):
        memo.get(2, lambda: 1 // 0)
    assert memo.peek() is None
    assert memo.get(1, lambda: "again") == "again"


def test_memo_mark_holds_a_key_that_get_builds():
    memo = Memo()
    memo.get(1, lambda: "one")
    memo.mark(2)
    assert memo.peek() == (2, None)
    assert memo.get(2, lambda: "two") == "two"
    memo.clear()
    assert memo.peek() is None


# Two short coefficient lists outside the closed form's domain, so their
# sweeps swap the fold, domain-check, float and brute memos many times a second.
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
