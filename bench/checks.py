"""Output checks, run outside the timed region.

Every check uses a route other than the one the job times:

* a full residue sweep must give sum_b N_t = C(k, t) for every weight t,
  with binomials built here; one residue per sweep with k <= 16 is also
  compared against the brute-force oracle;
* single enum instances with k <= 20 are compared against brute force, and
  larger VT instances against the Ramanujan closed form;
* the n = 4095 closed form (printed only as PASS by `verify`) is recomputed and
  must satisfy N_t <= C(n, t) and sum_t N_t = vt_size(n, b);
* verify output must list every expected instance as PASS, in order.

`corrupt` damages one output row; the benchmark feeds the result back to
`check` on every run and refuses to report a correct run unless it is caught.
"""

from __future__ import annotations

import csv
import io
import json
import re
from functools import lru_cache

from ccodes.codes import CodeSpec
from ccodes.enumerator import vt_size, vt_weight_enumerator_closed
from ccodes.oracle import brute_weight_enumerator

BRUTE_MAX_K = 20  # single instances up to this length are checked by brute force
SPOT_MAX_K = 16  # one residue of each table sweep up to this length as well

_TERM = re.compile(r"(\d*)(z(?:\^(\d+))?)?")


def binomial_row(n: int) -> list[int]:
    row = [1]
    for t in range(n):
        row.append(row[-1] * (n - t) // (t + 1))
    return row


@lru_cache(maxsize=None)
def _brute(coeffs: tuple[int, ...], mod: int, b: int) -> list[int]:
    return list(brute_weight_enumerator(CodeSpec(coeffs, mod, b)).counts)


@lru_cache(maxsize=None)
def _closed_problems(n: int, b: int) -> tuple[str, ...]:
    counts = vt_weight_enumerator_closed(n, b).counts
    row = binomial_row(n)
    problems = []
    if len(counts) != n + 1 or any(not 0 <= c <= row[t] for t, c in enumerate(counts)):
        problems.append(f"closed form VT({n}, {b}) has a weight count outside [0, C(n, t)]")
    if sum(counts) != vt_size(n, b):
        problems.append(f"closed form VT({n}, {b}) does not sum to vt_size")
    return tuple(problems)


def _check_table(e: dict, text: str) -> tuple[int, list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    maxk = max(k for _, k, _ in e["groups"])
    header = ["family", *e["params"], *(f"N{t}" for t in range(maxk + 1))]
    if not rows or rows[0] != header:
        return 0, ["unexpected table header"]
    body = rows[1:]
    problems: list[str] = []
    it = iter(enumerate(body, 1))
    for prefix, k, mod in e["groups"]:
        coeffs = tuple(range(1, k + 1))  # both table families use coefficients 1..k
        sums = [0] * (k + 1)
        for b in range(mod):
            i, row = next(it, (None, None))
            if row is None:
                return len(body), problems + ["table ends early"]
            want = [e["family"], *map(str, prefix), str(b)]
            if row[: len(want)] != want or len(row) != len(header):
                problems.append(f"row {i}: expected {want}, got {row[: len(want)]}")
                continue
            cells = row[len(want):]
            counts = [int(c) for c in cells[: k + 1]]
            if any(cells[k + 1:]) or min(counts) < 0:
                problems.append(f"row {i}: malformed weight counts")
            sums = [s + c for s, c in zip(sums, counts)]
            if b == mod // 2 and k <= SPOT_MAX_K and counts != _brute(coeffs, mod, b):
                problems.append(f"row {i}: disagrees with brute force")
        if sums != binomial_row(k):
            problems.append(f"{e['family']} {prefix}: sum over residues of N_t is not C({k}, t)")
    if next(it, None) is not None:
        problems.append("table has extra rows")
    return len(body), problems


def _parse_poly(text: str, k: int) -> list[int]:
    counts = [0] * (k + 1)
    for term in text.split(" + "):
        m = _TERM.fullmatch(term)
        if not term or m is None:
            raise ValueError(f"bad term {term!r}")
        t = int(m[3] or 1) if m[2] else 0
        counts[t] += int(m[1]) if m[1] else 1
    return counts


def _check_enum(e: dict, text: str) -> tuple[int, list[str]]:
    k = len(e["coeffs"])
    if e["format"] == "json":
        rec = json.loads(text)
        head = (rec["family"], rec["params"], rec["method"])
        want = (e["family"], e["params"], "exact")
        size = int(rec["size"])
        counts = [int(c) for c in rec["enumerator"]]
    else:
        head, _, poly = text.rstrip("\n").partition(" W(z)=")
        head, _, size_text = head.rpartition(" size=")
        want = " ".join([f"family={e['family']}", *(f"{p}={v}" for p, v in e["params"].items()),
                         "method=exact"])
        size = int(size_text)
        counts = _parse_poly(poly, k)
    if head != want:
        return 1, [f"record header {head!r}, expected {want!r}"]
    if k <= BRUTE_MAX_K:
        ref = _brute(e["coeffs"], e["mod"], e["b"])
    else:  # only VT instances are this long
        ref = list(vt_weight_enumerator_closed(e["mod"] - 1, e["b"]).counts)
    problems = []
    if counts != ref:
        problems.append("enumerator disagrees with the independent reference")
    if size != sum(counts):
        problems.append("size is not the sum of the weight counts")
    return 1, problems


def _check_verify(e: dict, text: str) -> tuple[int, list[str]]:
    lines = text.splitlines()
    body, summary = lines[:-1], lines[-1] if lines else ""
    labels = e["labels"]
    count = len(labels) if labels is not None else e["count"]
    instances = sum(line.startswith(("PASS ", "FAIL ")) for line in body)
    problems = []
    if len(body) != count:
        problems.append(f"{len(body)} instance lines, expected {count}")
    tail = f" methods={e['methods']} dev="
    for i, line in enumerate(body):
        label = labels[i] if labels is not None and i < count else f"i={i} coeffs="
        if not (line.startswith(f"PASS family={e['family']} {label}") and tail in line):
            problems.append(f"line {i + 1}: {line[:80]!r}")
    if summary != f"{count}/{count} instances agree":
        problems.append(f"summary {summary!r}")
    if "closed" in e:
        problems += _closed_problems(*e["closed"])
    return instances, problems


_CHECKERS = {"table": _check_table, "enum": _check_enum, "verify": _check_verify}


def check(job, out: bytes, rc: int) -> tuple[int, list[str]]:
    """Return (instances reported, problems found) for one job's stdout and exit code."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    try:
        instances, found = _CHECKERS[job.kind](job.expect, out.decode("ascii"))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return 0, problems + [f"unparseable output: {exc!r}"]
    return instances, problems + found


def corrupt(out: bytes) -> bytes:
    """Damage one row: turn the first PASS into FAIL, else bump one digit of the first record."""
    if b"PASS" in out:
        return out.replace(b"PASS", b"FAIL", 1)
    lines = out.split(b"\n")
    row = 1 if len(lines) > 2 else 0  # a table's first data row, or the enum record
    line = lines[row]
    i = max(line.rfind(bytes([d])) for d in b"0123456789")
    lines[row] = line[:i] + str((line[i] - 47) % 10).encode() + line[i + 1:]
    return b"\n".join(lines)
