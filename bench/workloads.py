"""Seeded job lists for the three benchmark workloads.

A job is one `ccodes` command line plus what the checker needs to judge its
output. The seed picks residues, coefficients and moduli; the program only
ever sees the generated arguments. Sizes are held near-fixed across seeds so
that run-to-run spread measures the program, not the draw: where the seed
does pick a size (the Levenshtein moduli), it picks antithetic pairs whose
summed cost barely moves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

BLCC_PRIME = 10**9 + 7  # modulus far above 2^k, so enum takes the sparse path


@dataclass(frozen=True)
class Job:
    kind: str  # "table", "enum" or "verify": selects the output checker
    argv: tuple[str, ...]
    expect: dict = field(compare=False)


def _vt_table(lo: int, hi: int) -> Job:
    argv = ("table", "--family", "vt", "--quantity", "nt", "--n", f"{lo}..{hi}", "--b", "all")
    groups = [((n,), n, n + 1) for n in range(lo, hi + 1)]
    return Job("table", argv, {"family": "vt", "params": ("n", "b"), "groups": groups})


def _lev_table(k: int, n: int) -> Job:
    argv = ("table", "--family", "levenshtein", "--quantity", "nt",
            "--k", str(k), "--n", str(n), "--b", "all")
    return Job("table", argv, {"family": "levenshtein", "params": ("k", "n", "b"),
                               "groups": [((k, n), k, n)]})


def table_sweep(rng: random.Random) -> list[Job]:
    # VT chunks of similar cost (a VT n sweep costs about n^4 fold cells), each
    # above every Levenshtein job, so the latency tail falls inside them.
    jobs = [_vt_table(lo, hi) for lo, hi in ((1, 30), (31, 34), (35, 37), (38, 40))]
    # Levenshtein k pairs share one draw u: n = k+1 + u(k-1) for the first and
    # the mirror (1-u) for the second, so the pair's n^2 k^2 cost stays flat.
    for k in range(1, 31, 2):
        u = rng.random()
        for kk, frac in ((k, u), (k + 1, 1.0 - u)):
            jobs.append(_lev_table(kk, kk + 1 + round(frac * (kk - 1))))
    return jobs


def _enum(family: str, params: dict, coeffs: tuple[int, ...], mod: int, b: int,
          fmt: str = "plain") -> Job:
    argv = ["enum", "--family", family]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    argv += ["--b", str(b), "--format", fmt]
    echo = dict(params, b=b)
    return Job("enum", tuple(argv), {"family": family, "params": echo, "coeffs": coeffs,
                                     "mod": mod, "b": b, "format": fmt})


def _helberg(rng: random.Random, k: int, s: int) -> Job:
    # v_i = 1 + v_{i-1} + ... + v_{i-s}; coefficients v_1..v_k, modulus v_{k+1}
    vs: list[int] = []
    for _ in range(k + 1):
        vs.append(1 + sum(vs[-s:]))
    mod = vs[k]
    return _enum("helberg", {"k": k, "s": s}, tuple(vs[:k]), mod, rng.randrange(mod))


def _blcc(rng: random.Random, k: int) -> Job:
    coeffs = tuple(rng.randrange(10**8, 10**9) for _ in range(k))
    # a residue hit by a random subset, so the code is never empty
    b = sum(a for a in coeffs if rng.random() < 0.5) % BLCC_PRIME
    text = ",".join(map(str, coeffs))
    return _enum("blcc", {"coeffs": text, "mod": BLCC_PRIME}, coeffs, BLCC_PRIME, b)


def _vt_enum(rng: random.Random, n: int, fmt: str) -> Job:
    return _enum("vt", {"n": n}, tuple(range(1, n + 1)), n + 1, rng.randrange(n + 1), fmt)


def enum_large(rng: random.Random) -> list[Job]:
    n = 4095
    b = rng.randrange(n + 1)
    closed = Job("verify", ("verify", "--family", "vt", "--n", str(n), "--b", str(b),
                            "--methods", "closed"),
                 {"family": "vt", "methods": "closed", "labels": [f"n={n} b={b}"],
                  "closed": (n, b)})
    # One large instance of each kind, plus two smaller ones of each enum kind
    # so that the per-job latency distribution has a body and a tail.
    return [
        closed,
        _helberg(rng, 20, 2),
        _blcc(rng, 18),
        _vt_enum(rng, 200, "json"),
        _helberg(rng, 16, 2),
        _helberg(rng, 16, 2),
        _blcc(rng, 14),
        _blcc(rng, 14),
        _vt_enum(rng, 100, "plain"),
        _vt_enum(rng, 100, "plain"),
    ]


_DEFAULT_METHODS = {"vt": "exact,closed,float,brute"}


def _verify_grid(family: str, grid: list[tuple[str, list]], labels: list[str],
                 methods: str | None = None) -> Job:
    argv = ["verify", "--family", family]
    for flag, value in grid:
        argv += [flag, value]
    if methods:
        argv += ["--methods", methods]
    used = methods or _DEFAULT_METHODS.get(family, "exact,float,brute")
    return Job("verify", tuple(argv), {"family": family, "methods": used, "labels": labels})


def _vt_labels(ns) -> list[str]:
    return [f"n={n} b={b}" for n in ns for b in range(n + 1)]


def _svt_labels(form: str) -> list[str]:
    out = []
    for k in range(1, 13):
        n = k + 1 if form == "k+1" else 2 * k
        out += [f"k={k} n={n} b={b} r={r}" for b in range(n) for r in (0, 1)]
    return out


def verify_sweep(rng: random.Random) -> list[Job]:
    jobs = [_verify_grid("vt", [("--n", "1..12"), ("--b", "all")], _vt_labels(range(1, 13)))]
    jobs += [_verify_grid("vt", [("--n", str(n)), ("--b", "all")], _vt_labels([n]))
             for n in range(13, 19)]
    jobs += [_verify_grid("svt", [("--k", "1..12"), ("--n", form), ("--b", "all"),
                                  ("--r", "both")], _svt_labels(form))
             for form in ("k+1", "2k")]
    # 1000 random specs in eight jobs of similar size: the latency median falls among them
    for _ in range(8):
        seed = rng.randrange(10**6)
        argv = ("verify", "--family", "blcc", "--random", "125", "--seed", str(seed))
        jobs.append(Job("verify", argv, {"family": "blcc", "methods": "exact,float,brute",
                                         "labels": None, "count": 125}))
    b = rng.randrange(23)
    jobs.append(_verify_grid("vt", [("--n", "22"), ("--b", str(b))], [f"n=22 b={b}"],
                             methods="exact,brute"))
    return jobs


# name -> (job-list builder, seconds one pass took when the benchmark was written,
# with calibrate.py at 0.34 s, the typical speed of 2 vCPUs of a shared x86-64 host)
WORKLOADS = {
    "table_sweep": (table_sweep, 7.8),
    "enum_large": (enum_large, 7.6),
    "verify_sweep": (verify_sweep, 7.1),
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    build = WORKLOADS[workload][0]
    return build(random.Random(f"{workload}:{seed}"))
