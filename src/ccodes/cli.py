"""Command line front end for congruence-code counting.

Subcommands:
    enum     one code instance: enumerator and size
    table    sweep a parameter grid, one row per instance
    verify   cross-check independent computation methods over a grid
    version  print the package version

Examples:
    ccodes enum --family vt --n 4 --b 0 --format json
    ccodes enum --family blcc --coeffs 1,2 --mod 3 --b 0
    ccodes table --family vt --quantity size --n 1..6 --b all
    ccodes table --family helberg --quantity size --k 1..8 --s 2 --b 0
    ccodes verify --family vt --n 1..12 --b all --methods exact,closed,brute
    ccodes verify --family svt --k 1..10 --n k+1 --b all --r both
    ccodes verify --family blcc --random 100 --seed 7

Ranges are written a..b (inclusive); --b all sweeps every residue of the
instance's modulus; for svt and levenshtein grids --n also accepts the
relative forms k+1 and 2k. Exit status: 0 on success, 1 when verification
finds a mismatch, 2 on usage errors. Output carries no timestamps, so
identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import __version__
from .codes import CodeSpec, make_helberg, make_levenshtein, make_svt, make_vt
from .enumerator import (
    svt_sizes,
    svt_sizes_charsum_float,
    vt_q_size,
    vt_weight_enumerator_closed,
    weight_enumerator,
    weight_enumerator_charsum_float,
)
from .errors import CongruenceCodeError
from .oracle import brute_weight_enumerator

_JSON_INT_LIMIT = 1 << 53  # larger magnitudes go to JSON as decimal strings

_FAMILIES = ("vt", "levenshtein", "helberg", "svt", "blcc")


class UsageError(Exception):
    """Bad command line parameters; reported on one line, exit code 2."""


@dataclass
class OutputRecord:
    """One computed result, ready for any output format."""

    family: str
    params: dict[str, int | str]
    method: str
    size: int
    enumerator: list[int] | None = None
    deviation: float | None = None


# ---- formatting ----


def _json_scalar(v: int):
    return v if -_JSON_INT_LIMIT < v < _JSON_INT_LIMIT else str(v)


def _poly_text(coeffs: Sequence[int]) -> str:
    from .polyring import IntPolynomial

    return IntPolynomial(coeffs).pretty()


def _emit_record(rec: OutputRecord, fmt: str) -> str:
    if fmt == "json":
        payload: dict = {"family": rec.family, "params": rec.params, "method": rec.method,
                         "size": _json_scalar(rec.size)}
        if rec.enumerator is not None:
            payload["enumerator"] = [_json_scalar(c) for c in rec.enumerator]
        if rec.deviation is not None:
            payload["deviation"] = rec.deviation
        return json.dumps(payload, separators=(",", ":"))
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["family", "params", "method", "size", "deviation", "enumerator"])
        writer.writerow([
            rec.family,
            " ".join(f"{k}={v}" for k, v in rec.params.items()),
            rec.method,
            rec.size,
            "" if rec.deviation is None else repr(rec.deviation),
            "" if rec.enumerator is None else " ".join(str(c) for c in rec.enumerator),
        ])
        return buf.getvalue().rstrip("\n")
    parts = [f"family={rec.family}"]
    parts += [f"{k}={v}" for k, v in rec.params.items()]
    parts.append(f"method={rec.method}")
    parts.append(f"size={rec.size}")
    if rec.deviation is not None:
        parts.append(f"deviation={rec.deviation:.3e}")
    if rec.enumerator is not None:
        parts.append(f"W(z)={_poly_text(rec.enumerator)}")
    return " ".join(parts)


# ---- range parsing ----


def parse_range(text: str) -> list[int]:
    """'7' -> [7]; '1..6' -> [1, 2, ..., 6]; an empty range is allowed."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            return list(range(int(lo_s), int(hi_s) + 1))
        return [int(text)]
    except ValueError:
        raise UsageError(f"bad range {text!r}; expected INT or LO..HI") from None


def _expand_n(text: str, k: int) -> list[int]:
    if text == "k+1":
        return [k + 1]
    if text == "2k":
        return [2 * k]
    return parse_range(text)


def _expand_b(text: str, modulus: int) -> list[int]:
    if text == "all":
        return list(range(modulus))
    bs = parse_range(text)
    for b in bs:
        if not 0 <= b < modulus:
            raise UsageError(f"residue {b} out of range for modulus {modulus}")
    return bs


def _parse_coeffs(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad coefficient list {text!r}; expected e.g. 1,2,-3") from None


def _require(args: argparse.Namespace, names: Sequence[str]) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--family {args.family} requires --{name}")


# ---- instance grids ----


def _iter_instances(args: argparse.Namespace) -> Iterator[tuple[dict[str, int | str], object]]:
    """Yield (params, spec) in deterministic order; spec is CodeSpec or ParityCodeSpec."""
    family = args.family
    if family == "vt":
        _require(args, ["n", "b"])
        for n in parse_range(args.n):
            for b in _expand_b(args.b, n + 1):
                yield {"n": n, "b": b}, make_vt(n, b)
    elif family == "levenshtein":
        _require(args, ["k", "n", "b"])
        for k in parse_range(args.k):
            for n in _expand_n(args.n, k):
                for b in _expand_b(args.b, n):
                    yield {"k": k, "n": n, "b": b}, make_levenshtein(k, n, b)
    elif family == "helberg":
        _require(args, ["k", "s", "b"])
        for k in parse_range(args.k):
            probe = make_helberg(k, args.s, 0)
            for b in _expand_b(args.b, probe.modulus):
                yield {"k": k, "s": args.s, "b": b}, make_helberg(k, args.s, b)
    elif family == "svt":
        _require(args, ["k", "n", "b", "r"])
        if args.r not in ("0", "1", "both"):
            raise UsageError("--r must be 0, 1 or both")
        parities = (0, 1) if args.r == "both" else (int(args.r),)
        for k in parse_range(args.k):
            for n in _expand_n(args.n, k):
                for b in _expand_b(args.b, n):
                    for r in parities:
                        yield {"k": k, "n": n, "b": b, "r": r}, make_svt(k, n, b, r)
    elif family == "blcc":
        _require(args, ["coeffs", "mod", "b"])
        coeffs = _parse_coeffs(args.coeffs)
        for mod in parse_range(args.mod):
            for b in _expand_b(args.b, mod):
                yield {"coeffs": args.coeffs, "mod": mod, "b": b}, CodeSpec(coeffs, mod, b)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown family {family!r}")


def _random_blcc(count: int, seed: int) -> Iterator[tuple[dict[str, int | str], CodeSpec]]:
    rng = random.Random(seed)
    for i in range(count):
        k = rng.randint(1, 12)
        n = rng.randint(1, 100)
        b = rng.randint(0, n - 1)
        coeffs = tuple(rng.randint(-100, 100) for _ in range(k))
        params: dict[str, int | str] = {
            "i": i,
            "coeffs": ",".join(str(c) for c in coeffs),
            "mod": n,
            "b": b,
        }
        yield params, CodeSpec(coeffs, n, b)


# ---- subcommands ----


def cmd_enum(args: argparse.Namespace) -> int:
    family = args.family
    if family == "svt":
        _require(args, ["k", "n", "b", "r"])
        if args.r not in ("0", "1"):
            raise UsageError("enum --family svt takes --r 0 or 1")
        r = int(args.r)
        spec = make_svt(args.k, args.n, args.b, r)
        base = weight_enumerator(spec.base)
        filtered = [c if t % 2 == r else 0 for t, c in enumerate(base.counts)]
        rec = OutputRecord(
            family, {"k": args.k, "n": args.n, "b": args.b, "r": r},
            "exact", sum(filtered), filtered,
        )
    elif family == "vt":
        _require(args, ["n", "b"])
        if args.q is not None and args.q != 2:
            rec = OutputRecord(
                family, {"n": args.n, "b": args.b, "q": args.q},
                "closed", vt_q_size(args.n, args.b, args.q),
            )
        else:
            w = weight_enumerator(make_vt(args.n, args.b))
            rec = OutputRecord(family, {"n": args.n, "b": args.b},
                               "exact", w.size(), list(w.counts))
    elif family == "levenshtein":
        _require(args, ["k", "n", "b"])
        w = weight_enumerator(make_levenshtein(args.k, args.n, args.b))
        rec = OutputRecord(family, {"k": args.k, "n": args.n, "b": args.b},
                           "exact", w.size(), list(w.counts))
    elif family == "helberg":
        _require(args, ["k", "s", "b"])
        w = weight_enumerator(make_helberg(args.k, args.s, args.b))
        rec = OutputRecord(family, {"k": args.k, "s": args.s, "b": args.b},
                           "exact", w.size(), list(w.counts))
    else:  # blcc
        _require(args, ["coeffs", "mod", "b"])
        spec = CodeSpec(_parse_coeffs(args.coeffs), args.mod, args.b)
        w = weight_enumerator(spec)
        rec = OutputRecord(family, {"coeffs": args.coeffs, "mod": args.mod, "b": args.b},
                           "exact", w.size(), list(w.counts))
    print(_emit_record(rec, args.format))
    return 0


_NT_QUANTITY = "nt"


def cmd_table(args: argparse.Namespace) -> int:
    if args.family == "svt" and args.quantity != "size":
        raise UsageError("svt tables support --quantity size only")
    instances = list(_iter_instances(args))
    param_keys: list[str] = []
    for params, _ in instances:
        for key in params:
            if key not in param_keys:
                param_keys.append(key)
    rows: list[tuple[dict, list]] = []
    max_len = 0
    for params, spec in instances:
        if args.family == "svt":
            even, odd = svt_sizes(spec)
            rows.append((params, [even if params["r"] == 0 else odd]))
            continue
        w = weight_enumerator(spec)
        max_len = max(max_len, w.k)
        if args.quantity == "size":
            rows.append((params, [w.size()]))
        elif args.quantity == "enumerator":
            rows.append((params, [" ".join(str(c) for c in w.counts)]))
        else:  # nt: one column per weight
            rows.append((params, list(w.counts)))
    if args.quantity == "size":
        value_header = ["size"]
    elif args.quantity == "enumerator":
        value_header = ["enumerator"]
    else:
        value_header = [f"N{t}" for t in range(max_len + 1)]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["family"] + param_keys + value_header)
    for params, values in rows:
        if args.quantity == _NT_QUANTITY:
            values = values + [""] * (len(value_header) - len(values))
        writer.writerow([args.family] + [params.get(k, "") for k in param_keys] + values)
    return 0


def _methods_for(family: str, requested: str | None) -> list[str]:
    if requested is None:
        return ["exact", "closed", "float", "brute"] if family == "vt" else [
            "exact", "float", "brute"]
    methods = [m.strip() for m in requested.split(",") if m.strip()]
    valid = {"exact", "closed", "float", "brute"}
    for m in methods:
        if m not in valid:
            raise UsageError(f"unknown method {m!r}")
        if m == "closed" and family != "vt":
            raise UsageError("method 'closed' applies to the vt family only")
    if not methods:
        raise UsageError("--methods must name at least one method")
    return methods


def _verify_one(family: str, params: dict, spec, methods: list[str]):
    """Return (results-by-method, max deviation); results compare tuple-equal."""
    results: dict[str, tuple] = {}
    dev = 0.0
    if family == "svt":
        for m in methods:
            if m == "exact":
                results[m] = svt_sizes(spec)
            elif m == "float":
                even, odd, d = svt_sizes_charsum_float(spec)
                results[m] = (even, odd)
                dev = max(dev, d)
            elif m == "brute":
                w = brute_weight_enumerator(spec.base)
                even = sum(c for t, c in enumerate(w.counts) if t % 2 == 0)
                results[m] = (even, w.size() - even)
            else:
                raise UsageError("method 'closed' applies to the vt family only")
        return results, dev
    for m in methods:
        if m == "exact":
            results[m] = weight_enumerator(spec).counts
        elif m == "closed":
            results[m] = vt_weight_enumerator_closed(int(params["n"]), int(params["b"])).counts
        elif m == "float":
            w, d = weight_enumerator_charsum_float(spec)
            results[m] = w.counts
            dev = max(dev, d)
        else:
            results[m] = brute_weight_enumerator(spec).counts
    return results, dev


def cmd_verify(args: argparse.Namespace) -> int:
    methods = _methods_for(args.family, args.methods)
    if args.random is not None:
        if args.family != "blcc":
            raise UsageError("--random applies to --family blcc only")
        instances = list(_random_blcc(args.random, args.seed))
    else:
        instances = list(_iter_instances(args))
    failures = 0
    for params, spec in instances:
        label = " ".join(f"{k}={v}" for k, v in params.items())
        try:
            results, dev = _verify_one(args.family, params, spec, methods)
        except CongruenceCodeError as exc:
            failures += 1
            print(f"FAIL family={args.family} {label} error={exc}")
            continue
        reference = results[methods[0]]
        bad = [m for m in methods[1:] if results[m] != reference]
        if bad:
            failures += 1
            detail = "; ".join(f"{m}={results[m]}" for m in methods)
            print(f"FAIL family={args.family} {label} {detail}")
        else:
            print(f"PASS family={args.family} {label} methods={','.join(methods)} dev={dev:.3e}")
    if not args.quiet:
        print(f"{len(instances) - failures}/{len(instances)} instances agree")
    return 1 if failures else 0


def cmd_version(args: argparse.Namespace) -> int:
    print(f"ccodes {__version__}")
    return 0


# ---- parser ----


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", help="length / modulus parameter; INT, LO..HI, k+1 or 2k")
    p.add_argument("--k", help="block length; INT or LO..HI")
    p.add_argument("--s", type=int, help="Helberg deletion parameter")
    p.add_argument("--b", help="congruence residue; INT, LO..HI or all")
    p.add_argument("--r", help="weight parity for svt: 0, 1 or both")
    p.add_argument("--coeffs", help="comma-separated coefficients for blcc")
    p.add_argument("--mod", help="modulus for blcc; INT or LO..HI")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccodes",
        description="Exact weight enumerators and sizes of binary linear congruence codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enum", help="one instance: enumerator and size")
    p_enum.add_argument("--family", required=True, choices=_FAMILIES)
    p_enum.add_argument("--n", type=int)
    p_enum.add_argument("--k", type=int)
    p_enum.add_argument("--s", type=int)
    p_enum.add_argument("--b", type=int)
    p_enum.add_argument("--r", help="weight parity for svt: 0 or 1")
    p_enum.add_argument("--q", type=int, help="alphabet size for the q-ary vt size")
    p_enum.add_argument("--coeffs")
    p_enum.add_argument("--mod", type=int)
    p_enum.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p_enum.add_argument("--quiet", action="store_true")
    p_enum.set_defaults(func=cmd_enum)

    p_table = sub.add_parser("table", help="sweep a grid, one CSV row per instance")
    p_table.add_argument("--family", required=True, choices=_FAMILIES)
    p_table.add_argument("--quantity", choices=("size", "enumerator", _NT_QUANTITY),
                         default="size")
    _add_grid_flags(p_table)
    p_table.add_argument("--format", choices=("plain", "json", "csv"), default="csv")
    p_table.add_argument("--quiet", action="store_true")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="cross-check methods over a grid")
    p_verify.add_argument("--family", required=True, choices=_FAMILIES)
    _add_grid_flags(p_verify)
    p_verify.add_argument("--methods", help="comma list from exact,closed,float,brute")
    p_verify.add_argument("--random", type=int, help="verify N seeded random blcc specs")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p_verify.add_argument("--quiet", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_version = sub.add_parser("version", help="print the package version")
    p_version.set_defaults(func=cmd_version)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        # parameter-domain errors from the code constructors count as usage errors
        print(f"ccodes: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
