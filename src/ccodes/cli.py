"""Command line front end for congruence-code counting.

Subcommands:
    enum     one code instance: enumerator and size
    table    sweep a parameter grid, one CSV row per instance
    verify   cross-check independent computation methods over a grid
    version  print the package version

Examples:
    ccodes enum --family vt --n 4 --b 0 --format json
    ccodes enum --family blcc --coeffs 1,2 --mod 3 --b 0
    ccodes table --family vt --quantity size --n 1..6 --b all
    ccodes table --family levenshtein --quantity nt --k 1..6 --n 2k --b all
    ccodes table --family helberg --quantity size --k 1..8 --s 2 --b 0
    ccodes verify --family vt --n 1..12 --b all --methods exact,closed,brute
    ccodes verify --family svt --k 1..10 --n k+1 --b all --r both
    ccodes verify --family blcc --random 100 --seed 7

Each family takes its own grid flags and no others, as the --family help
lists. A flag's value follows it (--n 4) or an = (--n=4) and may start with
a dash (--coeffs -3,2); a unique prefix names a flag (--fam vt), and the
last repeat wins. argparse is imported only to print --help. Ranges are
written a..b (inclusive) and read lazily, so a huge one costs nothing until
it is walked, and an empty one ends the walk; --b all sweeps every residue
of each code's modulus; for svt and levenshtein grids --n also accepts the
relative forms k+1 and 2k. Each command walks the grid once per code, built
at residue 0, with its --b residues. enum reads the same grid but needs it
to name exactly one instance. --format (plain, json or csv) exists on enum
only: table always writes CSV and verify plain lines. enum and table answer
from the closed form when the coefficients are 1..k mod n with n dividing
k+1 (every vt code), one evaluation per gcd(b, n), and otherwise from the
residue fold or by meeting in the middle; table asks each residue once, and
for svt sums its counts by parity for each --r. verify prints one PASS, FAIL
or UNVERIFIED line per instance. Its exact method is the residue fold; mitm,
meeting in the middle, runs only when --methods names it, and so does
closed, the closed form, except for vt, where it is a default method. A
method run outside its domain (a float sum that misses integrality,
overflows or reaches 2^52, where a float stops resolving integers, a route
past its cap, the closed form where n does not fit the coefficients) first
prints SKIP ... method=M reason=... and drops out of the comparison; PASS
lists the methods that ran. An instance passes when those agree and at least
two ran, or the one method asked for; it is UNVERIFIED when fewer ran, and
FAIL on a disagreement, an impossible enumerator or any other package error.
verify streams its grid, holding one code's residues and plans at a time, and
runs each residue's methods once: the r = 0 and r = 1 lines of an svt code
print the same outcome, so a method that raises for r = 0 does not run again
and its SKIP or FAIL prints on both lines.

Exit status:
    0  success
    1  some instance is not verified (FAIL or UNVERIFIED)
    2  usage error, reported as one "ccodes: ..." line before any output
    3  internal error outside verify (a package error or an impossible
       enumerator), reported as one "ccodes: internal error: ..." line
    4  a route's cap (packed bits of the fold or of meeting in the middle,
       the bits of the closed form's row, float modulus or cells,
       brute-force tuples) stops the computation outside verify, reported
       as one "ccodes: limit: ..." line before the route allocates; or the
       output cap: exact answers print whole, past Python's 4300-digit
       limit, but enum and table refuse more than _MAX_DIGITS decimal
       digits before their first byte. table charges every code of its
       grid and its --b residues to the route's cap before any row; a
       usage error still wins, as ranges expand in ascending order and a
       grid with one raises it before its first instance
Run as a program (the console script, python -m ccodes.cli or
sys.exit(main())), main ends the process itself once the command returns:
it runs the atexit handlers, flushes stdout and stderr and calls os._exit
with the status, which skips the interpreter's teardown, about 9 ms of a
short command. A reader that closes the pipe before the output is flushed
gets exit status 0 and nothing on stderr, as when the pipe breaks while the
command writes; Python's own exit reported it with status 120 and an
"Exception ignored ... BrokenPipeError" line. An exception that escapes the
command still takes Python's own exit, with its traceback.
Output carries no timestamps, so identical invocations produce identical
bytes.
"""

from __future__ import annotations

import atexit
import io
import itertools
import math
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Generator, Iterable, Iterator, Sequence
from types import SimpleNamespace

from . import __version__
from .codes import CodeSpec, ParityCodeSpec, make_helberg, make_levenshtein, make_vt
from .enumerator import (
    charsum_float_plan,
    closed_plan,
    fold_plan,
    mitm_plan,
    pretty_counts,
    svt_float_plan,
    vt_q_size,
    weight_enumerator,
    weight_enumerators,
)
from .errors import CapExceeded, CongruenceCodeError, IntegralityFailure, OutOfDomain
from .oracle import brute_plan

_JSON_INT_LIMIT = 1 << 53  # larger magnitudes go to JSON as decimal strings
_MAX_DIGITS = 50_000_000  # output cap; VT(14299)'s enumerator, 4.43e7 digits, prints

Params = dict[str, int | str]


class UsageError(Exception):
    """Bad command line parameters; reported on one line, exit code 2."""


# ---- formatting ----


def _check_digits(bit_lengths: Iterable[int]) -> None:
    """Refuse an output of numbers of these bit lengths past _MAX_DIGITS before its first byte."""
    # 0.30103 decimal digits a bit; past 4300 digits (14284 bits), where int-to-str
    # turns quadratic, a number of d digits counts d*d/4300
    bits = list(bit_lengths)
    digits = 0.30103 * (sum(bits) + sum(b * b / 14284 - b for b in bits if b > 14284))
    if digits > _MAX_DIGITS:
        raise CapExceeded(f"about {digits:.0f} output digits exceed the cap of {_MAX_DIGITS}")


def _json_scalar(v: int | str):
    return v if isinstance(v, str) or -_JSON_INT_LIMIT < v < _JSON_INT_LIMIT else str(v)


def _emit_record(fmt: str, family: str, params: Params, method: str, size: int,
                 enumerator: Sequence[int] | None = None) -> str:
    """One computed result in format fmt.

    family and method are names, params maps each grid flag to its value,
    size is the code size and enumerator the weight counts, or None.
    """
    if fmt == "json":
        import json

        payload: dict = {"family": family,
                         "params": {key: _json_scalar(v) for key, v in params.items()},
                         "method": method, "size": _json_scalar(size)}
        if enumerator is not None:
            payload["enumerator"] = [_json_scalar(c) for c in enumerator]
        return json.dumps(payload, separators=(",", ":"))
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["family", "params", "method", "size", "deviation", "enumerator"])
        writer.writerow([
            family,
            " ".join(f"{k}={v}" for k, v in params.items()),
            method,
            size,
            "",  # deviation: the column stays so the CSV layout does not change
            "" if enumerator is None else " ".join(str(c) for c in enumerator),
        ])
        return buf.getvalue().rstrip("\n")
    parts = [f"family={family}"]
    parts += [f"{k}={v}" for k, v in params.items()]
    parts.append(f"method={method}")
    parts.append(f"size={size}")
    if enumerator is not None:
        parts.append(f"W(z)={pretty_counts(enumerator)}")
    return " ".join(parts)


# ---- range parsing ----


def parse_range(text: str) -> range:
    """'7' -> range(7, 8); '1..6' -> range(1, 7); an empty range is allowed.

    The range is lazy, so a huge one costs nothing until it is walked.
    """
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            return range(int(lo_s), int(hi_s) + 1)
        return range(int(text), int(text) + 1)
    except ValueError:
        raise UsageError(f"bad range {text!r}; expected INT or LO..HI") from None


def _parse_coeffs(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad coefficient list {text!r}; expected e.g. 1,2,-3") from None


# ---- family registry ----
#
# A family's grid lists the flags that name its code in output-parameter order,
# each with an expander: (flag value, parameters so far) -> the values that
# parameter takes. Its constructor from codes builds each code at residue 0;
# --b, and svt's --r, then pick the code's cosets. Its verify methods map a
# code to a plan, which maps each residue to a result and a deviation.


def _ints(text: str, params: Params) -> Sequence[int]:
    """INT or LO..HI; after a --k, also the relative forms k+1 and 2k."""
    if "k" in params and text in ("k+1", "2k"):
        k = params["k"]
        return [k + 1] if text == "k+1" else [2 * k]
    return parse_range(text)


def _residues(text: str, modulus: int) -> range:
    """--b read against a code's modulus: all of its residues, or the listed ones."""
    if text == "all":
        return range(modulus)
    bs = parse_range(text)
    if bs and not (0 <= bs[0] and bs[-1] < modulus):  # an ascending range: its first bad residue
        raise UsageError(f"residue {bs[0] if bs[0] < 0 else max(bs[0], modulus)} "
                         f"out of range for modulus {modulus}")
    return bs


def _coeff_text(text: str, params: Params) -> list[str]:
    _parse_coeffs(text)  # reject a malformed list even when the --mod range is empty
    return [text]


def _read(plan: Callable, read: Callable = lambda w: (w.counts, 0.0)) -> Callable[[int], tuple]:
    """A verify method's plan: b -> read(plan(b)), the result and deviation at residue b."""
    return lambda b: read(plan(b))


def _split(found: tuple[tuple[int, ...], float]) -> tuple[tuple[int, int], float]:
    """An svt method's answer: the (even, odd) sizes from a method's counts of the base code."""
    counts, dev = found
    even = sum(counts[::2])
    return (even, sum(counts) - even), dev


class _Family(namedtuple("_Family", "grid make methods opt_in parity",
                         defaults=(("mitm", "closed"), False))):
    """How one code family reads its grid flags and which routes compute it.

    grid: the (flag, expander) pairs that name a code, in output-parameter
    order; make: the code's constructor, passed the grid values in grid order
    and then the residue; methods: verify methods by name, in default order,
    each code -> its plan, b -> (result, deviation); opt_in: the methods
    verify runs only when --methods names them; parity: whether --r splits
    each spec by weight parity, as for svt.
    """

    __slots__ = ()

    @property
    def flags(self) -> list[str]:
        """Every grid flag in output-parameter order: the code's, then --b and svt's --r."""
        return [flag for flag, _ in self.grid] + ["b", "r"][:1 + self.parity]


# A lambda reads its route's plan global when it runs, so a replaced or traced one runs.
_METHODS = {"exact": lambda code: _read(fold_plan(code)),
            "closed": lambda code: _read(closed_plan(code)),
            "float": lambda code: _read(charsum_float_plan(code), lambda wd: (wd[0].counts, wd[1])),
            "brute": lambda code: _read(brute_plan(code)),
            "mitm": lambda code: _read(mitm_plan(code))}

_FAMILIES = {
    "vt": _Family((("n", _ints),), make_vt, _METHODS,
                  opt_in=("mitm",)),  # every VT code lies in the closed form's domain
    "levenshtein": _Family((("k", _ints), ("n", _ints)), make_levenshtein, _METHODS),
    "helberg": _Family((("k", _ints), ("s", lambda s, p: [s])), make_helberg, _METHODS),
    "svt": _Family((("k", _ints), ("n", _ints)), make_levenshtein,
                   {**{name: lambda code, plan=plan: _read(plan(code), _split)
                       for name, plan in _METHODS.items()},
                    "float": lambda code: _read(svt_float_plan(code), lambda s: (s[:2], s[2]))},
                   parity=True),
    "blcc": _Family((("coeffs", _coeff_text), ("mod", _ints)),
                    lambda coeffs, mod, b: CodeSpec(_parse_coeffs(coeffs), mod, b), _METHODS),
}


# ---- instance grids ----


def _expand(family: _Family, args: SimpleNamespace,
            params: Params) -> Generator[tuple[Params, CodeSpec, range], None, bool]:
    """Walk the codes under params; return False once no further code can have an instance.

    An empty range ends the whole walk: an explicit --b and every absolute grid
    range read the same for each code, and k+1 and 2k always name one value.
    """
    if len(params) == len(family.grid):
        code = family.make(*params.values(), 0)
        residues = _residues(args.b, code.modulus)
        yield params, code, residues
        return bool(residues)
    flag, expand = family.grid[len(params)]
    values = expand(getattr(args, flag), params)
    for value in values:
        if not (yield from _expand(family, args, {**params, flag: value})):
            return False
    return bool(values)


def _check_grid_flags(args: SimpleNamespace, takes: Sequence[str], who: str) -> None:
    for flag in _GRID_FLAGS:
        if (flag in takes) != (getattr(args, flag) is not None):
            verb = "requires" if flag in takes else "does not take"
            raise UsageError(f"{who} {verb} --{flag}")


def _grid(args: SimpleNamespace,
          family: _Family | None = None) -> Iterator[tuple[Params, CodeSpec, range]]:
    """Yield (params, code at residue 0, its --b residues) once per code the grid names.

    A code's own error comes before its --b is read.
    """
    family = family or _FAMILIES[args.family]
    _check_grid_flags(args, family.flags, f"--family {args.family}")
    try:
        yield from _expand(family, args, {})
    except (ValueError, OverflowError) as exc:  # a code constructor rejected the parameters
        raise UsageError(str(exc)) from None


def _labels(args: SimpleNamespace, params: Params, b: int) -> list[tuple[Params, int | None]]:
    """Each instance of a code at residue b: its output params and svt's --r parity, or None."""
    if args.r is None:  # the family takes no --r
        return [({**params, "b": b}, None)]
    parities = (0, 1) if args.r == "both" else (int(args.r),)
    return [({**params, "b": b, "r": r}, r) for r in parities]


def _random_blcc(count: int, seed: int) -> Iterator[tuple[Params, CodeSpec, tuple[int]]]:
    import random

    rng = random.Random(seed)
    for i in range(count):
        k = rng.randint(1, 12)
        n = rng.randint(1, 100)
        b = rng.randint(0, n - 1)
        coeffs = tuple(rng.randint(-100, 100) for _ in range(k))
        params: Params = {"i": i, "coeffs": ",".join(str(c) for c in coeffs), "mod": n}
        yield params, CodeSpec(coeffs, n, 0), (b,)  # each spec is a code of its own


# ---- subcommands ----


def cmd_enum(args: SimpleNamespace) -> int:
    if args.q is not None:
        if args.family != "vt":
            raise UsageError("--q applies to --family vt only")
        if args.q < 1:
            raise UsageError("--q must be >= 1")
    family, qary = _FAMILIES[args.family], args.q not in (None, 2)
    if qary:  # the q-ary size reads only n and b: a code of modulus n+1 and no coefficients
        # len(range(n)) refuses a length past a C ssize_t, as make_vt's tuple does
        family = family._replace(
            make=lambda n, b: make_vt(n, b) if n < 1 else CodeSpec((), len(range(n)) + 1, b))
    instances = list(itertools.islice(((label, code, b, r) for params, code, residues
                                       in _grid(args, family) for b in residues
                                       for label, r in _labels(args, params, b)), 2))
    if len(instances) != 1:
        raise UsageError("enum needs a grid of exactly one instance; use table or verify")
    [(params, code, b, r)] = instances
    if qary:
        params, method, counts = {**params, "q": args.q}, "closed", None
        # q(n+1) size >= q^(n+1) - (n+1) q^((n+1)/2), as |c_d(b)| <= phi(d) and the
        # phi(d) of d | n+1 sum to n+1; so size >= q^n / (2(n+1)) once 2(n+1) <=
        # q^((n+1)/2). A bit length one short of that refuses a size past the cap early.
        n, log_q = code.modulus - 1, math.log2(args.q)
        if (n + 1) / 2 * log_q >= math.log2(2 * (n + 1)) + 1:
            _check_digits((int(n * log_q - math.log2(2 * (n + 1))),))
        size = vt_q_size(n, b, args.q)
    else:
        spec = CodeSpec(code.coefficients, code.modulus, b)
        method = "exact"
        counts = weight_enumerator(spec if r is None else ParityCodeSpec(spec, r)).counts
        size = sum(counts)
    _check_digits(map(int.bit_length, (size, *(counts or ()))))
    print(_emit_record(args.format, args.family, params, method, size, counts))
    return 0


def cmd_table(args: SimpleNamespace) -> int:
    if args.family == "svt" and args.quantity != "size":
        raise UsageError("svt tables support --quantity size only")
    # The first cap stops the table, yet a usage error anywhere in the grid wins:
    # ranges expand in ascending order and every usage error depends only on k,
    # s, the modulus or b < modulus, so it comes before the grid's first instance.
    # Each code of the grid, built once at residue 0, is charged its residues before
    # any row: weight_enumerators charges at the call, plans at the first read.
    family, instances = _FAMILIES[args.family], False
    for _, code, residues in _grid(args, family):
        weight_enumerators(code, residues)
        instances |= bool(residues)
    rows = []  # one plan per code, a sweep if two residues or more; --r both asks each once
    for params, code, residues in _grid(args, family) if instances else ():
        for b, w in zip(residues, weight_enumerators(code, residues)):
            # an svt size of parity r sums the base code's counts of the weights t = r mod 2
            rows += [(label, w.counts if r is None else w.counts[r::2])
                     for label, r in _labels(args, params, b)]
    width = max((len(counts) for _, counts in rows), default=0)
    if args.quantity == "size":  # the rows of a gcd class share one counts tuple: sum it once
        sizes = {id(c): (sum(c),) for c in {id(c): c for _, c in rows}.values()}
        rows = [(params, sizes[id(counts)]) for params, counts in rows]
    _check_digits(map(int.bit_length, itertools.chain.from_iterable(values for _, values in rows)))
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["family"] + family.flags + (  # nt: a column per weight
        [f"N{t}" for t in range(width)] if args.quantity == "nt" else [args.quantity]))
    for params, values in rows:
        if args.quantity == "enumerator":
            values = [" ".join(str(c) for c in values)]
        elif args.quantity == "nt":
            values = list(values) + [""] * (width - len(values))
        writer.writerow([args.family, *params.values(), *values])
    return 0


def _methods_for(family: str, requested: str | None) -> list[str]:
    known = _FAMILIES[family].methods
    if requested is None:
        return [m for m in known if m not in _FAMILIES[family].opt_in]
    methods = [m.strip() for m in requested.split(",") if m.strip()]
    for i, m in enumerate(methods):
        if m not in known:
            raise UsageError(f"unknown method {m!r} for --family {family}; "
                             f"choose from {','.join(known)}")
        if m in methods[:i]:
            raise UsageError(f"--methods names {m} twice")
    if not methods:
        raise UsageError("--methods must name at least one method")
    return methods


def _outcome(routes: dict, plans: dict, methods: Sequence[str],
             code: CodeSpec, b: int) -> tuple[list, dict | Exception]:
    """The (method, reason) of each SKIP, and the answers or the package error that stopped them."""
    skips, found = [], {}
    try:
        for m in methods:
            try:
                if m not in plans:  # plans holds the methods' plans of code
                    plans[m] = routes[m](code)
                found[m] = plans[m](b)
            except (IntegralityFailure, CapExceeded, OutOfDomain) as exc:  # outside its domain
                skips.append((m, exc.with_traceback(None)))  # its frames may refer back to it
    except (CongruenceCodeError, ValueError) as exc:  # a package bug, as in main
        return skips, exc.with_traceback(None)
    return skips, found


def cmd_verify(args: SimpleNamespace) -> int:
    methods = _methods_for(args.family, args.methods)
    if args.random is not None:
        if args.family != "blcc":
            raise UsageError("--random applies to --family blcc only")
        _check_grid_flags(args, (), "--random")
        if args.random < 0:
            raise UsageError("--random must be >= 0")
        grid = _random_blcc(args.random, args.seed or 0)
    elif args.seed is not None:
        raise UsageError("--seed applies to --random only")
    else:
        grid = _grid(args)
    routes = _FAMILIES[args.family].methods
    count = failures = 0
    for params, code, residues in grid:
        plans = {}  # the last code's plans go before this one's are built
        for b in residues:
            # every line of b, both parities of an svt code, prints one outcome: run it once
            skips, found = _outcome(routes, plans, methods, code, b)
            if isinstance(found, Exception):
                verdict, tail = "FAIL", f"error={found}"
            elif len(found) < min(2, len(methods)):
                verdict, tail = "UNVERIFIED", f"methods={','.join(found)}"
            else:
                answers, devs = zip(*found.values())
                if any(answer != answers[0] for answer in answers):
                    verdict, tail = "FAIL", "; ".join(f"{m}={a}" for m, a in zip(found, answers))
                else:
                    verdict, tail = "PASS", f"methods={','.join(found)} dev={max(devs):.3e}"
            for label, _ in _labels(args, params, b):
                count += 1
                failures += verdict != "PASS"
                label = " ".join(f"{k}={v}" for k, v in label.items())
                for m, reason in skips:
                    print(f"SKIP family={args.family} {label} method={m} reason={reason}")
                print(f"{verdict} family={args.family} {label} {tail}")
    if not args.quiet:
        print(f"{count - failures}/{count} instances agree")
    return 1 if failures else 0


def cmd_version(args: SimpleNamespace) -> int:
    print(f"ccodes {__version__}")
    return 0


# ---- command line ----
#
# One flag table serves both parsers. parse_args reads every command line
# that does not ask for help; build_parser hands the same table to argparse,
# imported only to render --help.


class _Flag(namedtuple("_Flag", "name type choices default help required",
                       defaults=(str, None, None, None, False))):
    """One --name flag: its value's converter (bool for a switch), choices and default."""

    __slots__ = ()


class _Command(namedtuple("_Command", "help run flags")):
    """One subcommand: its help line, its handler and its flags in help order."""

    __slots__ = ()


_GRID = (
    _Flag("family", choices=tuple(_FAMILIES), required=True,
          help="; ".join(f"{name} takes --{' --'.join(family.flags)}"
                         for name, family in _FAMILIES.items())),
    _Flag("n", help="length / modulus parameter; INT, LO..HI, k+1 or 2k"),
    _Flag("k", help="block length; INT or LO..HI"),
    _Flag("s", int, help="Helberg deletion parameter"),
    _Flag("b", help="congruence residue; INT, LO..HI or all"),
    _Flag("r", choices=("0", "1", "both"), help="weight parity for svt"),
    _Flag("coeffs", help="comma-separated coefficients for blcc"),
    _Flag("mod", help="modulus for blcc; INT or LO..HI"),
)
_GRID_FLAGS = tuple(flag.name for flag in _GRID[1:])

_COMMANDS = {
    "enum": _Command("one instance: enumerator and size", cmd_enum, _GRID + (
        _Flag("q", int, help="alphabet size for the q-ary vt size"),
        _Flag("format", choices=("plain", "json", "csv"), default="plain"),
    )),
    "table": _Command("sweep a grid, one CSV row per instance", cmd_table, _GRID + (
        _Flag("quantity", choices=("size", "enumerator", "nt"), default="size"),
    )),
    "verify": _Command("cross-check methods over a grid", cmd_verify, _GRID + (
        _Flag("methods", help=f"comma list from {','.join(_METHODS)}; run only when named: "
                              + "; ".join(f"{name} {','.join(family.opt_in)}"
                                          for name, family in _FAMILIES.items())),
        _Flag("random", int, help="verify N seeded random blcc specs"),
        _Flag("seed", int, help="seed for --random (default 0)"),
        _Flag("quiet", bool, default=False),
    )),
    "version": _Command("print the package version", cmd_version, ()),
}


def build_parser():
    """The argparse parser of the flag table; main uses it only for --help."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str):
            # one line on stderr and exit 2, like every other usage error
            raise UsageError(f"{message} (see {self.prog} --help)")

    parser = Parser(
        prog="ccodes",
        description="Exact weight enumerators and sizes of binary linear congruence codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            if flag.type is bool:
                p.add_argument(f"--{flag.name}", action="store_true", help=flag.help)
            else:
                p.add_argument(f"--{flag.name}", type=flag.type, choices=flag.choices,
                               default=flag.default, required=flag.required, help=flag.help)
        p.set_defaults(func=command.run)
    return parser


def _wants_help(token: str) -> bool:
    """-h, --help or a prefix of --help, with or without =value."""
    name = token.partition("=")[0]
    return token.startswith("-h") or (len(name) > 2 and "--help".startswith(name))


def _match(token: str, flags: dict[str, _Flag]) -> tuple[_Flag, str | None] | None:
    """The flag a token names, with its =value if any: the whole name or a unique prefix."""
    if token in flags:
        return flags[token], None
    if not token.startswith("--") or token == "--":
        return None
    name, eq, value = token.partition("=")
    hits = [name] if name in flags else [f for f in flags if f.startswith(name)]
    if len(hits) > 1:
        raise UsageError(f"ambiguous option: {token} could match {', '.join(hits)}")
    return (flags[hits[0]], value if eq else None) if hits else None


def _choices(values: Sequence[str]) -> str:
    return f"(choose from {', '.join(map(repr, values))})"


def _parse_command(name: str, tokens: Sequence[str]) -> tuple[SimpleNamespace, list[str]]:
    """One subcommand's flags from its tokens; returns the tokens it does not take."""
    command = _COMMANDS[name]
    flags = {f"--{flag.name}": flag for flag in command.flags}
    args = SimpleNamespace(command=name, func=command.run,
                           **{flag.name: flag.default for flag in command.flags})
    extras: list[str] = []
    seen = set()
    try:
        rest = iter(tokens)
        for token in rest:
            hit = _match(token, flags)
            if hit is None:
                extras.append(token)
                continue
            flag, value = hit
            seen.add(flag)
            if flag.type is bool:
                if value is not None:
                    raise UsageError(f"argument --{flag.name}: ignored explicit argument {value!r}")
                setattr(args, flag.name, True)
                continue
            if value is None:
                # the next token is the value, even when it starts with '-'; one that
                # starts with '--' and holds no space reads as a flag, as in argparse
                value = next(rest, None)
                if value is None or (value.startswith("--") and " " not in value):
                    raise UsageError(f"argument --{flag.name}: expected one argument")
            try:
                value = flag.type(value)
            except ValueError:
                raise UsageError(f"argument --{flag.name}: invalid {flag.type.__name__} "
                                 f"value: {value!r}") from None
            if flag.choices is not None and value not in flag.choices:
                raise UsageError(f"argument --{flag.name}: invalid choice: {value!r} "
                                 f"{_choices(flag.choices)}")
            setattr(args, flag.name, value)
        missing = [f"--{flag.name}" for flag in command.flags if flag.required and flag not in seen]
        if missing:
            raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    except UsageError as exc:
        raise UsageError(f"{exc} (see ccodes {name} --help)") from None
    return args, extras


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The namespace of a command line, read from the flag table.

    A valid command line gives the namespace that build_parser().parse_args
    gives, but for one difference: a flag's value may start with a single
    '-' (--coeffs -3,2), where argparse reads such a token as an unknown
    option unless it is a negative number. Command lines that ask for help
    go to argparse. A usage error raises UsageError in the words of Python
    3.11's argparse, whatever Python runs (later argparse releases list an
    invalid choice's options unquoted). It reports the first bad command,
    flag or value in argv order, then a missing --family, then the tokens
    that no flag takes, the -- separator among them.
    """
    if any(map(_wants_help, argv)):
        return build_parser().parse_args(argv)
    if not argv:
        raise UsageError("the following arguments are required: command (see ccodes --help)")
    name = argv[0]
    if name not in _COMMANDS:
        raise UsageError(f"argument command: invalid choice: {name!r} "
                         f"{_choices(tuple(_COMMANDS))} (see ccodes --help)")
    args, extras = _parse_command(name, argv[1:])
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)} (see ccodes --help)")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line and return its exit status, or end the process with it.

    main(argv) runs argv and returns the status. main() runs sys.argv[1:] and
    owns the process, as the console script and python -m ccodes.cli call it:
    once the command returns its status, main runs the atexit handlers,
    flushes sys.stdout and sys.stderr and ends the process with os._exit,
    skipping the interpreter's teardown. A BrokenPipeError from that flush
    exits 0, as one raised while the command writes does. An exception that
    escapes the command takes Python's own exit, traceback and all.
    """
    if argv is not None:
        return _run(list(argv))
    status = _run(sys.argv[1:])
    atexit._run_exitfuncs()  # coverage.py and site hooks register handlers; they still run
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:  # the reader is gone: nothing more can reach it
            status = 0
    os._exit(status)


def _run(argv: list[str]) -> int:
    """Run one command line in process; its exit status, each error reported as above."""
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()  # Python 3.10.7 and later
    if saved is not None:  # print exact answers whole; _MAX_DIGITS bounds them instead
        sys.set_int_max_str_digits(0)
    try:
        args = parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"ccodes: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:  # a limit of the route, not a bug
        print(f"ccodes: limit: {exc}", file=sys.stderr)
        return 4
    except (CongruenceCodeError, ValueError) as exc:  # a package bug, e.g. an impossible enumerator
        print(f"ccodes: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 0
    finally:  # a library caller keeps its own limit
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
