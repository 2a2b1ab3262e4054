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
written a..b (inclusive); --b all sweeps every residue of the instance's
modulus; for svt and levenshtein grids --n also accepts the relative forms
k+1 and 2k. enum reads the same grid but needs it to name exactly one
instance. --format (plain, json or csv) exists on enum only: table always
writes CSV and verify plain lines. enum and table answer from
the closed form when the coefficients are 1..k mod n with n dividing k+1
(every vt code), one evaluation per gcd(b, n), and otherwise from the
residue fold or by meeting in the middle. verify prints one PASS, FAIL or
UNVERIFIED line per instance. Its exact method is the residue fold; mitm,
meeting in the middle, runs only when --methods names it, and so does
closed, the closed form, except for vt, where it is a default method. A
method run outside its domain (a float sum that misses integrality,
overflows or reaches 2^52, where a float stops resolving integers, a route
past its cap, the closed form where n does not fit the coefficients) first
prints SKIP ... method=M reason=... and drops out of the comparison; PASS
lists the methods that ran. An instance passes when those agree and at least
two ran, or the one method asked for; it is UNVERIFIED when fewer ran, and
FAIL on a disagreement, an impossible enumerator or any other package error.
verify streams its grid, one instance and one outcome at a time; the r = 0 and
r = 1 lines of an svt base code share an outcome, so a method that raises for
r = 0 does not run again and its SKIP or FAIL prints on both lines.

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
       digits before their first byte. table stops at its first cap; a
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
from collections.abc import Callable, Iterable, Iterator, Sequence
from types import SimpleNamespace

from . import __version__
from .codes import CodeSpec, ParityCodeSpec, make_helberg, make_levenshtein, make_svt, make_vt
from .enumerator import (
    check_sweep,
    pretty_counts,
    svt_sizes_charsum_float,
    vt_q_size,
    weight_enumerator,
    weight_enumerator_charsum_float,
    weight_enumerator_closed,
    weight_enumerator_fold,
    weight_enumerator_mitm,
)
from .errors import CapExceeded, CongruenceCodeError, IntegralityFailure, OutOfDomain
from .oracle import brute_weight_enumerator

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


def _json_scalar(v: int):
    return v if -_JSON_INT_LIMIT < v < _JSON_INT_LIMIT else str(v)


def _emit_record(fmt: str, family: str, params: Params, method: str, size: int,
                 enumerator: Sequence[int] | None = None) -> str:
    """One computed result in format fmt.

    family and method are names, params maps each grid flag to its value,
    size is the code size and enumerator the weight counts, or None.
    """
    if fmt == "json":
        import json

        payload: dict = {"family": family, "params": params, "method": method,
                         "size": _json_scalar(size)}
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


def parse_range(text: str) -> list[int]:
    """'7' -> [7]; '1..6' -> [1, 2, ..., 6]; an empty range is allowed."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            return list(range(int(lo_s), int(hi_s) + 1))
        return [int(text)]
    except ValueError:
        raise UsageError(f"bad range {text!r}; expected INT or LO..HI") from None


def _parse_coeffs(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad coefficient list {text!r}; expected e.g. 1,2,-3") from None


# ---- family registry ----
#
# A family's grid lists its flags in output-parameter order, each with an
# expander: (flag value, parameters so far) -> the values that parameter takes.
# Its routes map a spec to a result; verify methods also return a deviation.


def _ints(text: str, params: Params) -> list[int]:
    """INT or LO..HI; after a --k, also the relative forms k+1 and 2k."""
    if "k" in params and text in ("k+1", "2k"):
        k = params["k"]
        return [k + 1] if text == "k+1" else [2 * k]
    return parse_range(text)


def _residues(modulus_of: Callable[[Params], int]) -> Callable[[str, Params], Sequence[int]]:
    """--b for a family whose modulus follows from its other parameters."""
    def expand(text: str, params: Params) -> Sequence[int]:
        modulus = modulus_of(params)
        if modulus < 1:
            raise UsageError(f"modulus {modulus} must be >= 1")
        if text == "all":
            return range(modulus)
        bs = parse_range(text)
        for b in bs:
            if not 0 <= b < modulus:
                raise UsageError(f"residue {b} out of range for modulus {modulus}")
        return bs

    return expand


def _coeff_text(text: str, params: Params) -> list[str]:
    _parse_coeffs(text)  # reject a malformed list even when the --mod range is empty
    return [text]


def _float(spec: CodeSpec) -> tuple[tuple[int, ...], float]:
    w, dev = weight_enumerator_charsum_float(spec)
    return w.counts, dev


def _svt_float(spec: ParityCodeSpec) -> tuple[tuple[int, int], float]:
    even, odd, dev = svt_sizes_charsum_float(spec)
    return (even, odd), dev


def _parity(method: Callable[[CodeSpec], tuple[tuple[int, ...], float]]):
    """An svt method: the (even, odd) sizes from a method's counts of the base code."""
    def svt_method(spec: ParityCodeSpec) -> tuple[tuple[int, int], float]:
        counts, dev = method(spec.base)
        even = sum(counts[::2])
        return (even, sum(counts) - even), dev

    return svt_method


class _Family(namedtuple("_Family", "grid make methods opt_in", defaults=(("mitm", "closed"),))):
    """How one code family reads its grid flags and which routes compute it.

    grid: (flag, expander) pairs in output-parameter order; make: the spec
    from the grid values, passed in grid order; methods: verify methods by
    name, in default order, each spec -> (result, deviation); opt_in: the
    methods verify runs only when --methods names them.
    """

    __slots__ = ()


# A lambda reads its route's global when it runs, so a replaced or traced one runs.
_METHODS = {"exact": lambda spec: (weight_enumerator_fold(spec).counts, 0.0),
            "closed": lambda spec: (weight_enumerator_closed(spec).counts, 0.0),
            "float": _float,
            "brute": lambda spec: (brute_weight_enumerator(spec).counts, 0.0),
            "mitm": lambda spec: (weight_enumerator_mitm(spec).counts, 0.0)}

_FAMILIES = {
    "vt": _Family(
        (("n", _ints), ("b", _residues(lambda p: p["n"] + 1))),
        make_vt,
        _METHODS,
        opt_in=("mitm",),  # every VT code lies in the closed form's domain
    ),
    "levenshtein": _Family(
        (("k", _ints), ("n", _ints), ("b", _residues(lambda p: p["n"]))),
        make_levenshtein,
        _METHODS,
    ),
    "helberg": _Family(
        (("k", _ints), ("s", lambda s, p: [s]),
         ("b", _residues(lambda p: make_helberg(p["k"], p["s"], 0).modulus))),
        make_helberg,
        _METHODS,
    ),
    "svt": _Family(
        (("k", _ints), ("n", _ints), ("b", _residues(lambda p: p["n"])),
         ("r", lambda r, p: (0, 1) if r == "both" else (int(r),))),
        make_svt,
        {**{name: _parity(method) for name, method in _METHODS.items()}, "float": _svt_float},
    ),
    "blcc": _Family(
        (("coeffs", _coeff_text), ("mod", _ints), ("b", _residues(lambda p: p["mod"]))),
        lambda coeffs, mod, b: CodeSpec(_parse_coeffs(coeffs), mod, b),
        _METHODS,
    ),
}


# ---- instance grids ----


def _expand(family: _Family, args: SimpleNamespace,
            params: Params) -> Iterator[tuple[Params, object]]:
    if len(params) == len(family.grid):
        yield params, family.make(*params.values())
        return
    flag, expand = family.grid[len(params)]
    for value in expand(getattr(args, flag), params):
        yield from _expand(family, args, {**params, flag: value})


def _check_grid_flags(args: SimpleNamespace, takes: Sequence[str], who: str) -> None:
    for flag in _GRID_FLAGS:
        if (flag in takes) != (getattr(args, flag) is not None):
            verb = "requires" if flag in takes else "does not take"
            raise UsageError(f"{who} {verb} --{flag}")


def _iter_instances(args: SimpleNamespace,
                    family: _Family | None = None) -> Iterator[tuple[Params, object]]:
    """Yield (params, spec) in deterministic order; spec is what family.make returns."""
    family = family or _FAMILIES[args.family]
    _check_grid_flags(args, [flag for flag, _ in family.grid], f"--family {args.family}")
    try:
        yield from _expand(family, args, {})
    except (ValueError, OverflowError) as exc:  # a code constructor rejected the parameters
        raise UsageError(str(exc)) from None


def _random_blcc(count: int, seed: int) -> Iterator[tuple[dict[str, int | str], CodeSpec]]:
    import random

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


def cmd_enum(args: SimpleNamespace) -> int:
    if args.q is not None:
        if args.family != "vt":
            raise UsageError("--q applies to --family vt only")
        if args.q < 1:
            raise UsageError("--q must be >= 1")
    family, qary = _FAMILIES[args.family], args.q not in (None, 2)
    if qary:  # the q-ary size reads only (n, b): build no coefficients
        # len(range(n)) refuses a length past a C ssize_t, as make_vt's tuple does
        family = family._replace(make=lambda n, b: make_vt(n, b) if n < 1 else (len(range(n)), b))
    instances = list(itertools.islice(_iter_instances(args, family), 2))
    if len(instances) != 1:
        raise UsageError("enum needs a grid of exactly one instance; use table or verify")
    [(params, spec)] = instances
    if qary:
        params, method, counts = {**params, "q": args.q}, "closed", None
        # q(n+1) size >= q^(n+1) - (n+1) q^((n+1)/2), as |c_d(b)| <= phi(d) and the
        # phi(d) of d | n+1 sum to n+1; so size >= q^n / (2(n+1)) once 2(n+1) <=
        # q^((n+1)/2). A bit length one short of that refuses a size past the cap early.
        (n, b), log_q = spec, math.log2(args.q)
        if (n + 1) / 2 * log_q >= math.log2(2 * (n + 1)) + 1:
            _check_digits((int(n * log_q - math.log2(2 * (n + 1))),))
        size = vt_q_size(n, b, args.q)
    else:
        method, counts = "exact", weight_enumerator(spec).counts
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
    # --b all checks every modulus (--b 0 is valid for each) before any row.
    if args.b == "all":
        for _, spec in _iter_instances(SimpleNamespace(**{**vars(args), "b": "0"})):
            check_sweep(spec)
    try:  # a grid of several residues of a code (--b all or a range, --r both) folds it once
        sweep = args.r == "both" or args.b == "all" or len(parse_range(args.b or "")) > 1
    except UsageError:  # the grid reports a bad --b, after any bad flag before it
        sweep = False
    family = _FAMILIES[args.family]
    rows = [(p, weight_enumerator(spec, sweep).counts) for p, spec in _iter_instances(args)]
    width = max((len(counts) for _, counts in rows), default=0)
    if args.quantity == "size":  # the rows of a gcd class share one counts tuple: sum it once
        sizes = {id(c): (sum(c),) for c in {id(c): c for _, c in rows}.values()}
        rows = [(params, sizes[id(counts)]) for params, counts in rows]
    _check_digits(map(int.bit_length, itertools.chain.from_iterable(values for _, values in rows)))
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["family"] + [flag for flag, _ in family.grid] + (  # nt: a column per weight
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


def _outcome(routes: dict, methods: Sequence[str], spec) -> tuple[list, dict | Exception]:
    """The (method, reason) of each SKIP, and the answers or the package error that stopped them."""
    skips, found = [], {}
    try:
        for m in methods:
            try:
                found[m] = routes[m](spec)
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
        instances = _random_blcc(args.random, args.seed or 0)
    elif args.seed is not None:
        raise UsageError("--seed applies to --random only")
    else:
        instances = _iter_instances(args)
    routes = _FAMILIES[args.family].methods
    count = failures = 0
    code = outcome = None
    for count, (params, spec) in enumerate(instances, 1):
        # both parities of an svt base code print the same split: run its methods once
        base = spec.base if isinstance(spec, ParityCodeSpec) else None
        if base is None or base != code:
            code, outcome = base, _outcome(routes, methods, spec)
        skips, found = outcome
        label = " ".join(f"{k}={v}" for k, v in params.items())
        for m, reason in skips:
            print(f"SKIP family={args.family} {label} method={m} reason={reason}")
        if isinstance(found, Exception):
            failures += 1
            print(f"FAIL family={args.family} {label} error={found}")
            continue
        ran = list(found)
        if len(ran) < min(2, len(methods)):
            failures += 1
            print(f"UNVERIFIED family={args.family} {label} methods={','.join(ran)}")
            continue
        dev = max(d for _, d in found.values())
        reference = found[ran[0]][0]
        if any(found[m][0] != reference for m in ran[1:]):
            failures += 1
            detail = "; ".join(f"{m}={found[m][0]}" for m in ran)
            print(f"FAIL family={args.family} {label} {detail}")
        else:
            print(f"PASS family={args.family} {label} methods={','.join(ran)} dev={dev:.3e}")
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
          help="; ".join(f"{name} takes --{' --'.join(flag for flag, _ in family.grid)}"
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
