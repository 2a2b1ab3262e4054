"""Golden outputs: every command line of golden.json run through cli.main, in file order.

Each entry of golden.json holds one command line, its exit status, the
sha256 of its stdout and its stderr text. The lines are the benchmark jobs
at seeds 1 and 11, the CI smoke commands that finish within a second in
process, and the grids of GRIDS below. A change that alters any output
regenerates the file from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and lists every changed command line in CHANGES.md. CI regenerates it too
and fails when the committed file differs.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

from ccodes import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.json")

# Smoke commands left out: --help text depends on the terminal width and the
# Python version, and these three take a second or more in process.
SLOW = ("verify --family blcc --mod 65536 ", "enum --family vt --n 15087 ",
        "enum --family vt --n 30000000 ")

_ALL = "--methods exact,closed,float,brute,mitm"
GRIDS = (
    # every method on a small grid of each family; closed SKIPs outside its domain
    f"verify --family vt --n 1..8 --b all {_ALL}",
    f"verify --family levenshtein --k 1..6 --n k+1 --b all {_ALL}",
    f"verify --family levenshtein --k 2..6 --n 2k --b 0..2 {_ALL}",
    f"verify --family helberg --k 1..7 --s 2 --b all {_ALL}",
    f"verify --family helberg --k 4..6 --s 3 --b 0..4 {_ALL}",
    f"verify --family svt --k 1..6 --n k+1 --b all --r both {_ALL}",
    f"verify --family svt --k 3..5 --n 2k --b 0..3 --r 1 {_ALL}",
    f"verify --family blcc --coeffs 3,5,7,11 --mod 13 --b all {_ALL}",
    f"verify --family blcc --coeffs -4,0,9,9,21 --mod 1..6 --b 0 {_ALL}",
    f"verify --family blcc --random 20 --seed 3 {_ALL}",
    "verify --family vt --n 4 --b 0..2 --quiet",
    # enum in each format
    "enum --family vt --n 12 --b 3",
    "enum --family vt --n 12 --b 3 --format json",
    "enum --family vt --n 12 --b 3 --format csv",
    "enum --family levenshtein --k 9 --n 7 --b 2",
    "enum --family levenshtein --k 9 --n 7 --b 2 --format json",
    "enum --family levenshtein --k 9 --n 7 --b 2 --format csv",
    "enum --family helberg --k 12 --s 3 --b 17 --format json",
    "enum --family svt --k 7 --n 8 --b 1 --r 0 --format csv",
    "enum --family blcc --coeffs 2,4,6,8 --mod 10 --b 0",
    "enum --family vt --n 9 --b 2 --q 5 --format json",
    # table in each quantity
    "table --family vt --quantity size --n 1..6 --b all",
    "table --family vt --quantity enumerator --n 1..6 --b all",
    "table --family vt --quantity nt --n 1..6 --b all",
    "table --family levenshtein --quantity nt --k 1..6 --n 2k --b all",
    "table --family helberg --quantity size --k 1..8 --s 2 --b 0",
    "table --family helberg --quantity enumerator --k 5 --s 2 --b 0..3",
    "table --family svt --quantity size --k 1..5 --n k+1 --b all --r both",
    "table --family blcc --quantity nt --coeffs 1,3 --mod 2..5 --b 1",
    # usage errors, exit 2
    "",
    "frobnicate",
    "enum --family vt --n 4",
    "enum --family vt --n 4 --b 0 --bogus 1",
    "enum --family vt --n 5..3 --b 0",
    "enum --family nope --n 4 --b 0",
    "table --family svt --quantity nt --k 3 --n 4 --b 0 --r 0",
    "verify --family vt --n 3 --b 0 --methods exact,bogus",
    "verify --family vt --n 3 --b 0 --methods ,",
    "verify --family vt --random 3",
    "verify --family vt --n 3 --b 0 --seed 2",
    # caps: exit 4, or a SKIP inside verify
    "enum --family helberg --k 60 --s 2 --b 0",
    "enum --family helberg --k 2000 --s 2 --b 0",
    "table --family helberg --k 30 --s 3 --b all",
    "verify --family blcc --coeffs 1,2 --mod 70000 --b 0 --methods exact,float",
)


def outcome(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return {"argv": argv, "status": status,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue()}


def test_golden_outputs():
    entries = json.loads(GOLDEN.read_text())
    changed = [" ".join(e["argv"]) for e in entries if outcome(e["argv"]) != e]
    assert not changed, f"{len(changed)} of {len(entries)} command lines changed: {changed}"


def smoke_lines() -> list[list[str]]:
    """The ccodes command lines of the CI workflow, less --help and SLOW."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text().replace("\\\n", " ")
    lines = []
    for line in text.splitlines():
        if line.lstrip().startswith("#"):
            continue
        # a command's words run up to a redirection, a pipe or a closing parenthesis
        for match in re.finditer(r"(?:^|[\s(])ccodes((?: +(?!\d*>)[^\s>|)]+)+)", line):
            argv = match.group(1).split()
            if "--help" not in argv and not (" ".join(argv) + " ").startswith(SLOW):
                lines.append(argv)
    return lines


def command_lines() -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, make_jobs

    lines = [list(job.argv) for name in WORKLOADS for seed in (1, 11)
             for job in make_jobs(name, seed)]
    lines += smoke_lines() + [grid.split() for grid in GRIDS]
    unique = {tuple(argv): argv for argv in lines}  # first occurrence, in order
    return list(unique.values())


if __name__ == "__main__":
    entries = [outcome(argv) for argv in command_lines()]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} command lines to {GOLDEN.relative_to(ROOT)}")
