"""Golden outputs: every command line of golden.json run through cli.main, in file order.

Each entry of golden.json holds one command line, its exit status, the
sha256 of its stdout and its stderr text. The lines are the benchmark jobs
at seeds 1 and 11 and the command lines of GRIDS below, which is the one
list to extend when an output should be pinned. A change that alters any
output regenerates the file from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and lists every changed command line in CHANGES.md. CI regenerates it too
and fails when the committed file differs.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from ccodes import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.json")

_ALL = "--methods exact,closed,float,brute,mitm"
GRIDS = (
    "version",
    "enum --family vt --n 4 --b 0",
    # the q-ary VT size from its closed divisor sum
    "enum --family vt --n 10 --b 0 --q 3",
    # a value may start with a dash, here a coefficient list led by a negative number
    "enum --family blcc --coeffs -3,2 --mod 5 --b 0",
    # the counts are N_0..N_k, trailing zeros kept: an empty code, and W(z) = 2z at k = 3
    "enum --family blcc --coeffs 1,1 --mod 5 --b 3",
    "enum --family blcc --coeffs 1,1,2 --mod 5 --b 1",
    # a modulus below 1 is a usage error, whatever --b says: exit 2 with one stderr line
    "table --family blcc --coeffs 1,2 --mod 0 --b all",
    # a usage error from the flag table: exit 2 with one stderr line
    "enum --family vt --n 4 --b 0 --format xml",
    # json and random are imported only where they are used: check both paths
    "enum --family vt --n 4 --b 0 --format json",
    "verify --family blcc --random 5 --seed 1",
    # a negative --random count is a usage error: exit 2 with one stderr line
    "verify --family blcc --random -1",
    # a method named twice is a usage error: exit 2 with one stderr line
    "verify --family vt --n 3 --b 0 --methods exact,exact",
    # svt splits the base code's counts by parity for every method but float, closed too
    "verify --family svt --k 1..8 --n k+1 --b all --r both --methods exact,closed",
    # float and brute are out of their domain here: SKIP, not FAIL, so exit 0
    "verify --family vt --n 50 --b 0",
    # the closed form alone at n = 8191: binomial rows keep it well under a second
    "verify --family vt --n 8191 --b 5 --methods closed",
    # modulus far above 2^k: brute force streams 2^20 words and keeps one residue
    "verify --family blcc --mod 1000000007 --b 491135474 --methods exact,brute --coeffs "
    "997012560,992107473,920294429,934873449,990464062,985325681,913625315,943946464,"
    "976898794,922733542,903621200,955233690,954591753,910067424,913857685,916787574,"
    "942834131,963673627,977935608,960317548",
    # brute force at its 2^24-tuple cap for one residue: a str.count per prefix and weight
    "verify --family vt --n 24 --b 3 --methods exact,brute",
    # every residue of a k = 24 modulus: one count per residue from the same grouped words
    "verify --family levenshtein --k 24 --n 5 --b all --methods exact,brute",
    # k = 24 at modulus 1000: the low words' residues are rotated by str.translate
    "verify --family blcc --mod 1000 --b 777 --methods exact,brute --coeffs "
    "730,393,860,597,187,224,172,199,174,687,699,94,723,776,155,826,724,291,742,945,785,14,452,479",
    # a modulus of 10^6 past k = 2's four low words: no rotated alphabet of 10^6 characters
    "verify --family blcc --coeffs 3,5 --mod 1000000 --b 8 --methods brute",
    # meeting in the middle: one residue of Helberg(36,2), modulus 63,245,985
    "enum --family helberg --k 36 --s 2 --b 0",
    # past the fold's packed-bit cap (1,346,268 rows of 29^2 bits): exit 4 before the
    # fold allocates
    "table --family helberg --k 28 --s 2 --b all",
    # --b all checks every modulus against the fold's cap before folding any:
    # k = 27 and k = 28 are over the packed-bit cap, so k = 26 is never folded
    "table --family helberg --k 26..28 --s 2 --b all",
    # past the float work bound (2.7e10 cells, about 35 minutes): SKIP before any table,
    # so only the closed form runs and the instance is unverified, exit 1
    "verify --family vt --n 3000 --b 0",
    # the closed form is the first exact route for n | k+1: VT(4095) is far past the fold's caps
    "enum --family vt --n 4095 --b 5",
    # every residue of eleven VT lengths past the fold's caps, one closed form per gcd class
    "table --family vt --quantity size --n 1000..1010 --b all",
    # 2^1099 passes the largest float: the svt float sum prints SKIP, not a traceback
    "verify --family svt --k 1100 --n 5 --b 0 --r 0",
    # the svt float sum reads cos and sin off the driver's phase table: two blocks
    # of 2^16 cells, and every call after the first a memo hit
    "verify --family svt --k 3 --n 40000 --b 0..1 --r both --methods float",
    # the svt float sum at its cell cap, 51 coefficients at n = 2^16: SKIP off integer
    "verify --family svt --k 51 --n 65536 --b 0 --r 0 --methods float",
    # a float stops resolving integers at 2^52: the float sum prints SKIP, not an
    # impossible enumerator's exit 3
    "verify --family levenshtein --k 60 --n 1 --b 0 --methods exact,float",
    # exact answers print past Python's 4300-digit limit: VT(30000)'s size has 9027 digits
    "table --family vt --quantity size --n 30000 --b 0",
    # the 4768-digit size of the ternary VT(10000) exited 3 on that limit
    "enum --family vt --n 10000 --b 0 --q 3",
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
    # a grid of several residues of a code folds it once: --b all, a --b range, --r both;
    # enum splits an svt base code's enumerator, here from the closed form, by parity
    "table --family helberg --quantity nt --k 10 --s 2 --b all",
    "table --family helberg --quantity size --k 14 --s 2 --b 0..5",
    "table --family svt --quantity size --k 12 --n 2k --b 3 --r both",
    "enum --family svt --k 9 --n 10 --b 3 --r 1 --format json",
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
    # the q-ary size builds no coefficients, yet reads its grid as the binary enum does
    "enum --family vt --n 0 --b 0 --q 3",
    "enum --family vt --n -1 --b 0 --q 3",
    "enum --family vt --n 5 --b 9 --q 3",
    # caps: exit 4, or a SKIP inside verify
    "enum --family helberg --k 60 --s 2 --b 0",
    "enum --family helberg --k 2000 --s 2 --b 0",
    "table --family helberg --k 30 --s 3 --b all",
    "verify --family blcc --coeffs 1,2 --mod 70000 --b 0 --methods exact,float",
    # the closed form's row of VT(300000), about 9e10 bits, is past its cap: exit 4
    # before the row is built, where it ended in a MemoryError traceback
    "enum --family vt --n 300000 --b 0",
    # the ternary VT(3e7) size is refused by a lower bound on its length before the
    # divisor sum, which took over 20 s, and before any coefficient is built
    "enum --family vt --n 30000000 --b 0 --q 3",
    # the same bound read as a bit length: no probe number is built, so VT(1e9)
    # stays small and a length near 2^63 is refused, not a MemoryError
    "enum --family vt --n 1000000000 --b 0 --q 3",
    "enum --family vt --n 9223372036854775806 --b 0 --q 3",
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


def command_lines() -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, make_jobs

    lines = [list(job.argv) for name in WORKLOADS for seed in (1, 11)
             for job in make_jobs(name, seed)]
    lines += [grid.split() for grid in GRIDS]
    unique = {tuple(argv): argv for argv in lines}  # first occurrence, in order
    return list(unique.values())


if __name__ == "__main__":
    entries = [outcome(argv) for argv in command_lines()]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} command lines to {GOLDEN.relative_to(ROOT)}")
