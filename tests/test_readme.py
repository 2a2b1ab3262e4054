"""README's command examples: each `$ ccodes ...` line of its code blocks, run through cli.main.

The lines below a command, up to the next command or the end of its block,
are its stdout and stderr; a `...` line stands for any lines in between.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from ccodes import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def examples() -> list[tuple[str, list[str]]]:
    """(command line, expected lines) of each example, in README order."""
    found, block = [], None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            block = None if block is not None else []
        elif block is not None and line.startswith("$ ccodes "):
            found.append((line[len("$ ccodes "):], []))
            block = found[-1][1]
        elif block is not None and not line.startswith("$ "):
            block.append(line)
    return [(command, "\n".join(lines).strip("\n").split("\n")) for command, lines in found]


EXAMPLES = examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 11


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_holds(command, expected):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cli.main(shlex.split(command))
    got = (out.getvalue() + err.getvalue()).splitlines()
    if "..." in expected:
        cut = expected.index("...")
        head, tail = expected[:cut], expected[cut + 1:]
        assert got[:len(head)] == head and got[len(got) - len(tail):] == tail, got
        assert len(got) >= len(head) + len(tail)
    else:
        assert got == expected
