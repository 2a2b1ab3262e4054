"""A one-entry memo for residue sweeps.

A sweep asks for every residue of one modulus in a row, and what a route
builds for it (a fold, gcd classes, float product rows, grouped brute-force
tuples) depends on the coefficients and the modulus, not on the residue.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable


class Memo:
    """One (key, value) entry; a held value of None marks a key without one."""

    __slots__ = ("_entry",)

    def __init__(self) -> None:
        self._entry: tuple[Hashable, object] | None = None

    def get(self, key: Hashable, build: Callable[[], object]):
        """The value held under key, else build()'s; a build that raises leaves the memo empty."""
        entry = self._entry  # one read, so a concurrent caller cannot swap it midway
        if entry is None or entry[0] != key or entry[1] is None:
            self._entry = entry = None  # free the old value before building the next
            self._entry = entry = key, build()
        return entry[1]

    def peek(self) -> tuple[Hashable, object] | None:
        """The held (key, value), or None when empty."""
        return self._entry

    def mark(self, key: Hashable) -> None:
        """Hold key with no value, dropping the old entry; get builds it."""
        self._entry = key, None

    def clear(self) -> None:
        self._entry = None
