"""The sweep memo: what the routes built for the last code asked about.

A sweep asks for every residue of one modulus in a row, and what a route
builds for it (a fold, gcd classes, float product rows, grouped brute-force
tuples) depends on the coefficients and the modulus, not on the residue. So
``sweep`` holds the values of one code, keyed by (coefficients, modulus),
one slot per route: "fold", "closed", "charsum", "svt", "bound" and
"brute", each a value that the route built. A route that keeps a new value
adds a slot here, not a memo of its own.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable


class Memo:
    """The values of one code by route; asking about another code drops them all."""

    __slots__ = ("_entry",)

    def __init__(self) -> None:
        self._entry: tuple[Hashable, dict] = (None, {})

    def values(self, code: Hashable) -> dict:
        """The route -> value dict of code, a new empty one when code is not the held code."""
        entry = self._entry  # one read, so a concurrent caller cannot swap it midway
        if entry[0] != code:
            self._entry = entry = code, {}  # the old values go before anything is built
        return entry[1]

    def get(self, code: Hashable, route: str, build: Callable[[], object]):
        """The value of route for code, else build()'s; a build that raises stores nothing."""
        values = self.values(code)
        if route not in values:
            values[route] = build()
        return values[route]


sweep = Memo()
