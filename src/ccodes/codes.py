"""Code family descriptors.

Every family is normalized to one shape: the binary linear congruence code
with coefficients a_1..a_k, modulus n and residue b, meaning the set of
binary k-tuples c with

    a_1 c_1 + a_2 c_2 + ... + a_k c_k = b  (mod n).

The named constructors only differ in how they pick the coefficients and
the modulus:

  * Varshamov-Tenengolts VT_b(n): coefficients 1..n, modulus n+1.
  * Levenshtein L_b(k, n): coefficients 1..k, any modulus n.
  * Helberg H(k, s, b): coefficients from the recurrence
    v_i = 1 + v_{i-1} + ... + v_{i-s} (v_i = 0 for i <= 0), modulus v_{k+1}.
  * Shifted VT: a Levenshtein code intersected with a weight-parity class.

The coefficients and the modulus define the code, and the residue picks one
of its cosets, so the constructors are where a family's modulus rule lives.
A grid of residues builds its code once, at b = 0, and hands the residues
to that code's plans, so all of them read one coefficient tuple. A CodeSpec holds only these defining fields, so codes built by
different constructors compare equal when they define the same set: the s=1
Helberg code and the VT code of the same length are one spec.
"""

from __future__ import annotations

from ._record import Record

__all__ = [
    "CodeSpec",
    "ParityCodeSpec",
    "helberg_multipliers",
    "make_vt",
    "make_levenshtein",
    "make_helberg",
    "make_svt",
]


class CodeSpec(Record):
    """Defining data of one binary linear congruence code."""

    __slots__ = ("coefficients", "modulus", "residue")
    coefficients: tuple[int, ...]
    modulus: int
    residue: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if self.modulus < 1:
            raise ValueError(f"modulus {self.modulus} must be >= 1")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(
                f"residue {self.residue} not in [0, {self.modulus})"
            )

    @property
    def length(self) -> int:
        """Block length k."""
        return len(self.coefficients)


class ParityCodeSpec(Record):
    """A congruence code restricted to codewords of one Hamming-weight parity."""

    __slots__ = ("base", "parity")
    base: CodeSpec
    parity: int

    def __post_init__(self) -> None:
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0 (even weight) or 1 (odd weight)")


def make_vt(n: int, b: int) -> CodeSpec:
    """VT_b(n): coefficients 1..n, modulus n+1."""
    if n < 1:
        raise ValueError("VT length must be >= 1")
    return CodeSpec(range(1, n + 1), n + 1, b)


def make_levenshtein(k: int, n: int, b: int) -> CodeSpec:
    """L_b(k, n): coefficients 1..k, modulus n."""
    if k < 1:
        raise ValueError("length must be >= 1")
    return CodeSpec(range(1, k + 1), n, b)


def helberg_multipliers(k: int, s: int) -> tuple[int, ...]:
    """First k+1 values v_1..v_{k+1} of v_i = 1 + sum_{j=1}^s v_{i-j}.

    Values below index 1 count as zero. The sequence is strictly increasing
    and grows exponentially in k for s >= 2, so all arithmetic stays exact
    integer arithmetic.
    """
    if k < 1:
        raise ValueError("length must be >= 1")
    if s < 1:
        raise ValueError("deletion parameter s must be >= 1")
    vs: list[int] = []
    window = 0  # sum of the last min(s, len(vs)) values
    for i in range(1, k + 2):
        v = 1 + window
        vs.append(v)
        window += v
        if i > s:
            window -= vs[i - s - 1]
    return tuple(vs)


def make_helberg(k: int, s: int, b: int) -> CodeSpec:
    """Helberg code of length k for s deletions: coefficients v_1..v_k mod v_{k+1}.

    The residue must satisfy 0 <= b < v_{k+1}.
    """
    vs = helberg_multipliers(k, s)
    return CodeSpec(vs[:k], vs[k], b)


def make_svt(k: int, n: int, b: int, r: int) -> ParityCodeSpec:
    """Shifted VT code: L_b(k, n) restricted to weight parity r."""
    return ParityCodeSpec(make_levenshtein(k, n, b), r)
