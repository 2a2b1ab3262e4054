"""Exceptions shared across the package."""


class CongruenceCodeError(Exception):
    """Base class for every error this package raises on purpose."""


class NonExactDivision(CongruenceCodeError):
    """A division that must come out exact left a remainder.

    The closed-form counting expressions all end in a division that is
    guaranteed to be exact for valid inputs, so seeing this exception
    means a formula was fed garbage or is implemented wrong.
    """


class IntegralityFailure(CongruenceCodeError):
    """A floating-point evaluation strayed too far from the nearest integer."""


class CapExceeded(CongruenceCodeError):
    """A route was asked to go beyond its safety cap, a limit and not a bug.

    The caps bound brute-force tuples; the packed bits of the residue fold,
    and of each half when meeting in the middle; the bits of the closed
    form's row; the modulus and the n·k·rows cells of the float routes; and
    the decimal digits the CLI prints. Each is checked before the route
    allocates or the output starts.
    """


class OutOfDomain(CongruenceCodeError):
    """A route was asked about an instance its formula does not cover.

    The closed form covers only the codes whose coefficients reduce to
    1..k mod n with n dividing k + 1; the message says which condition fails.
    """


class InvariantViolation(CongruenceCodeError):
    """An exact computation broke an identity that holds for every input.

    Seeing this exception means a bug in the package, never bad input.
    """
