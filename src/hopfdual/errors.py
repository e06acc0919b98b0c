"""Exception types shared across the library."""


class HopfdualError(Exception):
    """Base class for all errors raised by this library."""


class DimensionMismatch(HopfdualError):
    """Vector or matrix dimensions do not match the declared modules."""


class RingMismatch(HopfdualError):
    """Operands live over different coefficient rings."""


class NotInvertible(HopfdualError):
    """A square map has no two-sided inverse over the coefficient ring."""

    def __init__(self, message: str, determinant=None):
        super().__init__(message)
        self.determinant = determinant


class NotConvInvertible(HopfdualError):
    """A map has no two-sided convolution inverse.

    ``reason`` is ``"no_right_inverse"`` when f*x = unit has no solution and
    ``"one_sided"`` when a right inverse exists but fails the left check.
    """

    def __init__(self, message: str, reason: str = "no_right_inverse", flags=None):
        super().__init__(message)
        self.reason = reason
        self.flags = flags


class SideMismatch(HopfdualError):
    """A subalgebra of the dual was declared for the wrong module side."""


class NotUnital(HopfdualError):
    """The requested product has no unity (the cocycle is not normal)."""


class AssociativityMismatch(HopfdualError):
    """Direct associativity checking disagrees with the cocycle flags."""


class CoinvariantEscape(HopfdualError):
    """A value that must lie in the coinvariant subalgebra does not."""


class CommutativityFailure(HopfdualError):
    """A diagram that must commute does not; carries a witness element."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class UnknownEntry(HopfdualError):
    """No catalog entry with the requested name."""


class ParseError(HopfdualError):
    """An instance file is not syntactically valid."""


class ValidationError(HopfdualError):
    """An instance file is syntactically valid but semantically broken."""
