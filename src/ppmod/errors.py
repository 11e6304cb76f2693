"""Exception types raised by the calculus.

Every error that reflects bad mathematical input (rather than a negative
mathematical answer) is a subclass of :class:`PpmodError`.  Negative
answers -- an ordering that fails to hold, a non-pure map, a tensor that
is nonzero -- are returned as values, never raised.
"""

from __future__ import annotations


class PpmodError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(PpmodError):
    """Array shapes are inconsistent with the declared dimensions."""


class NonAssociative(PpmodError):
    """Structure constants fail associativity; carries a witness triple."""

    def __init__(self, triple: tuple[int, int, int], labels: tuple[str, ...]):
        self.triple = triple
        i, j, k = triple
        super().__init__(
            f"associativity fails on basis triple "
            f"({labels[i]}, {labels[j]}, {labels[k]})"
        )


class BadUnit(PpmodError):
    """The designated unit does not act as a two-sided identity."""


class NotARepresentation(PpmodError):
    """Action matrices do not satisfy the module law for the algebra."""


class SideMismatch(PpmodError):
    """A right-module object met a left-module object (or vice versa)."""


class AlgebraMismatch(PpmodError):
    """Objects over different algebras were combined."""


class NotGenerating(PpmodError):
    """A tuple was required to generate its module but does not.

    ``witness`` is an element outside the generated submodule.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__("tuple does not generate the module")


class NotASubmodule(PpmodError):
    """A subspace was required to be action-closed but is not."""


class ArityMismatch(PpmodError):
    """Formula arities (free-variable counts) disagree."""


class LengthMismatch(PpmodError):
    """Tuple lengths disagree with the required arity."""


class EmptyContext(PpmodError):
    """The operation needs generator modules but the context has none."""


class NoExplicitPairs(PpmodError):
    """Membership testing needs an explicit pair list; refuse rather than
    approximate when the context is given by generators only."""


class CapExceeded(PpmodError):
    """An enumeration would exceed its configured size cap."""


class NotInSolutionSet(PpmodError):
    """The supplied tuple does not satisfy the required formula."""


class ParseError(PpmodError):
    """Text could not be parsed; carries its workspace line number, if any.

    Command-line arguments have no line, and their message no prefix.
    """

    def __init__(self, line: int | None, message: str):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class UnknownReference(PpmodError):
    """A workspace section or command referenced an undefined name."""


class ValidationFailure(PpmodError):
    """A parsed workspace object failed mathematical validation."""
