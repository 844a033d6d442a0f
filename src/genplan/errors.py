"""Exception types shared across the toolkit."""

from contextlib import contextmanager


class GenplanError(Exception):
    """Base class for all toolkit errors."""


class MalformedInputError(GenplanError):
    """An input document lacks a field, has one of the wrong shape, or
    describes a problem that fails validation."""


@contextmanager
def decoding(what):
    """Report the KeyError, TypeError, ValueError or AttributeError raised
    while decoding a ``what`` document as a MalformedInputError."""
    try:
        yield
    except KeyError as exc:
        raise MalformedInputError(f"malformed {what}: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"malformed {what}: {exc}") from None


class UnavailableActionError(GenplanError):
    """An action was applied in a state where it is not available."""


class InvalidPolicyError(GenplanError):
    """A policy selected an unavailable action at a reached state."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotATrajectoryError(GenplanError):
    """A sequence failed the adjacency checks of the owning problem."""


class AlphabetMismatchError(GenplanError):
    """A word or formula used symbols outside the declared alphabet."""


class LtlParseError(GenplanError):
    """Syntax error in LTL text; carries the offending position."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class UnknownLetterError(LtlParseError):
    """A letter in an LTL formula is not part of the alphabet."""


class UnknownVariableError(GenplanError):
    """A numeric variable name is not declared in the ambient problem."""


class NotLtlExpressibleError(GenplanError):
    """A structural constraint has no LTL encoding within the size budget."""


class SizeBudgetExceededError(GenplanError):
    """An automaton construction exceeded the configured state budget."""


class InvalidClassError(GenplanError):
    """A problem class failed validation."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class QnpParseError(GenplanError):
    """Syntax error in QNP text."""


class QnpSemanticError(GenplanError):
    """A QNP violates a structural requirement (e.g. Inc and Dec on one variable)."""


class OutOfRangeError(GenplanError):
    """A chosen initial value is outside the declared descriptor."""


class BoundTooSmallError(GenplanError):
    """The truncation bound cannot contain the chosen initial values."""


class NotClosureEligibleError(GenplanError):
    """A QNP violates the assumptions of the commitment transformation."""

    def __init__(self, message, action=None):
        super().__init__(message)
        self.action = action
