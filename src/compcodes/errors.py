"""Exception types shared across the package."""


class CompCodesError(Exception):
    """Base class for all domain errors."""


class MissingClassError(CompCodesError):
    """A length class required for the computation is absent."""


class InconsistentReadoutError(CompCodesError):
    """Cumulative weights admit no valid pairwise-weight sequence.

    Raised instead of clamping: inconsistency is how corruption shows up.
    """


class UndecodableError(CompCodesError):
    """No codeword, or more than one, is consistent with the evidence."""

    def __init__(self, message, candidates=(), dropped_classes=()):
        super().__init__(message)
        self.candidates = tuple(candidates)
        self.dropped_classes = tuple(sorted(dropped_classes))


class CapabilityError(CompCodesError):
    """The readout is of a kind the called decoder does not take."""


class ResourceCapError(CompCodesError):
    """Requested exhaustive computation or search exceeds its cap."""


class InvalidErrorSpecError(CompCodesError):
    """An error description violates the channel model invariants."""


class InvalidSkewError(InvalidErrorSpecError):
    """A skew replacement does not lower the weight at equal length."""


class ParseError(CompCodesError, ValueError):
    """Malformed serialized input."""
