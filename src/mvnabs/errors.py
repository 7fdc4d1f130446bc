"""Exception and warning types shared across the package."""


class MvnError(Exception):
    """Base class for all errors raised by this package."""


class ModelValidationError(MvnError):
    """A model violates a structural invariant.

    Carries the full diagnostic list so callers can report every problem,
    not just the first one.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


def _at(message, line) -> str:
    """``message`` prefixed with its line, when there is one."""
    return message if line is None else f"line {line}: {message}"


class ParseError(MvnError):
    """A model or mapping document failed to parse, with a location."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(_at(message, line))


class MappingError(MvnError):
    """An abstraction mapping violates its invariants (totality,
    surjectivity, codomain size, or the requirement that at least one
    entity is properly compressed).  ``line`` is the line of the
    offending clause when the mapping is parsed from a document."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(_at(message, line))


class StructureMismatchError(MvnError):
    """Two models do not share entity names and neighbourhood wiring."""


class MappingMismatchError(MvnError):
    """An abstraction mapping does not connect the given pair of models
    (wrong source ranges, or targets that disagree with the abstract
    model's ranges)."""


class InfiniteTraceSetError(MvnError):
    """The asynchronous trace set is infinite, so it cannot be enumerated."""


class UnsupportedError(MvnError):
    """The brute-force oracle cannot decide this instance: the concrete
    trace set is infinite, or a trace set holds more than
    :data:`~mvnabs.traces.MAX_TRACES` lassos."""


class GammaOutOfClassError(MvnError):
    """A step term was requested for a state set that is not a nonempty
    subset of the abstract state's concrete class."""


class NotClosedError(MvnError):
    """A step-term family does not satisfy the nonempty-and-closed
    hypotheses required for witness construction."""


class ClassTooLargeError(MvnError):
    """A concrete class is too large for exhaustive step-term
    enumeration (the checker enumerates all nonempty subsets)."""


class StateSpaceTooLargeError(MvnError):
    """A model's state space exceeds the state budget of graph
    construction, so building its graph could exhaust memory."""


class TooManyTracesError(MvnError):
    """A model has more asynchronous traces than the budget of trace
    enumeration, so listing them could exhaust memory."""


class TooManyCandidatesError(MvnError):
    """A mapping admits more candidate abstract models than the budget
    of candidate enumeration."""


class NonMonotoneMappingWarning(UserWarning):
    """A state mapping is not order-preserving.  Permitted, but often a
    sign that levels were merged in a biologically odd way."""
