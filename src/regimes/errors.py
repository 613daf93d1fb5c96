"""Exception hierarchy shared by all regimes modules."""


class RegimesError(Exception):
    """Base class for all errors raised by this package."""


class InputError(RegimesError):
    """Bad arguments to an operation (unknown identifiers, overlapping sets)."""


class ModelError(RegimesError):
    """A diagram or table violates a structural invariant."""


class PolicyError(RegimesError):
    """A strategy is malformed or incompatible with the diagram."""


class CapacityError(RegimesError):
    """The requested computation exceeds the desk-scale size guards."""


class PositivityError(RegimesError):
    """A required observational conditional is undefined on a live history."""

    def __init__(self, history):
        self.history = tuple(history)
        super().__init__(f"undefined observational conditional at history {self.history}")


class ParseError(ModelError):
    """Syntax or validation failure in a model document, with position."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
