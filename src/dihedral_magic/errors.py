"""Exception types shared across the package."""


class ParseError(ValueError):
    """An element token or serialized document failed to parse."""


class SchemaError(ValueError):
    """A serialized rectangle set violates the JSON schema."""


class ShapeError(ValueError):
    """The input's dimensions do not fit the requested operation."""


class CoverError(ValueError):
    """An operation required an exact cover and the input lacks one;
    report is the CoverReport that showed it."""

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


class CapacityError(ValueError):
    """A size cap was exceeded (line length, group order, ...)."""


class BudgetExceededError(RuntimeError):
    """The search node budget ran out before the space was covered."""
