"""Exception types shared across the package."""


class ConeDSLError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(ConeDSLError):
    """Dimension mismatch when building expressions or matrices."""


class DCPError(ConeDSLError):
    """Raised when a problem or expression violates the composition rules.

    Carries an optional ``report`` attribute with the structured verdict so
    callers can render the violation path.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UnsupportedAtomError(ConeDSLError):
    """Raised when a known-but-unsupported atom is requested."""


class FactorizationError(ConeDSLError):
    """Raised when a matrix factorization fails (e.g. singular pivot)."""


class NumericError(ConeDSLError):
    """Raised when an iterative numeric routine fails to converge."""


class SchemaError(ConeDSLError):
    """Raised when serialized problem data violates the JSON schema."""


class InputError(ConeDSLError):
    """Raised for malformed user input (CLI parameters, file contents,
    non-finite constant data)."""
