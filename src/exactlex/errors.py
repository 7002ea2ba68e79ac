"""Exception types shared across the package."""


class ExactLexError(ValueError):
    """Base class for all domain errors raised by this package."""


class EmptyTableError(ExactLexError):
    """Raised when all four cells of a contingency table are zero."""


class NegativeCountError(ExactLexError):
    """Raised when a contingency table cell is negative."""


class InvalidParameterError(ExactLexError):
    """Raised when a sampling model or simulation parameter is outside its domain."""


class InfeasibleMarginalsError(ExactLexError):
    """Raised when a requested marginal total exceeds the sample size."""


class DegenerateTableError(ExactLexError):
    """Raised by asymptotic tests when a zero marginal makes an expected count zero."""


class UndefinedStatisticError(ExactLexError):
    """Raised when a statistic's formula divides by zero (e.g. t with n11 = 0)."""


class NoObservationsError(ExactLexError):
    """Raised when an association scan is requested for a word absent from the corpus."""


class IngestionError(ExactLexError):
    """Raised when input text cannot be decoded; message names the byte offset."""
