"""Exception types shared across the package, and the cell budget."""

DEFAULT_CELL_BUDGET = 10 ** 7


class FirmError(ValueError):
    """Base class for all errors raised by this package."""


class DataFormatError(FirmError):
    """Malformed input file (bad cell, ragged row, unknown symbol, ...)."""


class DegenerateFeatureError(FirmError):
    """Feature is constant (or otherwise unusable) on the given data."""


class BudgetExceededError(FirmError):
    """Requested table or weight vector is larger than the cell budget."""
