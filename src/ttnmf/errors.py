"""Exception types shared across the package, and the integer and real
checks of settings."""

import numbers
import operator


class TtnmfError(Exception):
    """Base class for package errors."""


class ConfigError(TtnmfError, ValueError):
    """Invalid configuration value (bad rank, lag set, split point, ...)."""


class ShapeError(TtnmfError, ValueError):
    """Matrix dimensions do not line up."""


class ParseError(TtnmfError, ValueError):
    """A data file could not be parsed."""


class ValidationError(TtnmfError, ValueError):
    """Parsed data violates a domain constraint (negative flow, non-binary routing)."""


class UsageError(TtnmfError, ValueError):
    """Bad command-line or API usage."""


class NumericalFailure(TtnmfError, RuntimeError):
    """Training or estimation produced a non-finite iterate."""

    def __init__(self, message, snapshot=None):
        super().__init__(message)
        self.snapshot = snapshot if snapshot is not None else {}


def integer(name, value) -> int:
    """value as an int if it is of an integer type (numpy's included); any
    other value, such as 2.5 or "2", raises ConfigError naming the setting."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def real(name, value) -> float:
    """value as a float if it is a real number (numpy's included); any other
    value, such as "0.2" or None, raises ConfigError naming the setting."""
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)
