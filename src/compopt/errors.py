"""Exception types shared across the package, and the integer test their raisers share."""

import numbers


def is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool, though an int, is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class CompoptError(Exception):
    """Base class for all package-specific errors."""


class InputError(CompoptError, ValueError):
    """Malformed user input: bad files, bad dimensions, bad flags."""


class ConfigError(CompoptError, ValueError):
    """Inconsistent or out-of-range algorithm configuration."""


class InfeasibleQueryError(CompoptError, ValueError):
    """A point outside the feasible box was passed where feasibility is required."""


class DivergenceError(CompoptError, RuntimeError):
    """A run produced a non-finite or exploding iterate and was aborted."""
