"""Exception types shared across the package: one class per exit code.

The CLI maps ValidationError to exit code 2, InconsistencyError to 3 and
BudgetExceeded to 4, and prints the class name with the message.  No
caller tells two conditions of one exit code apart, so every raise site
names its condition in the message.
"""


class DescentError(Exception):
    """Base class for all package errors."""


class ValidationError(DescentError):
    """Bad input; maps to CLI exit code 2."""


class InconsistencyError(DescentError):
    """An internal cross-check failed; maps to CLI exit code 3."""


class BudgetExceeded(DescentError):
    """A computation gave up within its budget; maps to CLI exit code 4."""
