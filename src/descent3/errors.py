"""Exception types shared across the package.

The CLI maps ValidationError to exit code 2, InconsistencyError to 3 and
FactorizationBudgetExceeded to 4.  A condition has a class of its own only
where a caller or a test tells it apart; every other one raises the base
class with a message that names the condition, which the CLI prints with
the class name.
"""


class DescentError(Exception):
    """Base class for all package errors."""


class ValidationError(DescentError):
    """Bad input; maps to CLI exit code 2."""


class InconsistencyError(DescentError):
    """An internal cross-check failed; maps to CLI exit code 3."""


# --- arithmetic layer ---

class ZeroInput(ValidationError):
    pass


class BadPrime(ValidationError):
    pass


class FactorizationBudgetExceeded(DescentError):
    """Factoring gave up within the effort budget; caller decides what to do."""


# --- seed construction ---

class NotSquarefree(ValidationError):
    pass


class DegenerateDiscriminant(ValidationError):
    pass


class GcdViolation(ValidationError):
    pass


# --- quadratic field layer ---

class FieldMismatch(ValidationError):
    pass


class NotOnNormEquation(ValidationError):
    pass


# --- cubic forms ---

class DiscriminantMismatch(ValidationError):
    pass


# --- Mordell curves / descent ---

class CurveMismatch(ValidationError):
    pass


class OffCurve(ValidationError):
    pass


class PreimageMissing(InconsistencyError):
    """psi' said the class is trivial but no rational lambda-preimage was found."""


# --- reporting ---

class PositiveDiscriminant(ValidationError):
    pass


class ExcludedDiscriminant(ValidationError):
    pass


class InconsistentInputs(ValidationError):
    pass
