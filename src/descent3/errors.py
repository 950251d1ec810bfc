"""Exception types shared across the package.

Every raisable condition gets its own class so callers (and the CLI exit-code
mapping) can tell validation failures apart from internal inconsistencies.
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


class CubeInput(ValidationError):
    pass


class NotOnNormEquation(ValidationError):
    pass


# --- cubic forms ---

class NotUnimodular(ValidationError):
    pass


class ReducibleForm(ValidationError):
    pass


class ZeroDiscriminant(ValidationError):
    pass


class DiscriminantMismatch(ValidationError):
    pass


class CountNotOfExpectedShape(InconsistencyError):
    """Class count is not (3^r - 1)/2 for any r >= 0."""


# --- Mordell curves / descent ---

class CurveMismatch(ValidationError):
    pass


class OffCurve(ValidationError):
    pass


class KernelXZero(ValidationError):
    pass


class TorsionImage(ValidationError):
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
