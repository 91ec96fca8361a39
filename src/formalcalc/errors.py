"""Exception types shared across the package."""

_JSON_KINDS = {dict: "object", list: "array", str: "string", int: "integer"}


def json_shape(value, kind, what):
    """value, refused with a ValueError unless it is of the given JSON
    kind (dict, list, str or int, which takes no bool); readers of JSON
    input check each value before they look inside it."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError("%s must be a JSON %s, got %r"
                         % (what, _JSON_KINDS[kind], value))
    return value


class FormalcalcError(Exception):
    """Base class for all package errors."""


class DomainMismatchError(FormalcalcError):
    """Operands live over different base spaces or different open sets."""


class TruncationError(FormalcalcError):
    """A formal function's guaranteed order is too small for the operation."""


class SupportError(FormalcalcError):
    """A support witness escapes the region an operation requires."""


class BackendError(FormalcalcError):
    """Operation not available on this base backend."""


class QuadratureError(FormalcalcError):
    """Adaptive integration failed to converge within its budget."""


class CertificateError(FormalcalcError):
    """A positivity certificate for a denominator could not be established."""


class ScenarioError(FormalcalcError):
    """A scenario file is malformed or internally inconsistent."""


class IncompatibilityError(FormalcalcError):
    """A family of local sections fails a compatibility precondition.

    Carries the indices of the offending pair, the probe that exposed
    the mismatch, and the residual magnitude.
    """

    def __init__(self, message, first=None, second=None, probe=None,
                 residual=None):
        super().__init__(message)
        self.first = first
        self.second = second
        self.probe = probe
        self.residual = residual
