"""Error taxonomy.

Every failure mode that callers are expected to handle gets its own
class.  ``exit_code`` is the process exit status the command line tool
uses when the error escapes: 1 for malformed or unsupported input,
2 for instances where a search or hypothesis genuinely fails, 3 for
verification failures and for InvariantViolated, an internal
consistency check that failed (a defect in sgen2, not in the input).
"""


class SgenError(Exception):
    exit_code = 1


class ConfigInvalid(SgenError):
    exit_code = 1


class NotMonic(SgenError):
    exit_code = 1


class Reducible(SgenError):
    exit_code = 1


class DatasheetRequired(SgenError):
    exit_code = 1


class DatasheetInvalid(SgenError):
    exit_code = 1


class DivisionByZero(SgenError):
    exit_code = 1


class IndexDivisor(SgenError):
    exit_code = 1


class UnitTooLarge(SgenError):
    """A real quadratic field whose fundamental unit has a coordinate of
    more than field.MAX_UNIT_DIGITS digits: out of the supported range,
    like a discriminant above field.MAX_QUADRATIC_DISCRIMINANT."""
    exit_code = 1


class NotInLattice(SgenError):
    exit_code = 1


class PrimeInS(SgenError):
    exit_code = 1


class CardinalityTooSmall(SgenError):
    exit_code = 2


class OrderBoundExceeded(SgenError):
    exit_code = 2


class BisectionBoundExceeded(SgenError):
    exit_code = 2


class HypothesisFails(SgenError):
    exit_code = 2


class SearchExhausted(SgenError):
    exit_code = 2


class NotStabilized(SgenError):
    exit_code = 2


class InconsistentCM(SgenError):
    exit_code = 2


class IdentityFailed(SgenError):
    exit_code = 3

    def __init__(self, message, instance=None):
        super().__init__(message)
        self.instance = instance


class VerificationFailure(SgenError):
    exit_code = 3


class InvariantViolated(SgenError):
    """An internal consistency check failed, such as the primes above p
    not multiplying back to (p)."""
    exit_code = 3
