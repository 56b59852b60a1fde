"""Exception taxonomy shared by every module.

Errors that reject an input carry enough structure (line numbers,
observed counts) for callers to build machine-readable reports.
"""


class FqsimError(Exception):
    """Base class for all errors raised by this package."""


# --- field construction and arithmetic ---

class NotPrime(FqsimError):
    """Requested field order is composite."""


class TooLarge(FqsimError):
    """Requested field order exceeds the 32-bit ceiling."""


class FieldMismatch(FqsimError):
    """Binary operation mixed elements of fields with different order."""


class DivisionByZero(FqsimError):
    """Division or inversion of the zero element."""


class EvenFieldUnsupported(FqsimError):
    """Residue or root operation attempted over F_2."""


class NoRoot(FqsimError):
    """m-th root requested for an element outside the m-th powers."""


class ScanCapExceeded(FqsimError):
    """Root extraction would require scanning a field above the cap."""


# --- geometry and group enumeration ---

class DimensionMismatch(FqsimError):
    """Vectors or matrices of incompatible dimension combined."""


class EnumerationCapExceeded(FqsimError):
    """Requested enumeration is larger than its fixed budget."""


class NotInSpace(FqsimError):
    """Point looked up in a point set, such as a group's space, that lacks it."""


# --- intersection engine ---

class SpaceMismatch(FqsimError):
    """Point set is not contained in the space the group acts on."""


class NotTransitive(FqsimError):
    """Operation requires a transitive action and the action has several orbits."""


# --- configuration finders ---

class NotASquare(FqsimError):
    """Dilation ratio is not a quadratic residue."""


class NotADthPower(FqsimError):
    """Dilation ratio is not a d-th power."""


class ZeroDilation(FqsimError):
    """Dilation ratio zero collapses every configuration to a point."""


class OriginInSet(FqsimError):
    """Determinant-similarity search requires the origin to be excluded."""


class NotOnSphere(FqsimError):
    """Supplied point set is not contained in the requested sphere."""


class InsufficientIntersection(FqsimError):
    """Best intersection too small to extract the requested tuple.

    Carries the observed maximum so callers can report how far short
    the search fell.
    """

    def __init__(self, needed: int, best_count: int):
        self.needed = needed
        self.best_count = best_count
        super().__init__(
            f"needed an intersection of size {needed}, best achievable is {best_count}"
        )


class VerificationFailed(FqsimError):
    """A freshly constructed witness failed its own independent re-check.

    This indicates an internal inconsistency and should never occur.
    """

    def __init__(self, reasons):
        self.reasons = tuple(reasons)
        super().__init__("witness verification failed: " + "; ".join(self.reasons))


class MalformedWitness(FqsimError):
    """Witness JSON that does not match the documented schema."""


# --- harness I/O ---

class ParseError(FqsimError):
    """Point-set file line that cannot be parsed at all."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class HeaderMismatch(ParseError):
    """Point-set file line inconsistent with its declared q and d."""


class TooMany(FqsimError):
    """More sample points requested than the space contains."""


class SpaceTooLarge(FqsimError):
    """Sampling asked of a space of more than 2^64 points, past what one
    64-bit draw covers."""
