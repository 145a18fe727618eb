"""Exception types raised across the package.

Every failure mode that callers are expected to handle has its own
class; anything else escaping an operation is a bug.
"""


class KW1Error(Exception):
    """Base class for all package errors."""


class DenominatorDivisibleByP(KW1Error):
    """A structure constant cannot be reduced mod p (denominator hits p)."""

    def __init__(self, constant, p):
        self.constant = constant
        self.p = p
        super().__init__(f"denominator of {constant} is divisible by p={p}")


class NotRestrictable(KW1Error):
    """The algebra admits no p-map, or its user-given p-map table is wrong."""


class CoefficientFieldMismatch(KW1Error):
    """Operands live over incompatible coefficient fields."""


class FactorialNotInvertible(KW1Error):
    """Symmetrization needs 1/d! but d! vanishes mod p."""

    def __init__(self, degree, p):
        self.degree = degree
        self.p = p
        super().__init__(f"{degree}! is not invertible in characteristic {p}")


class ZeroElement(KW1Error):
    """Operation undefined on the zero element."""


class CentralityFailure(KW1Error):
    """A p-center generator failed the exact centrality recheck."""

    def __init__(self, i, j):
        self.i = i
        self.j = j
        super().__init__(f"[x_{j}, xi_{i}] != 0: invalid p-map table")


class SelfCheckFailure(KW1Error):
    """An exact mathematical self-check failed: a bug, not a bad input."""


class WeightMismatch(KW1Error):
    """Numerator and denominator are not semi-invariant of equal weight."""


class DegreeBoundTooLargeForMemory(KW1Error):
    """The monomial count, or the bytes of the commutator or rank matrices, exceeds its cap."""

    def __init__(self, count, cap, unit="monomials"):
        self.count = count
        self.cap = cap
        super().__init__(f"{count} {unit} exceed the configured cap of {cap}")


class PrimeOutsideInt64Range(KW1Error):
    """p is too large for the int64 kernels to stay exact."""

    def __init__(self, p, largest):
        self.p = p
        self.largest = largest
        super().__init__(
            f"p={p} is above {largest}, the largest prime at which the int64 "
            "kernels are exact (p (p - 1) < 2^63)"
        )


class DimensionCap(KW1Error):
    """p^n exceeds the configured dimension cap for reduced algebras."""

    def __init__(self, dimension, cap):
        self.dimension = dimension
        self.cap = cap
        super().__init__(f"reduced algebra dimension {dimension} exceeds cap {cap}")


class SplitBudgetExceeded(KW1Error):
    """Module splitting ran out of its random-element budget."""


class ParseError(KW1Error):
    """Malformed input document."""

    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)


class DuplicateLabel(KW1Error):
    """A basis label occurs twice in an input document."""

    def __init__(self, label):
        self.label = label
        super().__init__(f"duplicate basis label {label!r}")


class JacobiError(KW1Error):
    """Input document defines brackets violating the Jacobi identity."""

    def __init__(self, triples):
        self.triples = tuple(triples)
        shown = ", ".join(str(t[:3]) for t in self.triples[:5])
        super().__init__(f"Jacobi identity fails at triples: {shown}")
