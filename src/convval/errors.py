"""Exception types shared across the library."""


class ConvvalError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(ConvvalError):
    pass


class EmptyPolyhedron(ConvvalError):
    pass


class UnboundedPolyhedron(ConvvalError):
    pass


class SingularMatrix(ConvvalError):
    pass


class NotUnimodular(ConvvalError):
    pass


class NotCoercive(ConvvalError):
    pass


class EmptyDomain(ConvvalError):
    pass


class NotConvexMin(ConvvalError):
    """Pointwise minimum of two convex functions is not convex.

    Carries a witness point where the minimum exceeds the hull function.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"pointwise minimum is not convex (witness: {witness})")


class OriginNotInBody(ConvvalError):
    pass


class BudgetExceeded(ConvvalError):
    pass


class CertificateFailed(ConvvalError):
    """An exact certificate that a computed result must satisfy did not hold."""


class DocumentError(ConvvalError):
    """Malformed input document (bad schema, field, or rational literal)."""
