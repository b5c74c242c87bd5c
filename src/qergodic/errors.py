"""Exception hierarchy for the qergodic package."""


class QergodicError(Exception):
    """Base class for all errors raised by this package."""


# --- input validation ---------------------------------------------------


class ValidationError(QergodicError):
    """Invalid chain data."""


class NegativeEntry(ValidationError):
    pass


class RowSumExceedsOne(ValidationError):
    pass


class NotADistribution(ValidationError):
    pass


class NotTransient(ValidationError):
    """Some closed communicating class has no path to absorption."""


class ShapeMismatch(ValidationError):
    pass


class ParseError(ValidationError):
    pass


# --- numerics -----------------------------------------------------------


class NumericalError(QergodicError):
    pass


class SurvivalUnderflow(NumericalError):
    """Survival probability is numerically zero; conditioning impossible."""


class NoConvergence(NumericalError):
    pass


class NoSurvivors(NumericalError):
    """No Monte Carlo trajectory survived past the requested horizon."""


class AmbiguousRhoClasses(NumericalError):
    """Perron-root equality classes are not transitive at the given tolerance."""


class GammaOverflow(NumericalError):
    """A composition count exceeds the machine integer range."""


# --- structure / paths --------------------------------------------------


class StructureError(QergodicError):
    pass


class NotIrreducible(StructureError):
    pass


class BlockNotOnPath(StructureError):
    pass


class PathExplosion(StructureError):
    """The admissible-path set exceeds the configured cap."""


class EmptyFamily(StructureError):
    """No admissible path carries initial mass (defensive; unreachable for valid pi)."""


class NotScalarChain(StructureError):
    pass


class NotSinglePath(StructureError):
    pass


class AssumptionViolation(QergodicError):
    """The closed-form limit is not certified; carries the assumption report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
