"""Exception hierarchy for innerorbit.

Every library error derives from InnerOrbitError so callers can catch the
whole family; the CLI maps subfamilies onto exit codes.
"""


class InnerOrbitError(Exception):
    """Base class for all innerorbit errors."""


class DimensionMismatch(InnerOrbitError):
    """Operands live on polydisks of different dimensions."""


class EvaluationOutsideDomain(InnerOrbitError):
    """A point lies outside the closed unit polydisk."""


class PoleHit(InnerOrbitError):
    """A Moebius denominator vanished; the input point is invalid."""


class ValidityError(InnerOrbitError):
    """A construction-time constraint was violated (|alpha| >= 1, |const| > 1, ...)."""


class NoBoundaryConvergence(InnerOrbitError):
    """Moduli of the automorphism parameters never approach the torus."""


class EmptySelection(InnerOrbitError):
    """No permutation repeats within the analysis horizon."""


class RootFindFailure(InnerOrbitError):
    """The corrector's phase misses its boundary value by more than 1e-10."""


class PinNotUnimodular(InnerOrbitError):
    """The approximant is not unimodular at the requested pin point."""


class RadiusOnZeroModulus(InnerOrbitError):
    """A quadrature radius coincides with the modulus of a zero."""


class ProjectionFailed(InnerOrbitError):
    """The projector could not reach the requested tolerance."""

    def __init__(self, achieved: float, requested: float):
        self.achieved = achieved
        self.requested = requested
        super().__init__(
            f"projection achieved {achieved:.17g}, requested {requested:.17g}"
        )


class UnsupportedTargetShape(InnerOrbitError):
    """Multivariate target is not of per-variable product form."""


class SequenceExhausted(InnerOrbitError):
    """No admissible stage index exists within the search horizon."""

    def __init__(self, message: str, best: dict | None = None):
        self.best = best or {}
        super().__init__(message)


class InterferenceBudgetExceeded(InnerOrbitError):
    """A new factor disturbs earlier stage images beyond its budget."""

    def __init__(self, message: str, values: dict | None = None):
        self.values = values or {}
        super().__init__(message)


class PrecisionExhausted(InnerOrbitError):
    """A stage's image compact reaches depth ``eta``, too close to the
    boundary for any corrector index up to ``cap``: it ``needed`` a larger
    one, or none suffices (None)."""

    def __init__(self, message: str, eta: float, needed: int | None, cap: int):
        self.eta, self.needed, self.cap = eta, needed, cap
        super().__init__(message)


class ParseError(InnerOrbitError):
    """Function-DSL syntax error with position information."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class ConfigError(InnerOrbitError):
    """Run configuration is missing, unreadable, or inconsistent."""
