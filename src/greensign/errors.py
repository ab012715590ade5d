"""Exception types shared across the package."""


class GreensignError(Exception):
    """Base class for all library errors."""


class ResonantPotential(GreensignError):
    """The homogeneous problem admits a nontrivial solution, so no kernel exists."""


class OutOfRange(GreensignError, ValueError):
    """A parameter lies outside the domain of a closed-form expression."""


class UnsupportedBoundaryKind(GreensignError, ValueError):
    """The requested operation is not defined for this boundary condition."""


class IntegratorFailure(GreensignError):
    """The fundamental system integration produced non-finite values."""


class BracketingFailure(GreensignError):
    """Characteristic-function signs contradict the eigenvalue count of a bracket."""


class UndeterminedSign(GreensignError):
    """A decisive eigenvalue sits at zero within tolerance; no verdict is safe."""


class NotPositive(GreensignError):
    """A computed principal eigenfunction failed its interior positivity check."""


class QuadratureFailure(GreensignError):
    """A quadrature produced a non-finite value, or a sum that rounding
    cannot back."""


class NonpositiveWeightedIntegral(GreensignError):
    """The weighted kernel integral is not strictly positive at some node."""


class InvalidWeight(GreensignError, ValueError):
    """A weight function violates its nonnegativity requirement."""


class NonpositiveEta(GreensignError):
    """The candidate subinterval carries no positive kernel mass."""


class EvaluationFailure(GreensignError):
    """A user-supplied function returned a non-finite value."""


class ExpressionError(GreensignError, ValueError):
    """Malformed expression text passed to the parser."""
