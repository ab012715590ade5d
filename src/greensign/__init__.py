"""Green's-function sign analysis for second-order boundary value problems.

The pieces fit together in one pipeline: a potential a(t) on [0, T] plus a
boundary condition determine a kernel G(t, s); the spectrum of u'' + (a+l)u
decides the kernel's sign class; when G changes sign, the ratio of its
weighted positive and negative parts yields the constant gamma that drives
the existence hypotheses; a cone subinterval [c, d] supplies the companion
constants eta and sigma; and the solver turns kernels into solution profiles
for linear right-hand sides or fixed points of the Hammerstein map.
"""

from .cone import (ConeConstants, H2Verdict, H3Verdict, HypothesisReport,
                   Subinterval, build_report, check_H2, check_H3,
                   compute_cone_constants, cone_membership, find_subinterval,
                   max_kernel_value)
from .errors import (BracketingFailure, EvaluationFailure, ExpressionError,
                     GreensignError, IntegratorFailure, InvalidWeight,
                     NonpositiveEta, NonpositiveWeightedIntegral, NotPositive,
                     OutOfRange, QuadratureFailure, ResonantPotential,
                     UndeterminedSign, UnsupportedBoundaryKind)
from .expressions import Expression, evaluate_scalar
from .fundamental import FundamentalSolutions
from .gamma import (GammaResult, gamma_closed, gamma_dirichlet_closed,
                    gamma_dirichlet_t_closed, gamma_periodic_closed,
                    gamma_quadrature, gamma_star, pointwise_ratio)
from .greens import (DirichletConstantKernel, NumericKernel,
                     PeriodicConstantKernel, build_kernel)
from .potentials import (BoundaryKind, ConstantPotential, Interval,
                         SampledPotential, constant, sampled)
from .solver import (Positivity, SolutionProfile, VerificationRecord,
                     solve_linear, solve_nonlinear, verify_solution)
from .spectral import (EigenResult, SignClass, char_values, classify_sign,
                       principal_eigenfunction, smallest_eigenvalue,
                       smallest_eigenvalues)

__version__ = "0.1.0"

__all__ = [
    "BoundaryKind", "ConstantPotential", "Interval", "SampledPotential",
    "constant", "sampled",
    "FundamentalSolutions",
    "DirichletConstantKernel", "NumericKernel", "PeriodicConstantKernel",
    "build_kernel",
    "EigenResult", "SignClass", "char_values", "classify_sign",
    "principal_eigenfunction", "smallest_eigenvalue", "smallest_eigenvalues",
    "GammaResult", "gamma_closed", "gamma_dirichlet_closed",
    "gamma_dirichlet_t_closed", "gamma_periodic_closed", "gamma_quadrature",
    "gamma_star", "pointwise_ratio",
    "ConeConstants", "H2Verdict", "H3Verdict", "HypothesisReport",
    "Subinterval", "build_report", "check_H2", "check_H3",
    "compute_cone_constants", "cone_membership", "find_subinterval",
    "max_kernel_value",
    "Positivity", "SolutionProfile", "VerificationRecord", "solve_linear",
    "solve_nonlinear", "verify_solution",
    "Expression", "evaluate_scalar",
    "GreensignError", "ResonantPotential", "OutOfRange",
    "UnsupportedBoundaryKind", "IntegratorFailure", "BracketingFailure",
    "UndeterminedSign", "NotPositive", "QuadratureFailure",
    "NonpositiveWeightedIntegral", "InvalidWeight", "NonpositiveEta",
    "EvaluationFailure", "ExpressionError",
    "__version__",
]
