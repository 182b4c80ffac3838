"""Analytical contact solutions for a penny-shaped crack with a rigid inclusion.

Coefficient solvers for the disc and annulus pole-removal systems, field
evaluators (contact stress, crack-tip intensity factor, crack-face
displacement), and verifiers for the canonical boundary-matrix
factorizations and their partial indices.
"""

__version__ = "0.1.0"

from .factorization import (
    AnnulusFactorColumn,
    DiscFactorColumn,
    FitAmbiguityError,
    boundary_residual,
    eval_X_annulus,
    eval_X_disc,
    solve_factor_columns_annulus,
    solve_factor_columns_disc,
)
from .fields import (
    SifResult,
    continuity_defects,
    displacement,
    sif_asymptotic,
    sif_exact,
    stress_contact,
    stress_outer,
)
from .models import (
    AnnulusProblem,
    CoefficientSetAnnulus,
    CoefficientSetDisc,
    DiscProblem,
    SingularSystemError,
    solve_annulus_reduction,
    solve_disc_recurrence,
    solve_disc_reduction,
    system_residual,
)
from .specfun import (
    ConvergenceError,
    PoleError,
    f_m,
    f_m_limit,
    kernel_L,
    l_minus,
    l_plus,
    pochhammer,
)
from .verify import CheckResult, VerificationReport, run_verification

__all__ = [
    "__version__",
    "AnnulusFactorColumn",
    "AnnulusProblem",
    "CheckResult",
    "CoefficientSetAnnulus",
    "CoefficientSetDisc",
    "ConvergenceError",
    "DiscFactorColumn",
    "DiscProblem",
    "FitAmbiguityError",
    "PoleError",
    "SifResult",
    "SingularSystemError",
    "VerificationReport",
    "boundary_residual",
    "continuity_defects",
    "displacement",
    "eval_X_annulus",
    "eval_X_disc",
    "f_m",
    "f_m_limit",
    "kernel_L",
    "l_minus",
    "l_plus",
    "pochhammer",
    "run_verification",
    "sif_asymptotic",
    "sif_exact",
    "solve_annulus_reduction",
    "solve_disc_recurrence",
    "solve_disc_reduction",
    "solve_factor_columns_annulus",
    "solve_factor_columns_disc",
    "stress_contact",
    "stress_outer",
    "system_residual",
]
