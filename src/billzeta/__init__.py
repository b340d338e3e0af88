"""Spectral zeta functions of rational order for heterogeneous quantum billiards.

Z(s) = sum_n E_n^{-s} is computed to second order in the density perturbation
by three mutually validating perturbative routes (a shared closed form and two
trace decompositions over fractional-order Green's function coefficients) and
checked against a brute-force generalized-eigenproblem oracle.
"""

from .basis import (
    FourierCosine,
    ModeBasis,
    Polynomial,
    Rectangle2D,
    Separable2D,
    SigmaPowerTable,
    String1D,
    Tabulated,
    build_sigma_table,
)
from .coefficients import (
    GreenCoefficientSet,
    Q_trace_terms,
    build_Q_series,
    q_generic_recursion,
    trace_terms,
    verify_convolution,
)
from .errors import (
    BillzetaError,
    ConfigError,
    FactorizationError,
    InsufficientDataError,
    NumericalError,
    ValidationError,
)
from .oracle import convergence_order_fit, solve_spectrum
from .sumrules import (
    RationalOrderSpec,
    SumRuleResult,
    tail_estimate,
    z_closed_form,
    z_via_trace,
)

__version__ = "0.1.0"

__all__ = [
    "BillzetaError",
    "ConfigError",
    "FactorizationError",
    "FourierCosine",
    "GreenCoefficientSet",
    "InsufficientDataError",
    "ModeBasis",
    "NumericalError",
    "Polynomial",
    "Q_trace_terms",
    "RationalOrderSpec",
    "Rectangle2D",
    "Separable2D",
    "SigmaPowerTable",
    "String1D",
    "SumRuleResult",
    "Tabulated",
    "ValidationError",
    "build_Q_series",
    "build_sigma_table",
    "convergence_order_fit",
    "q_generic_recursion",
    "solve_spectrum",
    "tail_estimate",
    "trace_terms",
    "verify_convolution",
    "z_closed_form",
    "z_via_trace",
]
