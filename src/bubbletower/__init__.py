"""Numerical laboratory for sign-changing bubble-tower equilibria of the
critical heat equation on thin annuli: stationary profiles by shooting plus
Newton refinement, spectral analysis of the linearization, the matching
limit problem on balls, and parabolic flow runs with blow-up detection.
"""
from .errors import IntegratorFailure, SolverError
from .flow import (
    FlowConfig,
    FlowResult,
    comparison_monitor,
    energy,
    evolve,
    find_onesided_window,
    find_separation_time,
    lambda_sweep,
    linearized_evolve,
    subsupersolution_residual,
)
from .mesh import (
    RadialField,
    RadialGrid,
    apply_radial_laplacian,
    build_grid,
    integrate_weighted,
    norms,
)
from .params import ProblemParams, bubble_amplitude, critical_exponent, sphere_area
from .profile import (
    Bubble,
    bubble_eval,
    bubble_linearization,
    ef_peak_height,
    emden_fowler_transform,
    extract_concentrations,
)
from .spectral import (
    EigenPair,
    LinearizedOperator,
    assemble_linearized,
    assemble_operator,
    eigenvalue_k,
    first_eigenpair,
    limit_eigenpair,
    limit_overlap,
    limit_scan,
    scaled_eigenfunction_distance,
    scaled_eigenvalue_diagnostic,
    sign_condition,
)
from .stationary import (
    StationarySolution,
    find_nodal_solution,
    shoot,
    stationary_residual,
    verify_scaling_law,
)

__version__ = "0.1.0"

__all__ = [
    "Bubble",
    "EigenPair",
    "FlowConfig",
    "FlowResult",
    "IntegratorFailure",
    "LinearizedOperator",
    "ProblemParams",
    "RadialField",
    "RadialGrid",
    "SolverError",
    "StationarySolution",
    "apply_radial_laplacian",
    "assemble_linearized",
    "assemble_operator",
    "bubble_amplitude",
    "bubble_eval",
    "bubble_linearization",
    "build_grid",
    "comparison_monitor",
    "critical_exponent",
    "ef_peak_height",
    "eigenvalue_k",
    "emden_fowler_transform",
    "energy",
    "evolve",
    "extract_concentrations",
    "find_nodal_solution",
    "find_onesided_window",
    "find_separation_time",
    "first_eigenpair",
    "integrate_weighted",
    "lambda_sweep",
    "limit_eigenpair",
    "limit_overlap",
    "limit_scan",
    "linearized_evolve",
    "norms",
    "scaled_eigenfunction_distance",
    "scaled_eigenvalue_diagnostic",
    "shoot",
    "sign_condition",
    "sphere_area",
    "stationary_residual",
    "subsupersolution_residual",
    "verify_scaling_law",
]
