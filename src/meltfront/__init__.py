"""meltfront: similarity solutions of one-phase melting problems.

A double fixed point solves the reduced problem: an inner Picard iteration
finds the temperature profile for a fixed front coefficient, and an outer
bracketed (ITP) root search finds the front coefficient itself.  Existence
hypotheses are certified numerically alongside every solve.
"""

__version__ = "0.1.0"

from .closed_form import ClosedFormSolution, dirichlet_constant, neumann_constant
from .coefficients import (
    BCKind,
    BoundaryCondition,
    DimensionlessProblem,
    Dirichlet,
    Neumann,
    Radiative,
    Robin,
    ThermalModel,
    build_dimensionless,
    constant_model,
    constant_problem,
    linear_model,
    linear_problem,
    load_coefficient_table,
    table_model,
    table_model_from_csv,
)
from .errors import (
    BracketError,
    ConfigError,
    ConvergenceError,
    KernelOverflowError,
    MeltfrontError,
)
from .existence import ExistenceReport, certify, lambda_bar
from .fixed_point import (
    InnerResult,
    apply_operator,
    contraction_bound,
    default_start,
    solve_profile,
)
from .kernels import (
    DEFAULT_GRID_N,
    KernelEnvelope,
    KernelEval,
    ProfileGrid,
    eval_kernels,
    kernel_bounds,
    lipschitz_constants,
)
from .lambda_solver import (
    DEFAULT_SETTINGS,
    Bracket,
    SolveReport,
    SolverSettings,
    bracket,
    front_flux_residual,
    solve_lambda,
    v_value,
)
from .pde_verifier import FrontFixedScheme, PdeDiscrepancy, verify
from .reconstruct import (
    PhysicalSolution,
    export_field_csv,
    export_front_csv,
    front_position,
    front_speed,
    physical_solution,
    stefan_residual,
    temperature_at,
)

__all__ = [
    "__version__",
    "BCKind",
    "BoundaryCondition",
    "DimensionlessProblem",
    "Dirichlet",
    "Neumann",
    "Robin",
    "Radiative",
    "ThermalModel",
    "build_dimensionless",
    "constant_model",
    "constant_problem",
    "linear_model",
    "linear_problem",
    "load_coefficient_table",
    "table_model",
    "table_model_from_csv",
    "ProfileGrid",
    "KernelEval",
    "KernelEnvelope",
    "DEFAULT_GRID_N",
    "eval_kernels",
    "kernel_bounds",
    "lipschitz_constants",
    "InnerResult",
    "default_start",
    "apply_operator",
    "solve_profile",
    "contraction_bound",
    "SolverSettings",
    "DEFAULT_SETTINGS",
    "Bracket",
    "SolveReport",
    "v_value",
    "bracket",
    "front_flux_residual",
    "solve_lambda",
    "ExistenceReport",
    "certify",
    "lambda_bar",
    "ClosedFormSolution",
    "dirichlet_constant",
    "neumann_constant",
    "PhysicalSolution",
    "physical_solution",
    "temperature_at",
    "front_position",
    "front_speed",
    "stefan_residual",
    "export_field_csv",
    "export_front_csv",
    "FrontFixedScheme",
    "PdeDiscrepancy",
    "verify",
    "MeltfrontError",
    "ConfigError",
    "ConvergenceError",
    "KernelOverflowError",
    "BracketError",
]
