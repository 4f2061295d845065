"""Maximum-entropy self-trapped states of the two-dimensional Madelung fluid.

The package solves the nonlinear ODEs for the quantum potential of the most
likely free-particle state at fixed average energy, reconstructs the
self-trapped density on its finite support, computes every scalar observable
and the rotating stationary velocity field, and exposes the small-beta
(delta-like) and infinite-beta (sinc) limits, all behind a reproducible CLI.
"""

__version__ = "0.1.0"

from .analysis import (LimitReport, LimitRow, SweepResult, angular_velocity,
                       beta_sweep, density_on_grid, divergence_sup,
                       entropy_stationarity_check, invert_beta_for_energy,
                       limit_convergence, observables, sinc_limit,
                       velocity_field)
from .fields import Grid2D, ResidualNorms, assemble_2d, maxent_residual, rotate_grid
from .integrator import StopReason, integrate
from .model import (AxisProfile, FieldSample, LaplacianVariant, NoSolutionError,
                    Observables, OutOfSupportError, PhysicalParams, RadialProfile,
                    SincLimit, SolverError, SweepRow, ValidationError, make_params,
                    to_json)
from .solver import (Geometry, SolveRequest, resample, series_coefficient,
                     solve_cartesian_factor, solve_radial)

__all__ = [
    "__version__",
    # model
    "PhysicalParams", "make_params", "LaplacianVariant", "AxisProfile",
    "RadialProfile", "Observables", "SincLimit", "SweepRow",
    "FieldSample", "to_json",
    "ValidationError", "SolverError", "OutOfSupportError",
    "NoSolutionError",
    # integrator
    "StopReason", "integrate",
    # solver
    "Geometry", "SolveRequest", "solve_radial", "solve_cartesian_factor",
    "resample", "series_coefficient",
    # fields
    "Grid2D", "assemble_2d", "rotate_grid", "maxent_residual", "ResidualNorms",
    # analysis
    "observables", "angular_velocity", "velocity_field", "divergence_sup",
    "beta_sweep", "SweepResult", "sinc_limit", "limit_convergence",
    "LimitReport", "LimitRow", "invert_beta_for_energy",
    "entropy_stationarity_check", "density_on_grid",
]
