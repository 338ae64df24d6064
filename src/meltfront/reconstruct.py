"""Physical temperature fields and the moving front from a similarity solution.

The dimensionless profile f on [0, lambda] maps back through the scaled
temperature map of the reduction, :func:`coefficients.temperature_of_f`, at
xi = x / (2 sqrt(alpha0 t)).  For a composed model (a table or Python-API
callables) a reconstructed temperature gives the reduced coefficients to
the last bit; constant and linear models reduce straight to their
dimensionless family, which matches within a few ulp.  The front follows
s(t) = 2 lambda sqrt(alpha0 t).  Queries beyond the front return None: the
one-phase model defines no temperature there.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator

from .coefficients import BoundaryCondition, ThermalModel, eval_coefficient, temperature_of_f
from .errors import ConfigError
from .kernels import MAX_NODES, ProfileGrid

__all__ = [
    "PhysicalSolution",
    "physical_solution",
    "temperature_at",
    "front_position",
    "front_speed",
    "stefan_residual",
    "export_field_csv",
    "export_front_csv",
]

# relative slack for "exactly at the front" queries
_FRONT_TOL = 1e-12


@dataclass(frozen=True)
class PhysicalSolution:
    """A solved similarity solution tied back to its dimensional data; lambda is ``profile.lam``."""

    alpha0: float
    bc: BoundaryCondition
    profile: ProfileGrid

    def __post_init__(self):
        if not self.alpha0 > 0.0:
            raise ConfigError("alpha0 must be positive")

    @cached_property
    def _interp(self) -> PchipInterpolator:
        # monotone piecewise cubic: keeps the profile monotone and gives
        # accurate derivative queries at the front
        return PchipInterpolator(self.profile.xi, self.profile.f, extrapolate=False)

    def f_at(self, xi):
        """Profile value at xi; at and beyond the front it is the front node value exactly."""
        lam = self.profile.lam
        # the interpolant evaluated at its right breakpoint can miss the node
        # value by an ulp, enough to leave [0, 1]
        return np.where(np.asarray(xi) >= lam, self.profile.f[-1], self._interp(np.clip(xi, 0.0, lam)))


def physical_solution(report, model: ThermalModel, bc: BoundaryCondition) -> PhysicalSolution:
    """Tie a SolveReport back to its dimensional model and boundary condition."""
    return PhysicalSolution(alpha0=model.alpha0, bc=bc, profile=report.profile)


def front_position(sol: PhysicalSolution, t: float) -> float:
    """s(t) = 2 lambda sqrt(alpha0 t)."""
    if t < 0.0:
        raise ConfigError(f"t must be non-negative, got {t}")
    return 2.0 * sol.profile.lam * math.sqrt(sol.alpha0 * t)


def front_speed(sol: PhysicalSolution, t: float) -> float:
    if not t > 0.0:
        raise ConfigError(f"front speed needs t > 0, got {t}")
    return sol.profile.lam * math.sqrt(sol.alpha0 / t)


def _similarity_variable(sol: PhysicalSolution, x, t: float):
    """xi = x / (2 sqrt(alpha0 t)) for a scalar or array x."""
    if not t > 0.0:
        raise ConfigError(f"temperature queries need t > 0, got {t}")
    return x / (2.0 * math.sqrt(sol.alpha0 * t))


def temperature_at(sol: PhysicalSolution, x: float, t: float) -> float | None:
    """Temperature at (x, t), or None beyond the front."""
    xi = _similarity_variable(sol, x, t)
    if x < 0.0:
        raise ConfigError(f"x must be non-negative, got {x}")
    if xi > sol.profile.lam * (1.0 + _FRONT_TOL):
        return None
    return float(temperature_of_f(sol.bc, sol.f_at(xi)))


def stefan_residual(sol: PhysicalSolution, model: ThermalModel, t: float) -> float:
    """Relative defect of the front energy balance k T_x + rho0 ell s_dot = 0 at time t.

    The face-side temperature gradient is taken by a one-sided three-point
    finite difference of the reconstructed field at the grid's own spacing,
    independent of the integral identities used by the solver.
    """
    s = front_position(sol, t)
    h = s * sol.profile.step / sol.profile.lam
    T0 = temperature_of_f(sol.bc, sol.f_at(sol.profile.lam))
    T1 = temperature_at(sol, s - h, t)
    T2 = temperature_at(sol, s - 2.0 * h, t)
    T_x = (3.0 * float(T0) - 4.0 * T1 + T2) / (2.0 * h)
    k_front = float(eval_coefficient(model.k, sol.bc.T_m))
    latent = model.rho0 * model.ell * front_speed(sol, t)
    return abs(k_front * T_x + latent) / latent


def export_field_csv(sol: PhysicalSolution, path: str | Path, times: Sequence[float], nx: int = 101) -> Path:
    """Write `x,t,T` rows over [0, s(t)] for each time (liquid region only)."""
    if nx < 0:
        raise ConfigError(f"nx must be non-negative, got {nx}")
    if nx > MAX_NODES:
        raise ConfigError(f"nx must be at most {MAX_NODES}, got {nx}")
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "t", "T"])
        for t in times:
            t = float(t)
            x = np.linspace(0.0, front_position(sol, t), nx)
            T = temperature_of_f(sol.bc, sol.f_at(_similarity_variable(sol, x, t)))
            writer.writerows([repr(float(xj)), repr(t), repr(float(Tj))] for xj, Tj in zip(x, T))
    return path


def export_front_csv(sol: PhysicalSolution, path: str | Path, times: Sequence[float]) -> Path:
    """Write `t,s` rows of the front trajectory."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "s"])
        for t in times:
            writer.writerow([repr(float(t)), repr(front_position(sol, float(t)))])
    return path
