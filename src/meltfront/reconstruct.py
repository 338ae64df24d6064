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

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

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
    def _pchip(self) -> tuple[np.ndarray, ...]:
        """Nodes and per-interval cubic coefficients (highest power first) of the PCHIP interpolant.

        The monotone piecewise cubic of Fritsch and Carlson keeps the profile
        monotone.  Slopes and coefficients are formed in the operation order
        of scipy's ``PchipInterpolator``, so its values match scipy's bit for bit.
        """
        x, y = self.profile.xi, self.profile.f
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.empty_like(y)
        if m.size == 1:
            d[:] = m  # two nodes: the line through them
        else:
            # interior: zero at a sign change or a flat neighbour, else the weighted harmonic mean
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
            w1 = 2.0 * h[1:] + h[:-1]
            w2 = h[1:] + 2.0 * h[:-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            d[0] = _end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        return x, t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]

    def f_at(self, xi):
        """Profile value at xi; at and beyond the front it is the front node value exactly."""
        lam = self.profile.lam
        x, c0, c1, c2, c3 = self._pchip
        q = np.clip(xi, 0.0, lam)
        k = np.clip(np.searchsorted(x, q, side="right") - 1, 0, c3.size - 1)
        s = q - x[k]
        s2 = s * s
        # summed as scipy's compiled evaluator sums; the leading 0.0 turns a -0.0 into 0.0 as it does
        cubic = 0.0 + c3[k] + c2[k] * s + c1[k] * s2 + c0[k] * (s2 * s)
        # the cubic evaluated at its right breakpoint can miss the node value
        # by an ulp, enough to leave [0, 1]
        return np.where(np.asarray(xi) >= lam, self.profile.f[-1], cubic)


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point end derivative, zeroed or capped at 3 m0 to keep the end monotone."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


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
    """Write `x,t,T` rows over [0, s(t)] for each time (liquid region only); nothing is written on a bad time."""
    if nx < 0:
        raise ConfigError(f"nx must be non-negative, got {nx}")
    if nx > MAX_NODES:
        raise ConfigError(f"nx must be at most {MAX_NODES}, got {nx}")
    rows = ["x,t,T\r\n"]
    for t in map(float, times):
        x = np.linspace(0.0, front_position(sol, t), nx)
        T = temperature_of_f(sol.bc, sol.f_at(_similarity_variable(sol, x, t)))
        rows.extend(f"{xj!r},{t!r},{Tj!r}\r\n" for xj, Tj in zip(x.tolist(), T.tolist()))
    path = Path(path)
    path.write_text("".join(rows), newline="")
    return path


def export_front_csv(sol: PhysicalSolution, path: str | Path, times: Sequence[float]) -> Path:
    """Write `t,s` rows of the front trajectory."""
    text = "t,s\r\n" + "".join(f"{t!r},{front_position(sol, t)!r}\r\n" for t in map(float, times))
    path = Path(path)
    path.write_text(text, newline="")
    return path
