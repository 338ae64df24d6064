"""Independent finite-difference cross-check of a similarity solution.

The moving domain [0, s(t)] is immobilized with y = x / s(t), giving

    T_t = (k(T) T_y)_y / (gamma(T) s^2) + y (s'/s) T_y - mu(T) T_y / (gamma(T) sqrt(t) s)

on the fixed strip y in [0, 1], coupled to the front energy balance
s' = -k(T_m) T_y(1) / (s rho0 ell).  A linearised backward-Euler step with
centered space differences marches this from similarity initial data at t0:
k, rho*c, mu, the front speed and the face value are taken from the start of
each step, the interior rows are one tridiagonal solve, and the front moves
explicitly.  The solution is self-similar in log t, so the step is
dt = dy * t, which takes about n ln(t1/t0) steps.  Agreement with the
similarity field and front over [t0, t1] is a consistency check of the whole
pipeline, not an initial-value solver for t -> 0 (the similarity solution is
singular there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .coefficients import BCKind, BoundaryCondition, ThermalModel, eval_coefficient
from .errors import ConfigError, ConvergenceError
from .reconstruct import PhysicalSolution, front_position

__all__ = ["FrontFixedScheme", "PdeDiscrepancy", "verify"]


@dataclass(frozen=True)
class FrontFixedScheme:
    """Discretization of the front-fixed strip: n_space intervals, marched over [t0, t1]."""

    n_space: int = 200
    t0: float = 1.0
    t1: float = 2.0

    def __post_init__(self):
        if self.n_space < 8:
            raise ConfigError(f"need at least 8 space intervals, got {self.n_space}")
        if not (self.t0 > 0.0 and self.t1 >= self.t0):
            raise ConfigError(f"need 0 < t0 <= t1, got t0={self.t0}, t1={self.t1}")


@dataclass(frozen=True)
class PdeDiscrepancy:
    """Largest relative deviations of the marched field from the similarity solution."""

    s_rel_max: float
    s_rel_final: float
    T_rel_max: float
    steps: int
    t_final: float


def _face_temperature(bc: BoundaryCondition, model, T1, T2, T0_prev, dy, s, t):
    """Face value from the flux condition, one-sided second-order in y."""
    kind = bc.kind
    if kind is BCKind.DIRICHLET:
        return bc.T_star
    T0 = T0_prev
    for _ in range(8):
        k0 = float(eval_coefficient(model.k, np.asarray([T0]))[0])
        c = 2.0 * dy * s / (k0 * math.sqrt(t))
        if kind is BCKind.NEUMANN:
            new = (4.0 * T1 - T2 + c * bc.q) / 3.0
        elif kind is BCKind.ROBIN:
            new = (4.0 * T1 - T2 + c * bc.h * bc.T_star) / (3.0 + c * bc.h)
        else:
            # radiative: one Newton step on the quartic balance per sweep
            g = 3.0 * T0 - 4.0 * T1 + T2 + c * (bc.h * (T0 - bc.T_star) + bc.sigma * bc.epsilon * (T0**4 - bc.T_star**4))
            gp = 3.0 + c * (bc.h + 4.0 * bc.sigma * bc.epsilon * T0**3)
            new = T0 - g / gp
        if abs(new - T0) <= 1e-12 * max(1.0, abs(new)):
            T0 = new
            break
        T0 = new
    return T0


def verify(
    sol: PhysicalSolution,
    model: ThermalModel,
    bc: BoundaryCondition,
    scheme: FrontFixedScheme = FrontFixedScheme(),
) -> PdeDiscrepancy:
    """March the front-fixed scheme from similarity data at t0 and measure drift.

    Raises ConvergenceError if the field blows up (non-finite coefficients,
    growth beyond ten times the initial temperature range or non-finite values).
    """
    n = scheme.n_space
    y = np.linspace(0.0, 1.0, n + 1)
    dy = 1.0 / n

    t = scheme.t0
    s = front_position(sol, t)
    lam = sol.lambda_tilde
    alpha0 = sol.alpha0

    def similarity_T():
        xi = y * s / (2.0 * math.sqrt(alpha0 * t))
        return np.asarray(sol.temperature_of_f(sol.f_at(np.minimum(xi, lam))), dtype=float)

    T = similarity_T()
    T[-1] = bc.T_m
    amp = max(float(np.max(T) - np.min(T)), 1e-300)
    T_lo0, T_hi0 = float(np.min(T)), float(np.max(T))

    k_front = float(eval_coefficient(model.k, np.asarray([bc.T_m]))[0])
    rho_ell = model.rho0 * model.ell

    s_rel = s_rel_max = 0.0
    steps = 0
    banded = np.zeros((3, n - 1))

    def unstable():
        return ConvergenceError(
            f"front-fixed scheme unstable at step {steps} (t={t:.6g}): field range "
            f"[{np.min(T):.3g}, {np.max(T):.3g}] vs initial [{T_lo0:.3g}, {T_hi0:.3g}], s={s:.6g}"
        )

    def T_drift():
        return float(np.max(np.abs(T - similarity_T()))) / amp

    T_rel_max = T_drift()
    while t < scheme.t1 - 1e-15 * scheme.t1:
        dt = min(dy * t, scheme.t1 - t)

        k = eval_coefficient(model.k, T)
        gam = eval_coefficient(model.rho_c, T)
        mu = eval_coefficient(model.mu, T)
        if not all(np.isfinite(c).all() for c in (k, gam, mu)):
            raise unstable()

        sdot = -k_front * (T[-1] - T[-2]) / (dy * s * rho_ell)

        # rows i = 1..n-1 of (1 - dt A) T_new = T_old, with A the centered
        # diffusion and advection operator frozen at the start of the step
        kp = 0.5 * (k[1:-1] + k[2:])
        km = 0.5 * (k[1:-1] + k[:-2])
        diff = dt / (dy**2 * s**2 * gam[1:-1])
        adv = dt * (y[1:-1] * sdot / s - mu[1:-1] / (gam[1:-1] * math.sqrt(t) * s)) / (2.0 * dy)
        lower = -diff * km + adv
        upper = -diff * kp - adv
        banded[0, 1:] = upper[:-1]
        banded[1] = 1.0 + diff * (kp + km)
        banded[2, :-1] = lower[1:]
        rhs = T[1:-1].copy()
        rhs[0] -= lower[0] * T[0]
        rhs[-1] -= upper[-1] * T[-1]

        T0_prev = T[0]
        T[1:-1] = solve_banded((1, 1), banded, rhs, check_finite=False)
        s += dt * sdot
        t += dt
        T[-1] = bc.T_m
        T[0] = _face_temperature(bc, model, T[1], T[2], T0_prev, dy, s, t)
        steps += 1

        if not np.all(np.isfinite(T)) or np.max(T) - np.min(T) > 10.0 * amp or s <= 0.0:
            raise unstable()

        s_rel = abs(s - front_position(sol, t)) / front_position(sol, t)
        s_rel_max = max(s_rel_max, s_rel)
        T_rel_max = max(T_rel_max, T_drift())

    return PdeDiscrepancy(
        s_rel_max=s_rel_max,
        s_rel_final=s_rel,
        T_rel_max=T_rel_max,
        steps=steps,
        t_final=t,
    )
