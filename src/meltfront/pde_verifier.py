"""Independent finite-difference cross-check of a similarity solution.

The moving domain [0, s(t)] is immobilized with y = x / s(t), giving

    T_t = (k(T) T_y)_y / (gamma(T) s^2) + y (s'/s) T_y - mu(T) T_y / (gamma(T) sqrt(t) s)

on the fixed strip y in [0, 1], coupled to the front energy balance
s' = -k(T_m) T_y(1) / (s rho0 ell).  A linearised backward-Euler step with
centered space differences marches this from similarity initial data at t0:
k, rho*c, mu, the front speed and the face value (the condition's
``face_temperature``) are taken from the start of each step, the interior
rows are one tridiagonal solve, and the front moves explicitly.  The
solution is self-similar in log t, so the step is dt = dy * t, which takes
about n ln(t1/t0) steps.  Agreement with the
similarity field and front over [t0, t1] is a consistency check of the whole
pipeline, not an initial-value solver for t -> 0 (the similarity solution is
singular there).  A step allocates nothing: k, rho*c and mu are written into
one buffer by ``ThermalModel.coefficients_into`` (one theta(T) for a linear
family), and the half-node conductivities and the rows of the system are
filled in place, in the operation order of the formulas.  The steps only
march: the marched fields are held in blocks of up to 8,192 values, so that
each temporary of the comparison stays under 128 KiB, and compared with the
similarity field one block at a time, with the same arithmetic per value as
a comparison after each step.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .coefficients import BoundaryCondition, ThermalModel, eval_coefficient, temperature_of_f
from .errors import ConfigError, ConvergenceError
from .kernels import MAX_NODES
from .reconstruct import PhysicalSolution, front_position

__all__ = ["FrontFixedScheme", "PdeDiscrepancy", "verify"]

# values per block of marched fields held for the drift comparison
_BLOCK_VALUES = 8_192


def dgtsv(dl, d, du, b, **kwargs):
    """LAPACK's tridiagonal solve, scipy's ``dgtsv``; scipy is imported on the first call."""
    import scipy.linalg.lapack  # after the first call, a lookup in sys.modules

    return scipy.linalg.lapack.dgtsv(dl, d, du, b, **kwargs)


@dataclass(frozen=True)
class FrontFixedScheme:
    """Discretization of the front-fixed strip: ``nodes`` intervals, marched over [t0, t1]."""

    nodes: int = 200
    t0: float = 1.0
    t1: float = 2.0

    def __post_init__(self):
        if self.nodes < 8:
            raise ConfigError(f"need at least 8 space intervals, got {self.nodes}")
        # from a subnormal t0 the first step dt = dy * t0 rounds to 0 or a few ulps
        if not sys.float_info.min <= self.t0 <= self.t1:
            raise ConfigError(f"need {sys.float_info.min!r} <= t0 <= t1 (t0 a normal float), "
                              f"got t0={self.t0}, t1={self.t1}")
        if not self.t1 < math.inf:
            raise ConfigError(f"need a finite t1, got t1={self.t1}")
        if self.nodes > MAX_NODES:
            raise ConfigError(f"need at most {MAX_NODES} space intervals, got {self.nodes}")


@dataclass(frozen=True)
class PdeDiscrepancy:
    """Largest relative deviations of the marched field from the similarity solution."""

    s_rel_max: float
    s_rel_final: float
    T_rel_max: float
    steps: int
    t_final: float


def _similarity_T(sol: PhysicalSolution, y, s, t):
    """Similarity temperature at the strip nodes y for front s at time t (scalars, or columns of a block)."""
    xi = y * s / (2.0 * np.sqrt(sol.alpha0 * t))
    return temperature_of_f(sol.bc, sol.f_at(xi))


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
    n = scheme.nodes
    y = np.linspace(0.0, 1.0, n + 1)
    y_in = y[1:-1]
    dy = 1.0 / n

    t = scheme.t0
    s = front_position(sol, t)

    T = _similarity_T(sol, y, s, t)
    T[-1] = bc.T_m
    amp = max(float(np.max(T) - np.min(T)), 1e-300)
    T_lo0, T_hi0 = float(np.min(T)), float(np.max(T))

    k_front = float(eval_coefficient(model.k, bc.T_m))
    rho_ell = model.rho0 * model.ell

    s_rel = s_rel_max = 0.0
    steps = 0

    def unstable():
        return ConvergenceError(
            f"front-fixed scheme unstable at step {steps} (t={t:.6g}): field range "
            f"[{np.min(T):.3g}, {np.max(T):.3g}] vs initial [{T_lo0:.3g}, {T_hi0:.3g}], s={s:.6g}"
        )

    # step buffers, filled in place: k, rho*c and mu at the nodes, k at the
    # half nodes (kh[i] between nodes i and i+1) and the interior rows
    coefs = np.empty((3, n + 1))
    k, gam, mu = coefs
    gam_in, mu_in = gam[1:-1], mu[1:-1]
    kh = np.empty(n)
    kp, km = kh[1:], kh[:-1]
    diff, adv, lower, upper, diag, rhs = np.empty((6, n - 1))

    # marched fields with their s and t, one row each, compared with the
    # similarity field a block at a time
    rows = max(1, _BLOCK_VALUES // (n + 1))
    held, s_held, t_held = np.empty((rows, n + 1)), np.empty(rows), np.empty(rows)
    held[0], s_held[0], t_held[0] = T, s, t
    row = 1
    drifts = []

    def compare():
        sim = _similarity_T(sol, y, s_held[:row, None], t_held[:row, None])
        drifts.extend((np.abs(held[:row] - sim).max(axis=1) / amp).tolist())

    # a blow-up overflows numpy arithmetic; the check after each step reports
    # it as the unstable error instead of as floating-point warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while t < scheme.t1 - 1e-15 * scheme.t1:
            dt = min(dy * t, scheme.t1 - t)

            model.coefficients_into(T, coefs)
            if not np.isfinite(coefs).all():
                raise unstable()

            # T[-1] - T[-2] stays a numpy scalar: a zero divisor then gives an
            # infinite front speed, which the check after the step reports
            sdot = -k_front * (T[-1] - T[-2]) / (dy * s * rho_ell)

            # s is front_position's Python float until the first step moves it,
            # and a Python float's ** raises OverflowError where numpy's gives inf;
            # an infinite dy^2 s^2 would zero the diffusion instead of failing
            try:
                scale = dy**2 * s**2
            except OverflowError:
                scale = math.inf
            if not math.isfinite(scale):
                raise unstable()

            # rows i = 1..n-1 of (1 - dt A) T_new = T_old, with A the centered
            # diffusion and advection operator frozen at the start of the step:
            # diff = dt / (dy^2 s^2 gam), adv = dt (y sdot / s - mu / (gam sqrt(t) s)) / (2 dy),
            # lower = adv - diff km, upper = -(diff kp) - adv, diag = 1 + diff (kp + km)
            # (upper is negated before adv is subtracted, so even a zero keeps its sign)
            np.add(k[:-1], k[1:], out=kh)
            kh *= 0.5
            np.multiply(gam_in, scale, out=diff)
            np.divide(dt, diff, out=diff)
            np.multiply(gam_in, math.sqrt(t), out=adv)
            adv *= s
            np.divide(mu_in, adv, out=adv)
            np.multiply(y_in, sdot, out=lower)
            lower /= s
            np.subtract(lower, adv, out=adv)
            adv *= dt
            adv /= 2.0 * dy
            np.multiply(diff, km, out=lower)
            np.subtract(adv, lower, out=lower)
            np.multiply(diff, kp, out=upper)
            np.negative(upper, out=upper)
            upper -= adv
            np.add(kp, km, out=diag)
            diag *= diff
            diag += 1.0
            rhs[:] = T[1:-1]
            rhs[0] -= lower[0] * T[0]
            rhs[-1] -= upper[-1] * T[-1]
            # LAPACK's tridiagonal solve; info > 0 flags a singular system
            T_new, info = dgtsv(lower[1:], diag, upper[:-1], rhs, overwrite_b=True)[3:]
            if info != 0:
                raise unstable()

            T0_prev = T[0]
            T[1:-1] = T_new
            s += dt * sdot
            t += dt
            T[-1] = bc.T_m
            T[0] = bc.face_temperature(model, T[1], T[2], T0_prev, dy, s, t)
            steps += 1

            T_hi, T_lo = float(T.max()), float(T.min())
            if not (math.isfinite(T_hi) and math.isfinite(T_lo)) or T_hi - T_lo > 10.0 * amp or not 0.0 < s < math.inf:
                raise unstable()

            s_sim = front_position(sol, t)
            s_rel = abs(s - s_sim) / s_sim
            s_rel_max = max(s_rel_max, s_rel)
            if row == rows:
                compare()
                row = 0
            held[row], s_held[row], t_held[row] = T, s, t
            row += 1
        compare()

    return PdeDiscrepancy(
        s_rel_max=float(s_rel_max),
        s_rel_final=float(s_rel),
        T_rel_max=max(drifts),
        steps=steps,
        t_final=float(t),
    )
