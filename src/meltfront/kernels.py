"""Integral kernels of the similarity reduction, their envelopes and Lipschitz constants.

For a profile f on [0, lambda] the four kernels are

    U(f)(z)   = exp(2 * int_0^z mu*(f)/L*(f))
    I(f)(z)   = exp(2 * int_0^z sigma N*(f)/L*(f))
    E(f)(z)   = U(f)(z) / I(f)(z)
    Phi(f)(z) = int_0^z E(f)/L*(f)

All integrals use a cumulative composite trapezoid rule on the shared uniform
grid (a running sum of neighbour pairs times half the step), so every node
value comes out of one pass and refinement behaves at second order.  E's
exponent is one sum of (mu* - sigma N*)/L*; U's and I's are summed when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .coefficients import DimensionlessProblem, eval_coefficient
from .errors import ConfigError, KernelOverflowError

__all__ = [
    "DEFAULT_GRID_N",
    "MAX_NODES",
    "EXP_GUARD",
    "ProfileGrid",
    "KernelEval",
    "KernelEnvelope",
    "LipschitzConstants",
    "eval_kernels",
    "kernel_bounds",
    "lipschitz_constants",
]

DEFAULT_GRID_N = 512
# the most intervals or points any grid read from a config may ask for
MAX_NODES = 2**20

# exp() of anything above this is treated as an overflow, not a value
EXP_GUARD = 700.0


@dataclass(frozen=True)
class ProfileGrid:
    """A profile sampled on n+1 uniform nodes over [0, lambda].

    The nodes ``xi`` are built from ``lam`` and the length of ``f``.
    Admissible profiles stay in [0, 1] under Dirichlet/Robin/radiative
    conditions; Neumann profiles are only required to be non-negative and may
    exceed 1.  Construction does not enforce either: intermediate iterates
    can leave the admissible set and are diagnosed by the iteration instead.
    """

    lam: float
    f: np.ndarray
    xi: np.ndarray = field(init=False)

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ConfigError(f"lambda must be a positive finite real, got {self.lam!r}")
        f = np.array(self.f, dtype=float)
        if f.ndim != 1 or f.size < 2:
            raise ConfigError("profile needs at least two nodes")
        f.setflags(write=False)
        xi = np.linspace(0.0, self.lam, f.size)
        xi.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "xi", xi)

    @classmethod
    def linear(cls, lam: float, n: int = DEFAULT_GRID_N) -> "ProfileGrid":
        return cls(lam, np.linspace(0.0, lam, n + 1) / lam)

    @classmethod
    def constant(cls, lam: float, value: float, n: int = DEFAULT_GRID_N) -> "ProfileGrid":
        return cls(lam, np.full(n + 1, float(value)))

    @property
    def n(self) -> int:
        return self.f.size - 1

    @property
    def step(self) -> float:
        return self.lam / self.n

    def with_values(self, f: np.ndarray) -> "ProfileGrid":
        """The same grid with new node values, sharing this grid's ``xi`` instead of rebuilding it."""
        f = np.array(f, dtype=float)
        if f.shape != self.xi.shape:
            raise ConfigError("xi and f must have the same length")
        f.setflags(write=False)
        grid = object.__new__(ProfileGrid)
        for name, value in (("lam", self.lam), ("f", f), ("xi", self.xi)):
            object.__setattr__(grid, name, value)
        return grid


@dataclass(frozen=True)
class KernelEval:
    """Node values of E and Phi for one profile, and of the L*, N* and mu* they were built from.

    ``log_U`` and ``log_I``, the exponents of U and I, are summed on each read.
    """

    E: np.ndarray
    Phi: np.ndarray
    profile: ProfileGrid
    L: np.ndarray
    N: np.ndarray
    mu: np.ndarray

    @property
    def phi_lam(self) -> float:
        return float(self.Phi[-1])

    @property
    def log_U(self) -> np.ndarray:
        return _cumulative_trapezoid(self.mu / self.L, 2.0 * self.profile.step)

    @property
    def log_I(self) -> np.ndarray:
        return _cumulative_trapezoid(self.profile.xi * self.N / self.L, 2.0 * self.profile.step)


def _cumulative_trapezoid(y: np.ndarray, step: float) -> np.ndarray:
    """Cumulative composite trapezoid of node values y on a uniform grid, starting at 0."""
    out = np.empty_like(y)
    out[0] = 0.0
    sums = out[1:]
    np.add(y[1:], y[:-1], out=sums)
    np.add.accumulate(sums, out=sums)
    out *= 0.5 * step
    return out


def _erf(x):
    """erf by ``math.erf``: a float for a float or 0-d input, an array of the input's shape otherwise."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return math.erf(x)
    return np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size).reshape(x.shape)


def eval_kernels(profile: ProfileGrid, prob: DimensionlessProblem) -> KernelEval:
    """Evaluate the four kernels on the profile's grid.

    Raises KernelOverflowError when an exponent passes the overflow guard,
    naming the first offending node.
    """
    xi, f = profile.xi, profile.f
    L = eval_coefficient(prob.L_star, f)
    N = eval_coefficient(prob.N_star, f)
    mu = eval_coefficient(prob.mu_star, f)
    L_min, L_max, N_abs, mu_abs = map(float, (L.min(), L.max(), max(N.max(), -N.min()), max(mu.max(), -mu.min())))
    # an inf or NaN makes an extreme, and so their sum, non-finite; an
    # overflowing sum of finite extremes falls through to the exact test
    if not math.isfinite(L_min + L_max + N_abs + mu_abs):
        for name, arr in (("L*", L), ("N*", N), ("mu*", mu)):
            if not np.all(np.isfinite(arr)):
                bad = int(np.flatnonzero(~np.isfinite(arr))[0])
                raise ConfigError(f"{name} returned a non-finite value at node {bad} (xi={float(xi[bad])!r})")
    if L_min <= 0.0:
        bad = int(np.flatnonzero(L <= 0.0)[0])
        raise ConfigError(f"L* must be positive, got {L[bad]!r} at node {bad}")

    # every node's exponent is at most 2 lam max|integrand|; the exact sums run
    # only when that bound is within a factor 2 of the guard (or not finite)
    lam, step = profile.lam, profile.step
    if not 2.0 * lam * max(mu_abs, lam * N_abs) / L_min <= 0.5 * EXP_GUARD:
        exp_u = _cumulative_trapezoid(mu / L, 2.0 * step)
        exp_i = _cumulative_trapezoid(xi * N / L, 2.0 * step)
        max_u, max_i = float(np.max(exp_u)), float(np.max(exp_i))
        worst = max(max_u, max_i)
        if worst > EXP_GUARD:
            bad = int(np.argmax(exp_u if max_u >= max_i else exp_i))
            raise KernelOverflowError(
                f"kernel exponent {worst:.3g} exceeds the overflow guard {EXP_GUARD:g} at node {bad}"
                f" (xi={float(xi[bad])!r}); the profile or coefficients are out of range",
                node=bad,
                exponent=worst,
            )
    # E's exponent (mu - xi N) / L is built in one scratch array, which then holds E / L
    scratch = np.multiply(xi, N)
    np.subtract(mu, scratch, out=scratch)
    np.divide(scratch, L, out=scratch)
    E = _cumulative_trapezoid(scratch, 2.0 * step)
    np.exp(E, out=E)
    np.divide(E, L, out=scratch)
    return KernelEval(E, _cumulative_trapezoid(scratch, step), profile, L, N, mu)


@dataclass(frozen=True)
class KernelEnvelope:
    """Node-wise lower/upper envelopes for the four kernels.

    Two printed lower bounds are replaced by safe weaker ones: U uses
    exp(2 mu_m z / L_M) and I uses the constant 1.  When mu_M = 0 the usual
    Phi upper bound degenerates (it carries a 1/mu_M factor); the direct
    bound Phi <= z / L_m, valid because E <= 1 once mu* vanishes, is used
    instead and flagged.
    """

    xi: np.ndarray
    U_lower: np.ndarray
    U_upper: np.ndarray
    I_lower: np.ndarray
    I_upper: np.ndarray
    E_lower: np.ndarray
    E_upper: np.ndarray
    Phi_lower: np.ndarray
    Phi_upper: np.ndarray
    phi_upper_degenerate: bool


def kernel_bounds(lam: float, prob: DimensionlessProblem, n: int = DEFAULT_GRID_N) -> KernelEnvelope:
    """Evaluate the kernel envelopes on a uniform grid over [0, lam]."""
    if not lam > 0.0:
        raise ConfigError(f"lambda must be positive, got {lam!r}")
    z = np.linspace(0.0, lam, n + 1)
    L_m, L_M = prob.L_m, prob.L_M
    N_m, N_M = prob.N_m, prob.N_M
    mu_m, mu_M = prob.mu_m, prob.mu_M

    U_lower = np.exp(2.0 * mu_m / L_M * z)
    U_upper = np.exp(2.0 * mu_M / L_m * z)
    I_lower = np.ones_like(z)
    I_upper = np.exp(N_M / L_m * z**2)
    E_lower = np.exp(2.0 * mu_m / L_M * z - N_M / L_m * z**2)
    E_upper = np.exp(2.0 * mu_M / L_m * z - N_m / L_M * z**2)
    Phi_lower = 0.5 * np.sqrt(np.pi) * np.sqrt(L_m) / (L_M * np.sqrt(N_M)) * _erf(np.sqrt(N_M / L_m) * z)
    degenerate = mu_M == 0.0
    if degenerate:
        Phi_upper = z / L_m
    else:
        Phi_upper = np.exp(2.0 * mu_M / L_m * z) / (2.0 * mu_M)
    return KernelEnvelope(
        xi=z,
        U_lower=U_lower,
        U_upper=U_upper,
        I_lower=I_lower,
        I_upper=I_upper,
        E_lower=E_lower,
        E_upper=E_upper,
        Phi_lower=Phi_lower,
        Phi_upper=Phi_upper,
        phi_upper_degenerate=degenerate,
    )


class LipschitzConstants(NamedTuple):
    D1: float
    D2: float
    D3: float
    D4: float
    D5: float | None


def lipschitz_constants(z: float, prob: DimensionlessProblem) -> LipschitzConstants:
    """The kernel Lipschitz constants at a given z.

    D1 bounds U, D2 bounds I, D3 bounds E, and z*D4(z) bounds Phi, all in the
    max-node norm against max-node profile distance.  D5 (the fourth-power
    boundary term, radiative problems only) is 4 (T_star - T_m) |T_star|^3
    and does not depend on z.
    """
    if not z >= 0.0:
        raise ConfigError(f"z must be non-negative, got {z!r}")
    L_m = prob.L_m
    mu_M, N_M = prob.mu_M, prob.N_M
    L_t, N_t, mu_t = prob.L_tilde, prob.N_tilde, prob.mu_tilde
    D1 = 2.0 * math.exp(2.0 * mu_M / L_m) / L_m**2 * z * (mu_M * L_t + L_m * mu_t)
    D2 = math.exp(N_M / L_m * z**2) / L_m**2 * z**2 * (N_M * L_t + L_m * N_t)
    D3 = math.exp(N_M / L_m * z**2) * D1 + math.exp(2.0 * mu_M / L_m * z) * D2
    D4 = (L_t * math.exp(2.0 * z * mu_M / L_m) + L_m * D3) / L_m**2
    return LipschitzConstants(float(D1), float(D2), float(D3), float(D4), prob.D5)
