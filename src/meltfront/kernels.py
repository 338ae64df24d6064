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

A :class:`KernelEval` keeps only what the solver reads: Phi and E(lambda).
L*, N*, mu*, E's integrand and E are written into a workspace that each
thread reuses for the node counts it last evaluated; the E, L, N, mu,
log_U and log_I of a KernelEval run the same pass again, into fresh
arrays, when they are read.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# eval_coefficient is bound here for bench/tracing.py, which wraps every binding of it
from .coefficients import DimensionlessProblem, _erf, eval_coefficient  # noqa: F401
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
        self._hold(f)

    @classmethod
    def _adopt(cls, lam: float, f: np.ndarray, xi: np.ndarray | None = None) -> "ProfileGrid":
        """A grid over [0, lam], for a positive finite lam, with the float array f as its node values, uncopied.

        f is made read-only and ``xi`` built from lam unless given.  For
        arrays that the package made and that nothing else writes to.
        """
        grid = object.__new__(cls)
        object.__setattr__(grid, "lam", lam)
        grid._hold(f, xi)
        return grid

    def _hold(self, f: np.ndarray, xi: np.ndarray | None = None) -> None:
        if xi is None:
            xi = _WORKSPACES.nodes(self.lam, f.size)
            xi.setflags(write=False)
        f.setflags(write=False)
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
        """The same grid with a copy of new node values, sharing this grid's ``xi`` instead of rebuilding it."""
        f = np.array(f, dtype=float)
        if f.shape != self.xi.shape:
            raise ConfigError("xi and f must have the same length")
        return ProfileGrid._adopt(self.lam, f, self.xi)



@dataclass(frozen=True)
class KernelEval:
    """Phi's node values and E(lambda) for one profile of one problem.

    E, the L*, N* and mu* it was built from, and log_U and log_I, the
    exponents of U and I, are computed again on each read, by the pass that
    gave Phi and E(lambda), bit for bit.
    """

    profile: ProfileGrid
    prob: DimensionlessProblem
    E_lam: float
    Phi: np.ndarray

    @property
    def phi_lam(self) -> float:
        return float(self.Phi[-1])

    def _pass(self) -> np.ndarray:
        """A fresh workspace filled by the kernel pass on this profile: the rows L*, N*, mu*, E / L* and E."""
        work = np.empty((5, self.profile.f.size))
        _kernel_pass(self.profile, self.prob, work)
        return work

    @property
    def L(self) -> np.ndarray:
        return self._pass()[0]

    @property
    def N(self) -> np.ndarray:
        return self._pass()[1]

    @property
    def mu(self) -> np.ndarray:
        return self._pass()[2]

    @property
    def E(self) -> np.ndarray:
        return self._pass()[4]

    @property
    def log_U(self) -> np.ndarray:
        L, _, mu = self._pass()[:3]
        return _cumulative_trapezoid(mu / L, 2.0 * self.profile.step)

    @property
    def log_I(self) -> np.ndarray:
        L, N = self._pass()[:2]
        return _cumulative_trapezoid(self.profile.xi * N / L, 2.0 * self.profile.step)


def _cumulative_trapezoid(y: np.ndarray, step: float, out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative composite trapezoid of node values y on a uniform grid, starting at 0, into out (default new)."""
    if out is None:
        out = np.empty_like(y)
    out[0] = 0.0
    sums = out[1:]
    np.add(y[1:], y[:-1], out=sums)
    np.add.accumulate(sums, out=sums)
    out *= 0.5 * step
    return out


class _Workspaces(threading.local):
    """Each thread's kernel workspaces for the two node counts it last added.

    A node count's workspace is a (6, size) array: five rows for one kernel
    pass and the node numbers 0, 1, ..., size - 1.  Two threads never share
    one, and a fine solve's two grids keep theirs.
    """

    def __init__(self):
        self.by_size: dict[int, np.ndarray] = {}

    def get(self, size: int) -> np.ndarray:
        work = self.by_size.get(size)
        if work is None:
            if len(self.by_size) == 2:
                del self.by_size[next(iter(self.by_size))]
            work = self.by_size[size] = np.empty((6, size))
            work[5] = np.arange(size)
        return work

    def nodes(self, lam: float, size: int) -> np.ndarray:
        """np.linspace(0, lam, size) to the bit for a positive lam: the node numbers times lam / (size - 1)."""
        step = lam / (size - 1)
        if step == 0.0:  # linspace scales a subnormal lam differently
            return np.linspace(0.0, lam, size)
        xi = np.multiply(self.get(size)[5], step)
        xi[-1] = lam
        return xi


_WORKSPACES = _Workspaces()


def _kernel_pass(profile: ProfileGrid, prob: DimensionlessProblem, work: np.ndarray) -> np.ndarray:
    """Fill work's rows with L*, N*, mu*, E / L* and E on the profile's grid; return a new Phi.

    Raises KernelOverflowError when an exponent passes the overflow guard,
    naming the first offending node.
    """
    xi, f = profile.xi, profile.f
    L, N, mu, scratch, E = work[:5]
    L_min, L_max, N_abs, mu_abs = prob.coefficients_into(f, work[:3])
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
    # E's exponent (mu - xi N) / L is built in the scratch row, which then holds E / L
    np.multiply(xi, N, out=scratch)
    np.subtract(mu, scratch, out=scratch)
    np.divide(scratch, L, out=scratch)
    _cumulative_trapezoid(scratch, 2.0 * step, E)
    np.exp(E, out=E)
    np.divide(E, L, out=scratch)
    return _cumulative_trapezoid(scratch, step)


def eval_kernels(profile: ProfileGrid, prob: DimensionlessProblem) -> KernelEval:
    """Evaluate the four kernels on the profile's grid, in this thread's workspace for its node count.

    Raises KernelOverflowError when an exponent passes the overflow guard,
    naming the first offending node.
    """
    work = _WORKSPACES.get(profile.f.size)
    Phi = _kernel_pass(profile, prob, work)
    return KernelEval(profile, prob, float(work[4, -1]), Phi)


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
