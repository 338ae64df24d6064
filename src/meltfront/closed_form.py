"""Closed-form constant-coefficient solutions.

With constant coefficients the kernels collapse to error functions and the
front coefficient solves a scalar transcendental equation:

    Dirichlet:  Ste = sqrt(pi) lam (erf(Pe) - erf(Pe - lam)) exp((Pe - lam)^2)
    Neumann:    q / (rho0 ell sqrt(alpha0)) = lam exp(lam^2 - 2 lam Pe)

These serve as independent oracles for the generic pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import BCKind
from .errors import BracketError, ConfigError
from .rootfind import bisect_root, sign_change_intervals

__all__ = ["ClosedFormSolution", "dirichlet_constant", "neumann_constant"]


@dataclass(frozen=True)
class ClosedFormSolution:
    """A constant-coefficient solution in similarity variables.

    ``lam`` is the smallest positive root of the front equation and ``roots``
    lists every root found below the search cap (a Neumann condition with
    Pe > sqrt(2) can have up to three).
    """

    lam: float
    profile: Callable[[np.ndarray], np.ndarray]
    bc_kind: BCKind
    unique: bool
    roots: tuple[float, ...]


def _erf_gap(Pe, u, v, w):
    """(erf(Pe - u) - erf(Pe - v)) exp((Pe - w)^2) for offsets u <= v.

    Where erfc(Pe - v) < erf(Pe - u) it is taken from erfcx tails, so it does
    not cancel, and each tail's exponent (Pe - w)^2 - (Pe - x)^2 is formed
    as (x - w)(2 Pe - x - w) from the offsets, never from a rounded Pe - x.
    scipy is imported here, so only the oracles load it.
    """
    from scipy.special import erf, erfc, erfcx

    b, a = Pe - u, Pe - v
    tails = erfcx(a) * np.exp((v - w) * (2.0 * Pe - v - w)) - erfcx(b) * np.exp((u - w) * (2.0 * Pe - u - w))
    with np.errstate(over="ignore", invalid="ignore"):  # exp((Pe - w)^2) overflows only where the tails are taken
        return np.where(erfc(a) < erf(b), tails, (erf(b) - erf(a)) * np.exp((Pe - w) ** 2))


def dirichlet_constant(Ste: float, Pe: float = 0.0, lambda_max: float = 10.0) -> ClosedFormSolution:
    """Front coefficient and erf-ratio profile for an imposed face temperature.

    The front equation has a unique root; it is located by scanning for the
    first sign change and refining it with the bracketed root finder.
    """
    if not Ste > 0.0:
        raise ConfigError(f"Ste must be positive, got {Ste}")
    if Pe < 0.0:
        raise ConfigError(f"Pe must be non-negative, got {Pe}")

    def resid(lam):
        return math.sqrt(math.pi) * lam * _erf_gap(Pe, 0.0, lam, lam) - Ste

    intervals = sign_change_intervals(resid, lambda_max * 1e-12, lambda_max, 4096)
    if not intervals:
        raise BracketError(f"no front coefficient below {lambda_max} for Ste={Ste}, Pe={Pe}")
    lam = bisect_root(resid, *intervals[0], xtol=1e-14)
    denom = _erf_gap(Pe, 0.0, lam, lam)

    def profile(xi):
        return _erf_gap(Pe, 0.0, np.asarray(xi, dtype=float), lam) / denom

    return ClosedFormSolution(lam, profile, BCKind.DIRICHLET, unique=True, roots=(lam,))


def neumann_constant(
    load: float,
    Pe: float = 0.0,
    q_star: float | None = None,
    lambda_max: float = 10.0,
) -> ClosedFormSolution:
    """Front coefficient and profile for a prescribed face flux.

    ``load`` is the dimensionless flux q / (rho0 ell sqrt(alpha0)).  The root
    is unique for Pe <= sqrt(2); beyond that every sign-change root below
    ``lambda_max`` is reported and the smallest is returned.

    The profile amplitude also needs q* = 2 q sqrt(alpha0) / (k0 T_m), which
    ``load`` alone does not determine; when ``q_star`` is omitted the value
    2 * load is used, corresponding to references with T_m c0 = ell.
    """
    if not load > 0.0:
        raise ConfigError(f"load must be positive, got {load}")
    if Pe < 0.0:
        raise ConfigError(f"Pe must be non-negative, got {Pe}")
    if q_star is None:
        q_star = 2.0 * load

    def resid(lam):
        return lam * np.exp(lam**2 - 2.0 * lam * Pe) - load

    intervals = sign_change_intervals(resid, lambda_max * 1e-12, lambda_max, 1024)
    if not intervals:
        raise BracketError(f"no front coefficient below {lambda_max} for load={load}, Pe={Pe}")
    roots = tuple(bisect_root(resid, a, b, xtol=1e-14) for a, b in intervals)
    lam = roots[0]

    def profile(xi):
        return q_star * math.sqrt(math.pi) / 2.0 * _erf_gap(Pe, np.asarray(xi, dtype=float), lam, 0.0)

    return ClosedFormSolution(lam, profile, BCKind.NEUMANN, unique=Pe <= math.sqrt(2.0), roots=roots)
