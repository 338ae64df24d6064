"""Boundary-condition operators on profiles and the inner Picard iteration.

For a fixed front coefficient lambda each boundary condition turns the
similarity reduction into a fixed-point equation f = H(f) built from the
Phi kernel:

    Dirichlet:  H(f)  = Phi(f)(xi) / Phi(f)(lambda)
    Neumann:    H(f)  = q* (Phi(f)(lambda) - Phi(f)(xi))
    Robin:      H(f)  = (1 + 2 Bi Phi(f)(xi)) / (1 + 2 Bi Phi(f)(lambda))
    radiative:  H(f)  = 1 - G(f)(0) (Phi(f)(lambda) - Phi(f)(xi)),
                G(f)(0) = 2 Bi f(0) + r (T_star^4 - ((T_m - T_star) f(0) + T_star)^4)

Plain Picard iteration is used on purpose: the contraction bounds returned
by :func:`contraction_bound` certify its geometric rate, and no accelerated
variant would inherit that certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import BCKind, DimensionlessProblem
from .errors import ConfigError, ConvergenceError
from .kernels import DEFAULT_GRID_N, KernelEval, ProfileGrid, eval_kernels, lipschitz_constants

__all__ = [
    "InnerResult",
    "default_start",
    "apply_operator",
    "solve_profile",
    "contraction_bound",
    "contraction_bound_or_inf",
    "radiative_self_map_margin",
    "radiative_admissibility",
    "radiative_in_admissible_set",
]

# tolerance for calling a radiative iterate "outside [0, 1]"
_ESCAPE_TOL = 1e-9


@dataclass(frozen=True)
class InnerResult:
    """Outcome of one inner profile solve at fixed lambda.

    ``residual`` is the true fixed-point defect max-node |H(f) - f| of the
    returned profile.  ``contraction_observed`` is the largest ratio of
    successive residuals (None until at least two residuals exist);
    ``theoretical_rate`` is the matching contraction bound at lambda when it
    is defined and finite.  Radiative iterates are clamped to [0, 1] only
    when the admissibility hypotheses fail; ``escaped_unit_interval``
    records whether any raw iterate actually left [0, 1].  ``image`` holds
    the node values of H(profile), the next Picard iterate (clipped to
    [0, 1] where iterates are clamped; it sets neither flag).
    """

    profile: ProfileGrid
    iterations: int
    residual: float
    converged: bool
    contraction_observed: float | None
    theoretical_rate: float | None
    kernels: KernelEval
    image: np.ndarray
    clamped: bool = False
    escaped_unit_interval: bool = False


def default_start(prob: DimensionlessProblem, lam: float, n: int = DEFAULT_GRID_N) -> ProfileGrid:
    """Default initial iterate: the linear ramp, or zero for Neumann problems."""
    if prob.bc_kind is BCKind.NEUMANN:
        return ProfileGrid.constant(lam, 0.0, n)
    return ProfileGrid.linear(lam, n)


def _radiative_g0(prob: DimensionlessProblem, f0: float) -> float:
    T_star, T_m = prob.T_star, prob.T_m
    F0 = T_star**4 - ((T_m - T_star) * f0 + T_star) ** 4
    return 2.0 * prob.Bi * f0 + prob.r * F0


def _operator_image(prob: DimensionlessProblem, profile: ProfileGrid) -> tuple[np.ndarray, KernelEval]:
    """H(profile) as a new array, built in place in the operation order of the module docstring's formulas."""
    ke = eval_kernels(profile, prob)
    Phi = ke.Phi
    phi_lam = ke.phi_lam
    if not phi_lam > 0.0:
        raise ConfigError(f"Phi(f)(lambda) must be positive, got {phi_lam!r}")
    kind = prob.bc_kind
    if kind is BCKind.DIRICHLET:
        g = np.divide(Phi, phi_lam)
    elif kind is BCKind.NEUMANN:
        g = np.subtract(phi_lam, Phi)
        g *= prob.q_star
    elif kind is BCKind.ROBIN:
        g = np.multiply(2.0 * prob.Bi, Phi)
        g += 1.0
        g /= 1.0 + 2.0 * prob.Bi * phi_lam
    else:
        g = np.subtract(phi_lam, Phi)
        g *= _radiative_g0(prob, float(profile.f[0]))
        np.subtract(1.0, g, out=g)
    if not np.isfinite(g).all():
        raise ConvergenceError("operator image contains non-finite values", lam=profile.lam)
    return g, ke


def apply_operator(prob: DimensionlessProblem, profile: ProfileGrid) -> ProfileGrid:
    """One application of the boundary-condition operator."""
    g, _ = _operator_image(prob, profile)
    return ProfileGrid._adopt(profile.lam, g, profile.xi)


def solve_profile(
    prob: DimensionlessProblem,
    lam: float,
    *,
    tol: float = 1e-10,
    max_iter: int = 200,
    f0: ProfileGrid | None = None,
    n: int = DEFAULT_GRID_N,
) -> InnerResult:
    """Picard iteration f <- H(f) until the fixed-point defect drops to tol.

    The returned residual is measured on the returned profile itself (one
    extra operator application probes it), so a constant-coefficient problem,
    whose operator does not depend on f at all, converges in one iteration.
    A start whose own defect max|H(f0) - f0| already meets tol is returned
    as it is, after that one operator application, with ``iterations=0``
    and ``contraction_observed=None``.  Non-convergence is reported through
    ``converged=False``, never silently.
    """
    if not (tol > 0.0 and max_iter >= 1):
        raise ConfigError("need tol > 0 and max_iter >= 1")
    if f0 is None:
        f0 = default_start(prob, lam, n)
    elif abs(f0.lam - lam) > 1e-12 * max(1.0, lam):
        raise ConfigError(f"starting profile lives on lambda={f0.lam!r}, expected {lam!r}")

    clamp = prob.bc_kind is BCKind.RADIATIVE and not radiative_in_admissible_set(prob)
    escaped = False
    did_clamp = False

    def accept(values: np.ndarray) -> ProfileGrid:
        nonlocal escaped, did_clamp
        if prob.bc_kind is BCKind.RADIATIVE:
            if float(np.min(values)) < -_ESCAPE_TOL or float(np.max(values)) > 1.0 + _ESCAPE_TOL:
                escaped = True
            if clamp:
                clipped = np.clip(values, 0.0, 1.0)
                if not np.array_equal(clipped, values):
                    did_clamp = True
                values = clipped
        return ProfileGrid._adopt(f0.lam, values, f0.xi)

    # the start f0 is iteration 0: it is returned if its own defect meets tol
    current, iterations = f0, 0
    probe, kernels = _operator_image(prob, f0)
    defect = np.empty_like(f0.f)
    prev_residual: float | None = None
    worst_ratio: float | None = None

    while True:
        np.subtract(probe, current.f, out=defect)
        residual = float(np.abs(defect, out=defect).max())
        if prev_residual is not None and prev_residual > 1e-13:
            ratio = residual / prev_residual
            worst_ratio = ratio if worst_ratio is None else max(worst_ratio, ratio)
        prev_residual = residual if iterations else None
        if residual <= tol or iterations >= max_iter:
            rate = contraction_bound_or_inf(prob, lam)
            return InnerResult(
                profile=current,
                iterations=iterations,
                residual=residual,
                converged=residual <= tol,
                contraction_observed=worst_ratio,
                theoretical_rate=rate if rate < math.inf else None,
                kernels=kernels,
                image=np.clip(probe, 0.0, 1.0) if clamp else probe,
                clamped=did_clamp,
                escaped_unit_interval=escaped,
            )
        current = accept(probe)
        iterations += 1
        probe, kernels = _operator_image(prob, current)


def contraction_bound(prob: DimensionlessProblem, z: float) -> float:
    """Certified upper bound on the operator's Lipschitz constant over [0, z].

    Robin problems share the Dirichlet bound.  Radiative problems with
    mu_M = 0 have no defined bound and raise ConfigError.
    """
    D = lipschitz_constants(z, prob)
    kind = prob.bc_kind
    if kind in (BCKind.DIRICHLET, BCKind.ROBIN):
        return 2.0 * D.D4 * prob.L_M * math.exp(prob.N_M / prob.L_m * z**2)
    if kind is BCKind.NEUMANN:
        return 2.0 * prob.q_star * z * D.D4
    if prob.mu_M == 0.0:
        raise ConfigError("radiative contraction bound is undefined when mu_M = 0")
    head = 2.0 * (2.0 * prob.Bi + prob.r * prob.T_star**4) * z * D.D4
    tail = math.exp(2.0 * prob.mu_M / prob.L_m * z) * (2.0 * prob.Bi + prob.r * prob.D5) / prob.mu_M
    return head + tail


def contraction_bound_or_inf(prob: DimensionlessProblem, z: float) -> float:
    """The contraction bound, or inf where it is undefined (radiative mu_M = 0) or overflows.

    Every certificate decision reads the bound through this function, so an
    undefined or overflowing bound always counts as "not below 1".
    """
    try:
        bound = contraction_bound(prob, z)
    except (OverflowError, ConfigError):
        return math.inf
    # an overflowed factor times z = 0 gives NaN, not inf
    return bound if math.isfinite(bound) else math.inf


def radiative_self_map_margin(prob: DimensionlessProblem, *, dimensional: bool = False) -> float:
    """Left-hand side of the radiative self-map condition (must be <= 1).

    The dimensional restatement replaces T_star^4 by T_star^4 - T_m^4; both
    variants are reported by the existence certificate.  A margin that
    overflows is infinite.
    """
    if prob.bc_kind is not BCKind.RADIATIVE:
        raise ConfigError("self-map margin only applies to radiative problems")
    try:
        fourth = prob.T_star**4 - (prob.T_m**4 if dimensional else 0.0)
        amp = 2.0 * prob.Bi + prob.r * fourth
        return amp / (prob.L_m * math.sqrt(prob.N_m / prob.L_M)) * math.sqrt(math.pi) * math.exp(
            prob.mu_M**2 * prob.L_M / (prob.L_m**2 * prob.N_m)
        )
    except OverflowError:
        return math.inf


def radiative_admissibility(prob: DimensionlessProblem) -> dict[str, bool]:
    """The three radiative hypotheses, keyed by their existence-certificate flag names."""
    return {
        "radiative_self_map": radiative_self_map_margin(prob) <= 1.0,
        "radiative_self_map_dimensional": radiative_self_map_margin(prob, dimensional=True) < 1.0,
        # at z = 0 the bound is (2 Bi + r D5) / mu_M
        "radiative_lipschitz": contraction_bound_or_inf(prob, 0.0) < 1.0,
    }


def radiative_in_admissible_set(prob: DimensionlessProblem) -> bool:
    """Whether the radiative operator is certified to map [0, 1] profiles into [0, 1]."""
    return all(radiative_admissibility(prob).values())
