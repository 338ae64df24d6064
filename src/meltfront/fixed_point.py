"""The inner Picard iteration on profiles at a fixed front coefficient.

For a fixed front coefficient lambda each boundary condition turns the
similarity reduction into a fixed-point equation f = H(f) built from the
Phi kernel.  H is the ``image`` of the condition's class in
:mod:`coefficients`, and its contraction bound the class's
``contraction_bound``; this module evaluates the kernel they read.

Plain Picard iteration is used on purpose: the contraction bounds returned
by :func:`contraction_bound` certify its geometric rate, and no accelerated
variant would inherit that certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import DimensionlessProblem
from .errors import ConfigError, ConvergenceError
from .kernels import DEFAULT_GRID_N, KernelEval, ProfileGrid, eval_kernels, lipschitz_constants

__all__ = [
    "InnerResult",
    "default_start",
    "apply_operator",
    "solve_profile",
    "contraction_bound",
]

# tolerance for calling an iterate "outside [0, f_max]"
_ESCAPE_TOL = 1e-9


def _admissible(f: np.ndarray, f_max: float) -> bool:
    """Whether f lies in the condition's range [0, f_max] up to ``_ESCAPE_TOL``; NaN never does."""
    return float(np.min(f)) >= -_ESCAPE_TOL and float(np.max(f)) <= f_max + _ESCAPE_TOL


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
    """Default initial iterate: the linear ramp, or zero for Neumann problems (the condition's ``start``)."""
    return prob.condition.start(ProfileGrid, lam, n)


def _operator_image(prob: DimensionlessProblem, profile: ProfileGrid) -> tuple[np.ndarray, KernelEval]:
    """H(profile) as a new array: the condition's ``image`` of the profile's Phi kernel."""
    ke = eval_kernels(profile, prob)
    phi_lam = ke.phi_lam
    if not phi_lam > 0.0:
        raise ConfigError(f"Phi(f)(lambda) must be positive, got {phi_lam!r}")
    g = prob.condition.image(prob, ke.Phi, phi_lam, profile.f)
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

    # iterates of an operator that need not map into [0, 1] are watched, and
    # clamped when the condition's own hypotheses fail
    watch = not prob.condition.self_map
    clamp = watch and not all(_hypotheses(prob).values())
    escaped = False
    did_clamp = False

    def accept(values: np.ndarray) -> ProfileGrid:
        nonlocal escaped, did_clamp
        if watch:
            escaped = escaped or not _admissible(values, prob.condition.f_max)
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
            rate = contraction_bound(prob, lam)
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
    """Certified upper bound on the operator's Lipschitz constant over [0, z], or inf where it has none.

    The condition's ``contraction_bound`` at the kernel constant D4(z).
    Robin problems share the Dirichlet bound.  Where the bound is undefined
    (radiative mu_M = 0) or overflows or underflows a divisor, it is inf, so
    every certificate decision counts it as "not below 1".  A negative z
    raises ConfigError.
    """
    try:
        bound = prob.condition.contraction_bound(prob, z, lipschitz_constants(z, prob).D4)
    except (OverflowError, ZeroDivisionError):
        return math.inf
    # an overflowed factor times z = 0 gives NaN, not inf
    return bound if math.isfinite(bound) else math.inf


def _hypotheses(prob: DimensionlessProblem) -> dict[str, bool]:
    """The condition's own existence hypotheses by certificate flag name (its ``hypotheses``)."""
    return prob.condition.hypotheses(prob, contraction_bound(prob, 0.0))
