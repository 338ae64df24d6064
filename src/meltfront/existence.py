"""Numeric certification of the sufficient existence conditions.

For each boundary condition the certificate evaluates every hypothesis that
the existence argument rests on, locates the contraction threshold
lambda_bar (the unique point where the contraction bound reaches 1), builds
the sandwich bracket, and checks the contraction bound at its upper end.
A failed certificate never blocks solving; sufficient conditions are not
necessary, and the solver stays useful as an experimental tool on
uncertified data.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .coefficients import BCKind, DimensionlessProblem
from .fixed_point import _hypotheses, contraction_bound
from .lambda_solver import Bracket, SolverSettings, DEFAULT_SETTINGS, bracket
from .rootfind import bisect_root

__all__ = [
    "HOLDS",
    "FAILS",
    "NOT_APPLICABLE",
    "ExistenceReport",
    "lambda_bar",
    "certify",
    "report_as_dict",
]

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class ExistenceReport:
    """Certificate for one problem.

    ``certified`` is True exactly when no applicable hypothesis fails (which
    includes the contraction bound being below 1 at the bracket's upper
    end).  ``epsilon_at_lambda2`` is None where that bound is undefined or
    overflows.  ``basis`` records whether the coefficient bounds behind the
    constants are analytic for the family or sampled estimates; a certificate
    on sampled bounds is heuristic, not a proof.
    """

    bc_kind: BCKind
    lambda_bar: float | None
    lambda_bar_note: str | None
    bracket: Bracket
    epsilon_at_lambda2: float | None
    hypothesis_flags: dict[str, str]
    certified: bool
    basis: str


def lambda_bar(prob: DimensionlessProblem) -> tuple[float | None, str | None]:
    """Unique root of (contraction bound) = 1, with a reason when it does not exist.

    The contraction bounds are increasing in z, so the root is located by
    doubling until the bound passes 1 and refining with the bracketed root
    finder, which steps to the midpoint where the bound is infinite.  An
    identically zero bound (constant coefficients) means unconditional
    contraction and is reported as an absent threshold with that note; the
    condition's ``threshold_note`` gives it, or the reason of an undefined
    bound, without a search.
    """
    e0 = contraction_bound(prob, 0.0)
    note = prob.condition.threshold_note(prob, e0)
    if note is not None:
        return None, note
    if e0 == math.inf:
        return None, "contraction bound overflows already at z = 0"
    if e0 >= 1.0:
        return None, f"contraction bound is {e0:.6g} >= 1 already at z = 0"
    hi = 1.0
    for _ in range(64):
        if contraction_bound(prob, hi) > 1.0:
            break
        hi *= 2.0
    else:
        return None, "unconditional contraction (bound never reaches 1)"
    root = bisect_root(lambda z: contraction_bound(prob, z) - 1.0, 0.0, hi, xtol=1e-14)
    return root, None


def _flags(prob: DimensionlessProblem, br: Bracket, eps2: float) -> dict[str, str]:
    # the condition's own hypotheses first, then those every condition shares
    flags = {name: HOLDS if ok else FAILS for name, ok in _hypotheses(prob).items()}
    flags["contraction_at_lambda2"] = HOLDS if eps2 < 1.0 else FAILS
    flags["analytic_bracket"] = HOLDS if br.provenance == "analytic" else FAILS
    # mu_m = 0 (no convection floor) is an accepted degenerate regime; nothing
    # in the certificate chain uses mu_m, so it is informational only.
    flags["mu_lower_positive"] = HOLDS if prob.mu_m > 0.0 else NOT_APPLICABLE
    return flags


def certify(prob: DimensionlessProblem, settings: SolverSettings = DEFAULT_SETTINGS) -> ExistenceReport:
    """Evaluate every applicable hypothesis and assemble the certificate."""
    br = bracket(prob, settings)
    eps2 = contraction_bound(prob, br.lambda2)
    lb, note = lambda_bar(prob)
    flags = _flags(prob, br, eps2)
    certified = all(v != FAILS for v in flags.values())
    return ExistenceReport(
        bc_kind=prob.bc_kind,
        lambda_bar=lb,
        lambda_bar_note=note,
        bracket=br,
        epsilon_at_lambda2=eps2 if eps2 < math.inf else None,
        hypothesis_flags=flags,
        certified=certified,
        basis="analytic" if prob.bounds_certified else "sampled",
    )


def report_as_dict(report: ExistenceReport) -> dict:
    """JSON-ready view of an ExistenceReport."""
    return {
        "bc_kind": report.bc_kind.value,
        "lambda_bar": report.lambda_bar,
        "lambda_bar_note": report.lambda_bar_note,
        "bracket": asdict(report.bracket),
        "epsilon_at_lambda2": report.epsilon_at_lambda2,
        "hypothesis_flags": dict(sorted(report.hypothesis_flags.items())),
        "certified": report.certified,
        "basis": report.basis,
    }
