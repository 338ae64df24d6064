"""Outer fixed point for the front coefficient: bracket and solve V(lambda) = lambda.

V(lambda) evaluates the front condition on the inner fixed-point profile:
the ``front_value`` of the condition's class in :mod:`coefficients`, which
also holds the sandwich curves' ``v1`` and ``v2`` and the flux residual.
Sandwich curves V1 <= V <= V2 (V1 = 0 for Robin/radiative) provide a
bracket (lambda1, lambda2) with a guaranteed sign change of V(lambda) -
lambda whenever the existence hypotheses hold; the bracketed ITP root
finder of :mod:`rootfind` then finds the front coefficient.  A bracketed
method is deliberate: V is only known continuous, and a sign change of a
continuous function is all bisection needs.  ITP needs no more and keeps
bisection's worst-case step count plus one, because its interpolation
steps stay inside a shrinking ball around the midpoint; on the smooth V
met in practice it takes about 7 V evaluations instead of about 30.

The outer search stops at |V - lambda| <= outer_tol (DEFAULT_GRID_N / n)^2
on grids finer than DEFAULT_GRID_N: the trapezoid error in lambda falls as
n^-2, and the stop rule keeps the same share of it at every n.  The search
climbs a ladder of grids: DEFAULT_GRID_N, where a V evaluation is cheap,
then n from 4 DEFAULT_GRID_N intervals up, else n alone.  Each rung takes
chord steps from a prediction, with the bracketed search behind them.  The
first rung's prediction is the root of a neighbouring problem when a sweep
offers one (natural-parameter continuation; Allgower and Georg,
Introduction to Numerical Continuation Methods, SIAM 2003); each later
rung's is the root of the rung below, interpolated on xi / lambda (nested
iteration; Brandt, Math. Comp. 31, 1977).  Within one search each V
evaluation continues the Picard sequence of the one before it, from its
image and, on the chord steps, a predicted step along the tangent.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

# eval_coefficient is bound here for bench/tracing.py, which wraps every binding of it
from .coefficients import BCKind, DimensionlessProblem, eval_coefficient  # noqa: F401
from .errors import ConfigError, ConvergenceError, MeltfrontError
from .fixed_point import _ESCAPE_TOL, InnerResult, solve_profile
from .kernels import DEFAULT_GRID_N, MAX_NODES, ProfileGrid
from .rootfind import bisect_root, chord_root, sign_change_intervals

__all__ = [
    "SolverSettings",
    "DEFAULT_SETTINGS",
    "Bracket",
    "SearchStart",
    "SolveReport",
    "v1_curve",
    "v2_curve",
    "v_value",
    "bracket",
    "front_flux_residual",
    "solve_lambda",
    "report_as_dict",
]

_FALLBACK_EPS = 1e-6
# points of the scan for the first crossing of V2 with the identity
_SCAN_POINTS = 1024
# the lowest search point is lambda_max * 1e-17 (the V2 scan starts at
# lambda_max * 1e-9, the solve at lambda2 * 1e-8); above this floor it stays
# a normal float instead of underflowing to 0
_LAMBDA_MAX_FLOOR = 1e-290
# grids with at least this many intervals are solved from a root located at
# DEFAULT_GRID_N; on coarser ones the extra solve costs more than it saves
_CONTINUATION_N = 4 * DEFAULT_GRID_N
# chord steps on the fine grid before the bracketed search takes over
_CHORD_STEPS = 4
# chord steps from a neighbouring problem's root before the bracketed search
# takes over; on the benchmark sweep one case in 40 needed a seventh
_START_STEPS = 7
# the secant slope a chord from a start hands on spans at least this share of
# max(1, lambda): the forward-difference step of Dennis and Schnabel
# (Numerical Methods for Unconstrained Optimization, 1983, section 5.4)
_SLOPE_SPAN = math.sqrt(math.ulp(1.0))


@dataclass(frozen=True)
class SolverSettings:
    """Numerical knobs shared by the inner and outer iterations."""

    n: int = DEFAULT_GRID_N
    inner_tol: float = 1e-10
    max_iter: int = 200
    outer_tol: float = 1e-9
    lambda_max: float = 10.0

    def __post_init__(self):
        if self.n < 16:
            raise ConfigError(f"grid must have at least 16 intervals, got {self.n}")
        if not all(0.0 < tol < math.inf for tol in (self.inner_tol, self.outer_tol)):
            raise ConfigError(f"tolerances must be positive and finite, got {self.inner_tol!r}, {self.outer_tol!r}")
        if not _LAMBDA_MAX_FLOOR <= self.lambda_max < math.inf:
            raise ConfigError(f"lambda_max must be finite and at least {_LAMBDA_MAX_FLOOR:g}, got {self.lambda_max!r}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.n > MAX_NODES:
            raise ConfigError(f"grid must have at most {MAX_NODES} intervals, got {self.n}")


DEFAULT_SETTINGS = SolverSettings()


@dataclass(frozen=True)
class Bracket:
    """Search interval for the front coefficient.

    ``analytic`` brackets come from the sandwich curves: lambda1 solves
    V1(lambda) = lambda (0 for Robin/radiative) and lambda2 is the smallest
    root of V2(lambda) = lambda at or beyond it.  Coefficients sitting
    exactly on their bounds collapse the sandwich, so lambda1 = lambda2 is
    possible; the solver widens its search a hair around such brackets.
    When the lambda2 search fails the fallback interval [1e-6, lambda_max]
    is used instead, from lambda_max * 1e-9 when lambda_max < 1e-6.
    ``extra_sign_changes`` counts the scan's crossings of V2(lambda) = lambda
    beyond lambda2; they are not roots of V(lambda) = lambda and do not count them.
    """

    lambda1: float
    lambda2: float
    provenance: str
    extra_sign_changes: int = 0

    def __post_init__(self):
        if not self.lambda1 <= self.lambda2:
            raise ConfigError(f"bracket needs lambda1 <= lambda2, got [{self.lambda1}, {self.lambda2}]")
        if self.provenance not in ("analytic", "fallback"):
            raise ConfigError(f"unknown bracket provenance {self.provenance!r}")


def v1_curve(prob: DimensionlessProblem, lam: float) -> float:
    """Lower sandwich curve (identically 0 for Robin/radiative problems): the condition's ``v1``.

    The Neumann curve uses E's lower envelope without its convection factor
    exp(2 lam mu_m / L_M) >= 1.
    """
    return prob.condition.v1(prob, lam)


def v2_curve(prob: DimensionlessProblem, lam):
    """Upper sandwich curve: E's upper envelope times the prefactor of each condition (its ``v2``).

    Takes a float or an array of lambdas and returns the same kind.
    """
    lam = np.asarray(lam, dtype=float)
    E_upper = np.exp(2.0 * lam * prob.mu_M / prob.L_m - lam**2 * prob.N_m / prob.L_M)
    value = prob.condition.v2(prob, lam, E_upper)
    return float(value) if value.ndim == 0 else value


def v_value(
    prob: DimensionlessProblem,
    lam: float,
    settings: SolverSettings = DEFAULT_SETTINGS,
    f0: ProfileGrid | None = None,
) -> tuple[float, InnerResult]:
    """Solve the inner profile at lam and evaluate the front condition (the condition's ``front_value``).

    Inner non-convergence propagates as ConvergenceError with the offending
    lambda attached.
    """
    inner = solve_profile(
        prob, lam, tol=settings.inner_tol, max_iter=settings.max_iter, f0=f0, n=settings.n
    )
    if not inner.converged:
        raise ConvergenceError(
            f"inner iteration did not reach tol={settings.inner_tol:g} within "
            f"{settings.max_iter} iterations at lambda={lam!r} (residual {inner.residual:.3g})",
            lam=lam,
        )
    ke = inner.kernels
    return prob.condition.front_value(prob, ke.E_lam, ke.phi_lam, inner.profile.f), inner


def _lambda1(prob: DimensionlessProblem) -> float:
    # 0 where V1 vanishes (Robin, radiative)
    v0 = v1_curve(prob, 0.0)
    if v0 <= 0.0:
        return 0.0
    # v1 decreases from v0 while the identity grows, so the root is in (0, v0]
    return bisect_root(lambda x: v1_curve(prob, x) - x, 0.0, v0, xtol=1e-14)


def bracket(prob: DimensionlessProblem, settings: SolverSettings = DEFAULT_SETTINGS) -> Bracket:
    """Compute the sandwich bracket, falling back to [1e-6, lambda_max] if needed (see Bracket).

    The upper curve sits above the identity everywhere below lambda1, so the
    scan starts near zero: its first crossing is the smallest admissible
    lambda2 and coincides with lambda1 when the sandwich is degenerate.
    """
    lam1 = _lambda1(prob)
    g2 = lambda x: v2_curve(prob, x) - x
    lo = settings.lambda_max * 1e-9
    intervals = sign_change_intervals(g2, lo, settings.lambda_max, _SCAN_POINTS)
    if not intervals:
        start = _FALLBACK_EPS if settings.lambda_max >= _FALLBACK_EPS else lo
        return Bracket(min(lam1, start), settings.lambda_max, "fallback", 0)
    lam2 = bisect_root(g2, *intervals[0], xtol=1e-14)
    return Bracket(lam1, max(lam2, lam1), "analytic", max(len(intervals) - 1, 0))


def front_flux_residual(prob: DimensionlessProblem, profile: ProfileGrid) -> float:
    """Relative defect of the front flux condition (the condition's ``flux_residual``), via a one-sided difference.

    The profile derivative at the front is estimated with the second-order
    backward three-point formula, independently of the integral identities
    the solver itself uses.
    """
    f = profile.f
    n = profile.n
    if n < 2:
        raise ConfigError("front flux residual needs at least 3 nodes")
    h = profile.step
    fp = (3.0 * f[n] - 4.0 * f[n - 1] + f[n - 2]) / (2.0 * h)
    return prob.condition.flux_residual(prob, profile.lam, fp, f[n])


@dataclass(frozen=True)
class SearchStart:
    """A root found on the search grid, offered as the start of a neighbouring problem's search.

    ``f`` holds the root's profile over the relative grid xi / ``lam``,
    ``slope`` a secant slope of V - lambda through the root and another
    evaluated point, and ``tangent`` the secant of the two points' Picard
    images (``InnerResult.image``) over the same lambdas, an estimate of
    df/dlambda on the relative grid.
    """

    bc_kind: BCKind
    lam: float
    slope: float
    f: np.ndarray
    tangent: np.ndarray


@dataclass(frozen=True)
class SolveReport:
    """Full outcome of one front-coefficient solve; bracket and bc kind are the certificate's.

    ``start`` is the root on the first grid of the search (DEFAULT_GRID_N
    intervals from ``_CONTINUATION_N`` up, else the grid itself) as a start
    for a neighbouring problem, or None when the search on that grid failed.
    """

    lambda_tilde: float
    profile: ProfileGrid
    inner: InnerResult
    v_at_lambda: float
    outer_residual: float
    outer_iterations: int
    front_flux_residual: float
    profile_max: float
    existence: "ExistenceReport"
    settings: SolverSettings
    start: SearchStart | None = None


def solve_lambda(
    prob: DimensionlessProblem, settings: SolverSettings = DEFAULT_SETTINGS, start: SearchStart | None = None
) -> SolveReport:
    """Find lambda with |V(lambda) - lambda| <= outer_tol min(1, (DEFAULT_GRID_N / n)^2).

    The root is found on a ladder of grids: n itself below
    ``_CONTINUATION_N`` intervals, else DEFAULT_GRID_N and then n (nested
    iteration).  Each rung stops at outer_tol min(1, (DEFAULT_GRID_N /
    rung)^2) and runs one search: chord steps from a prediction inside the
    widened bracket, ending at the first point that meets the tolerance,
    and the ITP over the bracket (see ``_solve_in_bracket``) when there is
    no prediction or its chord does not converge; the ITP's root is its
    evaluated point with the smallest |V - lambda|.  The reported lambda is
    the last rung's root, with its own profile.

    The first rung's prediction is ``start``, the ``SolveReport.start`` of a
    neighbouring problem (a sweep passes each case's to the next), with up
    to ``_START_STEPS`` chord steps.  It is used only when it comes from the
    same kind of boundary condition and the same grid, its lambda lies in
    the widened bracket and its profile in [0, 1] (Neumann: at or above 0),
    each up to ``fixed_point._ESCAPE_TOL``; otherwise the solve is the one
    without a start, bit for bit.  Each later rung's prediction is the root
    the rung below handed on, its profile and tangent interpolated on
    xi / lambda, with up to ``_CHORD_STEPS`` chord steps.  A rung below the
    last that raises is dropped and the next one searches without a
    prediction; the last rung's error propagates.

    Each V evaluation re-solves the inner problem warm-started from the
    previous evaluation's Picard image, which continues that Picard
    sequence; chord steps add a first-order prediction (see
    ``_FrontResidual``), and a start that already meets ``inner_tol`` costs
    one kernel evaluation.  Where the Picard map contracts, the inner fixed
    point is unique and the start only affects iteration counts; where
    contraction is not certified, the start can select which fixed point the
    iteration reaches, and so V(lambda).  The lambda found from a start can
    differ from the one found without it by about the stop tolerance over
    |V' - 1|.

    ``outer_iterations`` sums, over the rungs that returned, every chord
    evaluation (the first included) and every ITP step; the ITP's bracket
    ends and scan points are not counted, nor is any V evaluation of a
    dropped rung.  The report's ``start`` is the first rung's root, or None
    when that rung was dropped.  Certification reads no grid, so the one
    certificate serves every rung.  Any MeltfrontError raised after it is
    issued carries it as ``existence``.
    """
    from .existence import certify  # deferred: existence builds on this module's bracket

    cert = certify(prob, settings)
    grids = [settings.n] if settings.n < _CONTINUATION_N else [DEFAULT_GRID_N, settings.n]
    if start is not None and not (start.bc_kind is prob.bc_kind and start.f.size == grids[0] + 1
                                  and _admissible(start.f, prob.condition.f_max)):
        start = None
    prediction, steps, handed_on = start, 0, {}
    try:
        for n in grids:
            tol = settings.outer_tol * min(1.0, (DEFAULT_GRID_N / n) ** 2)
            max_steps = _START_STEPS if n == grids[0] else _CHORD_STEPS
            on_grid = None if prediction is None else _on_grid(prediction, n)
            # a rung's root is read as a start by the rung above it and, for the first rung, by the report
            hand_on = n == grids[0] or n != grids[-1]
            try:
                best, found, rung_steps = _search(
                    prob, replace(settings, n=n), cert, tol, on_grid, max_steps, hand_on
                )
            except MeltfrontError:
                if n == grids[-1]:
                    raise
                prediction = None
                continue
            handed_on[n] = prediction = found
            steps += rung_steps
        lam, g_best, inner = best
        return SolveReport(
            lambda_tilde=lam,
            profile=inner.profile,
            inner=inner,
            v_at_lambda=g_best + lam,
            outer_residual=abs(g_best),
            outer_iterations=steps,
            front_flux_residual=front_flux_residual(prob, inner.profile),
            profile_max=float(np.max(inner.profile.f)),
            existence=cert,
            settings=settings,
            start=handed_on.get(grids[0]),
        )
    except MeltfrontError as exc:
        exc.existence = cert
        raise


# one evaluation of g = V - lambda: (lambda, g, the inner solve at lambda)
_Evaluation = tuple[float, float, InnerResult]


class _FrontResidual:
    """g(lambda) = V(lambda) - lambda on one grid, each inner solve continuing the last one's Picard sequence.

    ``warm`` and ``tangent`` hold node values over the relative grid
    xi / lambda, so they serve an inner solve at any lambda.  The first
    solve starts from ``warm``; each later one from the last evaluation's
    Picard image (``InnerResult.image``), plus (lambda - lambda_last) times
    ``tangent`` when there is one and the sum stays in [0, 1] (Neumann: at
    or above 0) up to ``_ESCAPE_TOL``.  A residual given a tangent renews it
    from the images of its last two evaluations once they lie
    ``_SLOPE_SPAN`` max(1, lambda) apart, the rule of ``_chord_partner``.
    Every evaluation is kept in ``evaluated``.
    """

    def __init__(
        self,
        prob: DimensionlessProblem,
        settings: SolverSettings,
        warm: np.ndarray | None = None,
        tangent: np.ndarray | None = None,
    ):
        self.prob = prob
        self.settings = settings
        self.warm = warm
        self.tangent = tangent
        self.evaluated: list[_Evaluation] = []

    def __call__(self, lam: float) -> float:
        value, inner = v_value(self.prob, lam, self.settings, f0=self._start(lam))
        if self.tangent is not None and self.evaluated:
            last_lam, _, last = self.evaluated[-1]
            if abs(lam - last_lam) >= _SLOPE_SPAN * max(1.0, lam):
                self.tangent = np.subtract(inner.image, last.image)
                self.tangent /= lam - last_lam
        self.warm = inner.image
        self.evaluated.append((lam, value - lam, inner))
        return value - lam

    def _start(self, lam: float) -> ProfileGrid | None:
        """The inner solve's start at lam: a copy of the caller's ``warm``, then images and predictions uncopied."""
        if self.warm is None or not self.evaluated:
            return None if self.warm is None else ProfileGrid(lam, self.warm)
        if self.tangent is not None:
            predicted = np.multiply(lam - self.evaluated[-1][0], self.tangent)
            predicted += self.warm
            if _admissible(predicted, self.prob.condition.f_max):
                return ProfileGrid._adopt(lam, predicted)
        return ProfileGrid._adopt(lam, self.warm)


def _search_interval(br: Bracket) -> tuple[float, float]:
    # widen both ends a hair: with coefficients sitting exactly on their
    # bounds the sandwich is tight and the root can coincide with either
    # bracket end, where quadrature bias leaves the residual barely one-signed
    return max(br.lambda1 * (1.0 - 1e-4), br.lambda2 * 1e-8), br.lambda2 * (1.0 + 1e-4)


def _solve_in_bracket(
    prob: DimensionlessProblem, settings: SolverSettings, cert: "ExistenceReport", tol: float
) -> tuple[list[_Evaluation], int]:
    """ITP over the widened bracket on settings.n intervals until |g| <= tol.

    When the bracket ends show no sign change, the bracket is first scanned
    at 64 points.  The search otherwise stops when the bracket is narrower
    than 1e-15 max(1, lambda) or after 200 steps.  Returns the candidates
    for the reported lambda (the bracket ends and the ITP steps), smallest
    |g| first and otherwise in evaluation order, and the number of ITP
    steps.
    """
    br = cert.bracket
    lo, hi = _search_interval(br)
    g = _FrontResidual(prob, settings)
    evaluated = g.evaluated

    ga, gb = g(lo), g(hi)
    a, b = lo, hi
    if np.sign(ga) == np.sign(gb):
        # no sign change at the endpoints: hypotheses are likely violated,
        # scan the bracket before failing
        prev_x, prev_g = lo, ga
        for x in np.linspace(lo, hi, 64)[1:]:
            gx = g(float(x))
            if np.sign(gx) != np.sign(prev_g):
                a, ga, b, gb = prev_x, prev_g, float(x), gx
                break
            prev_x, prev_g = float(x), gx
        else:
            raise ConvergenceError(
                f"V(lambda) - lambda has no sign change over the {br.provenance} bracket "
                f"[{br.lambda1:.6g}, {br.lambda2:.6g}] sampled at 64 points "
                f"(endpoint values {ga:.3g}, {gb:.3g}); existence hypotheses are likely violated",
                lam=None,
            )

    evaluated[:] = [e for e in evaluated if e[0] in (a, b)]
    ends = len(evaluated)
    # the width rule is fixed from the lower end, so it never stops the
    # search before the bracket is narrower than 1e-15 max(1, lambda)
    bisect_root(g, a, b, xtol=0.5e-15 * max(1.0, a), ftol=tol, max_iter=200, fa=ga, fb=gb)
    return sorted(evaluated, key=lambda e: abs(e[1])), len(evaluated) - ends


def _admissible(f: np.ndarray, f_max: float) -> bool:
    """Whether f lies in the condition's range [0, f_max] up to ``_ESCAPE_TOL``; NaN never does."""
    return float(np.min(f)) >= -_ESCAPE_TOL and float(np.max(f)) <= f_max + _ESCAPE_TOL


def _secant(a: _Evaluation, b: _Evaluation) -> float:
    return (a[1] - b[1]) / (a[0] - b[0])


def _chord_partner(best: _Evaluation, others: list[_Evaluation]) -> _Evaluation:
    """The nearest other point at least _SLOPE_SPAN max(1, lambda) away from best, else the farthest.

    The last chord steps can lie so close together that the noise of g (the
    inner solves stop at ``inner_tol``) swamps their secant.
    """
    span = _SLOPE_SPAN * max(1.0, abs(best[0]))
    distance = lambda e: abs(e[0] - best[0])
    far = [e for e in others if distance(e) >= span]
    return min(far, key=distance) if far else max(others, key=distance)


def _handed_on(prob: DimensionlessProblem, best: _Evaluation, partner: _Evaluation) -> SearchStart:
    """best as a start, with the secants of g and of the Picard images through best and partner."""
    lam, _, inner = best
    tangent = (inner.image - partner[2].image) / (lam - partner[0])
    return SearchStart(prob.bc_kind, lam, _secant(best, partner), inner.profile.f, tangent)


def _on_grid(start: SearchStart, n: int) -> SearchStart:
    """start with its profile and tangent interpolated on n intervals of xi / lambda."""
    if start.f.size == n + 1:
        return start
    grid, own = np.linspace(0.0, 1.0, n + 1), np.linspace(0.0, 1.0, start.f.size)
    return replace(start, f=np.interp(grid, own, start.f), tangent=np.interp(grid, own, start.tangent))


def _search(
    prob: DimensionlessProblem, settings: SolverSettings, cert: "ExistenceReport", tol: float,
    prediction: SearchStart | None, max_steps: int, hand_on: bool,
) -> tuple[_Evaluation, SearchStart | None, int]:
    """The root on settings.n intervals: up to max_steps chord steps from a prediction, else the ITP over the bracket.

    Returns the best evaluation, the root as a start for a neighbouring
    problem or a finer grid (None unless ``hand_on``), and the number of V
    evaluations.
    """
    steps = 0
    if prediction is not None:
        g = _FrontResidual(prob, settings, prediction.f, prediction.tangent)
        try:
            lam = chord_root(g, prediction.lam, prediction.slope, *_search_interval(cert.bracket),
                             ftol=tol, max_steps=max_steps)
        except MeltfrontError:
            lam = None
        steps = len(g.evaluated)
        if lam is not None:
            best = g.evaluated[-1]
            if not hand_on:
                return best, None, steps
            if steps == 1:  # the prediction's slope and tangent are handed on
                return best, replace(prediction, lam=best[0], f=best[2].profile.f), steps
            return best, _handed_on(prob, best, _chord_partner(best, g.evaluated[:-1])), steps
    ranked, itp_steps = _solve_in_bracket(prob, settings, cert, tol)
    return ranked[0], _handed_on(prob, ranked[0], ranked[1]) if hand_on else None, steps + itp_steps


def report_as_dict(report: SolveReport) -> dict:
    """JSON-ready view of a SolveReport (deterministic, no timestamps)."""
    from .existence import report_as_dict as existence_as_dict

    inner = report.inner
    return {
        "lambda": report.lambda_tilde,
        "bc_kind": report.existence.bc_kind.value,
        "v_at_lambda": report.v_at_lambda,
        "outer_residual": report.outer_residual,
        "outer_iterations": report.outer_iterations,
        "bracket": asdict(report.existence.bracket),
        "inner": {
            "iterations": inner.iterations,
            "residual": inner.residual,
            "converged": inner.converged,
            "contraction_observed": inner.contraction_observed,
            "theoretical_rate": inner.theoretical_rate,
            "clamped": inner.clamped,
            "escaped_unit_interval": inner.escaped_unit_interval,
        },
        "front_flux_residual": report.front_flux_residual,
        "profile_max": report.profile_max,
        "grid_n": report.settings.n,
        "existence": existence_as_dict(report.existence),
    }
