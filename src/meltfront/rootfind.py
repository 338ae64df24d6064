"""Scalar root helpers: one bracketed root finder and a sign-change scan.

Every scalar root of the package (sandwich curves, contraction threshold,
closed forms and the outer front-coefficient equation) goes through
:func:`bisect_root`, the ITP method of Oliveira and Takahashi ("An
Enhancement of the Bisection Method Average Performance Preserving Minmax
Optimality", ACM TOMS 47(1), 2020).  The functions involved are only known
to be continuous, which is all bisection needs; ITP needs no more.  Each
step interpolates (regula falsi), truncates the step towards the midpoint,
and projects it into a ball around the midpoint whose radius shrinks so
that the bracket never takes more steps than bisection plus one.  On smooth
functions the interpolation wins and convergence is superlinear; on rough
ones, or where the function is infinite at a bracket end, the step is the
midpoint and the method is plain bisection.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import BracketError

# ITP constants: kappa1 = _KAPPA1 / (b - a) of the initial bracket, kappa2
# and the slack n0 (steps allowed beyond the bisection bound)
_KAPPA1 = 0.2
_KAPPA2 = 2.0
_N0 = 1
# widest bracket taken: the step squares the width, which must stay finite
_MAX_WIDTH = 1e150


def bisect_root(
    fn: Callable[[float], float],
    a: float,
    b: float,
    *,
    xtol: float = 1e-13,
    ftol: float = 0.0,
    max_iter: int = 256,
    fa: float | None = None,
    fb: float | None = None,
) -> float:
    """Bracketed ITP root of fn on [a, b]; fn(a) and fn(b) must not have the same strict sign.

    Returns the first evaluated point with |fn| <= ``ftol`` (an exact zero
    always qualifies), and otherwise the midpoint of the final bracket, whose
    width is at most 2 ``xtol``: the result is then within ``xtol`` of a
    root.  At most ceil(log2((b - a) / (2 xtol))) + 1 points are evaluated
    besides the ends, whose values may be passed as ``fa`` and ``fb`` when
    the caller already has them.  The bracket must be finite and at most
    ``_MAX_WIDTH`` wide; infinite values of fn are allowed, and the step is
    then the midpoint.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and b - a <= _MAX_WIDTH):
        raise BracketError(f"bracket [{a!r}, {b!r}] is not finite or wider than {_MAX_WIDTH:g}")
    fa = float(fn(a) if fa is None else fa)
    if abs(fa) <= ftol:
        return a
    fb = float(fn(b) if fb is None else fb)
    if abs(fb) <= ftol:
        return b
    if np.sign(fa) == np.sign(fb):
        raise BracketError(f"no sign change on [{a!r}, {b!r}]: f(a)={fa!r}, f(b)={fb!r}")
    # orient so that the function rises through the bracket
    s = 1.0 if fb > 0.0 else -1.0
    ya, yb = s * fa, s * fb
    width = b - a
    if width <= 2.0 * xtol:
        return 0.5 * (a + b)
    n_max = math.ceil(math.log2(width / (2.0 * xtol))) + _N0
    kappa1 = _KAPPA1 / width
    for j in range(min(n_max, max_iter)):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        # interpolate, truncate towards the midpoint, project into the minmax ball
        x = (yb * a - ya * b) / (yb - ya)
        if not a < x < b:
            x = mid
        sigma = 1.0 if mid >= x else -1.0
        delta = kappa1 * (b - a) ** _KAPPA2
        x = x + sigma * delta if delta <= abs(mid - x) else mid
        r = math.ldexp(xtol, n_max - j) - half
        if abs(x - mid) > r:
            x = mid - sigma * r
        if not a < x < b:
            if not a < mid < b:
                break  # no float left strictly inside the bracket
            x = mid
        fx = float(fn(x))
        if abs(fx) <= ftol:
            return x
        if s * fx > 0.0:
            b, yb = x, s * fx
        else:
            a, ya = x, s * fx
        if b - a <= 2.0 * xtol:
            break
    return 0.5 * (a + b)


def sign_change_intervals(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    points: int,
) -> list[tuple[float, float]]:
    """All bracketing sub-intervals of a uniform scan of fn over [lo, hi].

    ``fn`` is called once, on the whole array of scan points.  Non-finite
    values (the scan may touch a pole) are treated by their sign; NaN
    samples are skipped.  An exact zero at a scan point is recorded as a
    degenerate bracket and does not pair with its neighbours.
    """
    xs = np.linspace(lo, hi, points)
    with np.errstate(all="ignore"):
        values = np.asarray(fn(xs), dtype=float)
    keep = ~np.isnan(values)
    xs, signs = xs[keep], np.sign(values[keep])
    change = np.concatenate([[False], signs[1:] * signs[:-1] < 0.0])
    brackets = []
    for i in np.flatnonzero(change | (signs == 0.0)):
        x = float(xs[i])
        brackets.append((x, x) if signs[i] == 0.0 else (float(xs[i - 1]), x))
    return brackets


def refine_roots(
    fn: Callable[[float], float],
    brackets: Sequence[tuple[float, float]],
    *,
    xtol: float = 1e-13,
) -> list[float]:
    roots = []
    for a, b in brackets:
        if a == b:
            roots.append(a)
        else:
            roots.append(bisect_root(fn, a, b, xtol=xtol))
    return roots
