import math

import numpy as np
import pytest

import meltfront.fixed_point as fixed_point
from meltfront import BCKind, BracketError, constant_problem, dirichlet_constant, neumann_constant, solve_lambda
from meltfront.lambda_solver import bracket, v2_curve
from meltfront.rootfind import bisect_root, sign_change_intervals


def counted(fn):
    def wrapper(x):
        wrapper.calls += 1
        return fn(x)

    wrapper.calls = 0
    return wrapper


def bisection_bound(a: float, b: float, xtol: float) -> int:
    return math.ceil(math.log2((b - a) / (2.0 * xtol))) + 1


CASES = [
    (lambda x: x**3 - 2.0, 0.0, 4.0),
    (lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0),
    (lambda x: math.copysign(abs(x - 0.7) ** (1.0 / 3.0), x - 0.7), 0.0, 1.0),
    (lambda x: 1.0 / (1.001 - x) - 5.0, 0.0, 1.0),
    (lambda x: math.exp(x) - 10.0, -3.0, 10.0),
    (lambda x: -1.0 if x < 0.123456 else 1.0, 0.0, 1.0),
]


@pytest.mark.parametrize("fn, a, b", CASES)
@pytest.mark.parametrize("xtol", [1e-6, 1e-10, 1e-14])
def test_steps_never_exceed_bisection_bound(fn, a, b, xtol):
    f = counted(fn)
    root = bisect_root(f, a, b, xtol=xtol)
    assert f.calls - 2 <= bisection_bound(a, b, xtol)
    # the result brackets a sign change within xtol
    assert math.copysign(1.0, fn(root - xtol)) != math.copysign(1.0, fn(root + xtol)) or fn(root) == 0.0


def test_smooth_functions_take_few_steps():
    f = counted(lambda x: x**3 - 2.0)
    root = bisect_root(f, 0.0, 4.0, xtol=1e-14)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-14)
    assert f.calls - 2 < bisection_bound(0.0, 4.0, 1e-14) // 2


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_infinite_bracket_end_falls_back_to_midpoint(sign):
    # the contraction threshold search sees +inf past a pole of the bound
    def fn(z):
        return sign * (math.inf if z >= 0.8 else z / (0.8 - z) - 1.0)

    f = counted(fn)
    root = bisect_root(f, 0.0, 64.0, xtol=1e-14)
    assert root == pytest.approx(0.4, abs=1e-14)
    assert f.calls - 2 <= bisection_bound(0.0, 64.0, 1e-14)


def test_exact_zeros_stop_the_search():
    f = counted(lambda x: x - 0.5)
    assert bisect_root(f, 0.0, 1.0) == 0.5
    assert f.calls == 3  # the interpolation step hits the root exactly
    g = counted(lambda x: x - 0.25)
    assert bisect_root(g, 0.25, 1.0) == 0.25
    assert g.calls == 1
    assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_residual_tolerance_returns_an_evaluated_point():
    seen = []

    def fn(x):
        seen.append(x)
        return math.atan(x - 0.3)

    root = bisect_root(fn, 0.0, 2.0, xtol=1e-15, ftol=1e-6)
    assert root in seen
    assert abs(math.atan(root - 0.3)) <= 1e-6


def test_known_end_values_are_not_re_evaluated():
    f = counted(lambda x: x**2 - 2.0)
    root = bisect_root(f, 0.0, 2.0, xtol=1e-14, fa=-2.0, fb=2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert f.calls <= bisection_bound(0.0, 2.0, 1e-14)


def test_degenerate_brackets():
    assert bisect_root(lambda x: x - 0.5, 0.5, 0.5) == 0.5
    with pytest.raises(BracketError):
        bisect_root(lambda x: x - 0.5, 0.7, 0.7)
    with pytest.raises(BracketError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)
    # a sign change narrower than 2 xtol returns its midpoint without stepping
    f = counted(lambda x: x - 0.3)
    assert bisect_root(f, 0.3 - 1e-16, 0.3 + 1e-16, xtol=1e-14) == pytest.approx(0.3, abs=1e-15)
    assert f.calls == 2


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan), (0.0, 1e300)])
def test_non_finite_or_too_wide_brackets_are_bracket_errors(a, b):
    f = counted(lambda x: x - 1.0)
    with pytest.raises(BracketError, match="not finite or wider"):
        bisect_root(f, a, b)
    assert f.calls == 0


def test_results_are_plain_floats():
    root = bisect_root(lambda x: np.float64(x) - 0.3, np.float64(0.0), np.float64(1.0), xtol=1e-14)
    assert type(root) is float


# closed-form roots computed by plain bisection at width 1e-14
PINNED_DIRICHLET = {
    (0.1, 0.0): 0.22001627274294117,
    (1.0, 0.0): 0.6200626333135986,
    (1.0, 0.5): 0.7125665830631078,
    (2.0, 1.0): 1.1269849366110987,
    (5.0, 2.0): 2.2065179115299243,
}
PINNED_NEUMANN = {
    (0.5, 0.0): (0.4193648240191289,),
    (0.2, 1.0): (0.361750630805437,),
    (0.05, 2.0): (0.0644310659193871, 0.995741315920804, 2.373842124769256),
    (0.3, 1.8): (2.802715522477535,),
}


@pytest.mark.parametrize("key", sorted(PINNED_DIRICHLET))
def test_dirichlet_closed_form_roots_pinned(key):
    assert abs(dirichlet_constant(*key).lam - PINNED_DIRICHLET[key]) <= 1e-13


@pytest.mark.parametrize("key", sorted(PINNED_NEUMANN))
def test_neumann_closed_form_roots_pinned(key):
    roots = neumann_constant(*key).roots
    assert len(roots) == len(PINNED_NEUMANN[key])
    assert np.max(np.abs(np.subtract(roots, PINNED_NEUMANN[key]))) <= 1e-13


def scan_reference(fn, lo, hi, points):
    """The point-by-point scan: one scalar call per point."""
    brackets = []
    prev_x, prev_s = None, 0.0
    for x in np.linspace(lo, hi, points):
        v = fn(float(x))
        if np.isnan(v):
            continue
        s = np.sign(v)
        if prev_x is not None and s != 0.0 and prev_s != 0.0 and s != prev_s:
            brackets.append((prev_x, float(x)))
        if s != 0.0:
            prev_x, prev_s = float(x), s
        else:
            brackets.append((float(x), float(x)))
            prev_x, prev_s = float(x), 0.0
    return brackets


def test_vectorised_scan_matches_point_by_point_scan():
    def fn(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            v = np.where(np.abs(x - 0.5) < 0.02, np.nan, np.sin(12.0 * x))
            v = np.where(np.abs(x - 0.8) < 0.01, np.inf, v)
            v = np.where(x == 0.0, 0.0, v)
        return v if v.ndim else float(v)

    fast = sign_change_intervals(fn, 0.0, 1.0, 101)
    assert fast == scan_reference(fn, 0.0, 1.0, 101)
    assert (0.0, 0.0) in fast
    assert len(fast) >= 3


@pytest.mark.parametrize("kind", list(BCKind))
def test_v2_curve_array_call_matches_scalar_calls(kind):
    extra = {
        BCKind.DIRICHLET: dict(Ste=1.0, T_star=2.0, T_m=1.0),
        BCKind.ROBIN: dict(Ste=1.0, Bi=0.7, T_star=2.0, T_m=1.0),
        BCKind.NEUMANN: dict(q_star=1.0, M=2.0, T_m=1.0),
        BCKind.RADIATIVE: dict(Ste=0.5, Bi=0.05, r=0.005, T_star=2.0, T_m=1.0),
    }[kind]
    prob = constant_problem(kind, Pe=0.5, **extra)
    lams = np.linspace(1e-8, 10.0, 1024)
    scalar = np.array([v2_curve(prob, float(x)) for x in lams])
    np.testing.assert_allclose(v2_curve(prob, lams), scalar, rtol=4 * np.finfo(float).eps, atol=0.0)
    assert type(v2_curve(prob, 0.5)) is float
    br = bracket(prob)
    assert abs(v2_curve(prob, br.lambda2) - br.lambda2) <= 1e-10


def test_outer_solve_step_and_kernel_counts(linear_dirichlet, monkeypatch):
    original = fixed_point.eval_kernels
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fixed_point, "eval_kernels", counting)
    report = solve_lambda(linear_dirichlet)
    assert report.outer_iterations <= 10  # plain bisection took 30
    assert len(calls) <= 50  # plain bisection took 124
    assert report.outer_residual <= report.settings.outer_tol
    assert type(report.lambda_tilde) is float
    # the reported lambda was evaluated, and the report carries its own profile
    assert report.profile.lam == report.lambda_tilde
    assert report.v_at_lambda - report.lambda_tilde == pytest.approx(0.0, abs=report.settings.outer_tol)
