import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erf

from meltfront import (
    DEFAULT_GRID_N,
    BCKind,
    ConfigError,
    ConvergenceError,
    Neumann,
    SolverSettings,
    bracket,
    build_dimensionless,
    constant_model,
    constant_problem,
    front_flux_residual,
    linear_problem,
    solve_lambda,
    table_model,
    v_value,
)
from meltfront import fixed_point, lambda_solver
from meltfront.lambda_solver import v2_curve

from conftest import bisect_ref, full_bracket_lambda

DIRICHLET_PE0_STE1 = 0.620062633313595  # root of sqrt(pi) x erf(x) exp(x^2) = 1
NEUMANN_LOAD_HALF = 0.419364824019131  # root of x exp(x^2) = 1/2


def test_v_matches_constant_coefficient_closed_form():
    prob = constant_problem(BCKind.DIRICHLET, Pe=0.0, Ste=1.0, T_star=2.0, T_m=1.0)
    lam = 0.5
    value, inner = v_value(prob, lam)
    assert inner.converged
    expected = 1.0 * math.exp(-(lam**2)) / (math.sqrt(math.pi) * erf(lam))
    assert value == pytest.approx(expected, abs=5e-7)


def test_robin_v_vanishes_with_biot():
    prob = constant_problem(BCKind.ROBIN, Pe=0.5, Ste=1.0, Bi=1e-9, T_star=2.0, T_m=1.0)
    value, _ = v_value(prob, 0.5)
    assert 0.0 < value < 1e-8


def test_bracket_dirichlet_lower_root(linear_dirichlet):
    br = bracket(linear_dirichlet)
    assert br.provenance == "analytic"
    assert abs(linear_dirichlet.condition.v1(linear_dirichlet, br.lambda1) - br.lambda1) <= 1e-10
    assert abs(v2_curve(linear_dirichlet, br.lambda2) - br.lambda2) <= 1e-10
    assert br.lambda1 < br.lambda2


def test_bracket_zero_lower_end_for_robin_and_radiative():
    pr = linear_problem(BCKind.ROBIN, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0, Bi=0.7)
    assert bracket(pr).lambda1 == 0.0
    prad = constant_problem(BCKind.RADIATIVE, Pe=0.5, Ste=1.0, Bi=0.1, r=0.01, T_star=2.0, T_m=1.0)
    assert bracket(prad).lambda1 == 0.0


def test_bracket_neumann_lower_root_frozen():
    # q*/(M L_M) = 0.3 with L_M = N_M = 1: lambda1 solves 0.3 exp(-x^2) = x
    prob = constant_problem(BCKind.NEUMANN, Pe=0.0, q_star=0.6, M=2.0, T_m=1.0)
    br = bracket(prob)
    oracle = bisect_ref(lambda x: 0.3 * math.exp(-(x**2)) - x, 0.0, 1.0)
    assert oracle == pytest.approx(0.27772978417882754, abs=1e-12)
    assert br.lambda1 == pytest.approx(oracle, abs=1e-9)


def test_solve_dirichlet_classical_value():
    prob = constant_problem(BCKind.DIRICHLET, Pe=0.0, Ste=1.0, T_star=2.0, T_m=1.0)
    settings = SolverSettings(n=4096, outer_tol=1e-12)
    report = solve_lambda(prob, settings)
    assert report.lambda_tilde == pytest.approx(DIRICHLET_PE0_STE1, abs=1e-8)


def test_solve_neumann_through_dimensional_route():
    # q/(rho0 ell sqrt(alpha0)) = 0.5 -> x exp(x^2) = 1/2
    model = constant_model(1.0, 1.0, 1.0, 1.0, Pe=0.0)
    prob = build_dimensionless(model, Neumann(q=0.5, T_m=1.0))
    report = solve_lambda(prob, SolverSettings(n=4096, outer_tol=1e-12))
    assert report.lambda_tilde == pytest.approx(NEUMANN_LOAD_HALF, abs=1e-8)


def test_robin_large_biot_approaches_dirichlet():
    pd = constant_problem(BCKind.DIRICHLET, Pe=0.5, Ste=1.0, T_star=2.0, T_m=1.0)
    ph = constant_problem(BCKind.ROBIN, Pe=0.5, Ste=1.0, Bi=1e4, T_star=2.0, T_m=1.0)
    lam_d = solve_lambda(pd).lambda_tilde
    lam_h = solve_lambda(ph).lambda_tilde
    assert lam_h < lam_d
    assert abs(lam_h - lam_d) <= 1e-3


@pytest.mark.parametrize(
    "prob",
    [
        constant_problem(BCKind.DIRICHLET, Pe=0.5, Ste=1.0, T_star=2.0, T_m=1.0),
        linear_problem(BCKind.DIRICHLET, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0),
        constant_problem(BCKind.NEUMANN, Pe=0.5, q_star=1.0, M=2.0, T_m=1.0),
        linear_problem(BCKind.ROBIN, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0, Bi=0.7),
        linear_problem(
            BCKind.RADIATIVE, alpha=0.05, beta=0.05, Pe=0.3, Ste=0.5, Bi=0.05, r=0.005, T_star=2.0, T_m=1.0
        ),
        # N* and L* varying on their own: the Neumann curves need E's envelopes exactly
        linear_problem(BCKind.NEUMANN, alpha=1.0, beta=0.0, Pe=0.0, q_star=0.5, M=1.0, T_m=1.0),
        linear_problem(BCKind.NEUMANN, alpha=0.0, beta=1.0, Pe=0.0, q_star=0.5, M=1.0, T_m=1.0),
    ],
)
def test_sandwich_inside_bracket(prob):
    br = bracket(prob)
    settings = SolverSettings(n=256)
    lams = np.linspace(max(br.lambda1, br.lambda2 * 1e-3), br.lambda2, 18)[1:-1]
    for lam in lams:
        value, _ = v_value(prob, float(lam), settings)
        lo = prob.condition.v1(prob, float(lam))
        hi = v2_curve(prob, float(lam))
        assert lo - 1e-6 < value < hi + 1e-6
    # the root lies in the analytic bracket, up to the solver's widening by 1e-4
    lam = solve_lambda(prob, settings).lambda_tilde
    assert br.provenance == "analytic"
    assert br.lambda1 * (1.0 - 1e-4) <= lam <= br.lambda2 * (1.0 + 1e-4)


def test_root_quality_and_bracket_containment(linear_dirichlet):
    report = solve_lambda(linear_dirichlet)
    assert report.outer_residual <= report.settings.outer_tol
    assert report.existence.bracket.lambda1 <= report.lambda_tilde
    # the search interval is widened a hair past lambda2 for degenerate
    # (envelope-tight) problems
    assert report.lambda_tilde <= report.existence.bracket.lambda2 * (1.0 + 1e-4)
    assert report.v_at_lambda == pytest.approx(report.lambda_tilde, abs=report.settings.outer_tol)


def test_lambda_increases_with_stefan_number():
    lams = []
    for Ste in np.linspace(0.1, 2.0, 6):
        prob = constant_problem(BCKind.DIRICHLET, Pe=0.0, Ste=float(Ste), T_star=2.0, T_m=1.0)
        lams.append(solve_lambda(prob).lambda_tilde)
    assert np.all(np.diff(lams) > 0.0)


@pytest.mark.parametrize("n", [64, 4096])
def test_no_sign_change_diagnostics(n):
    # zero exchange: V is identically 0, so no front coefficient exists; on a
    # fine grid the coarse search fails first and the fine one fails the same way
    prob = constant_problem(BCKind.RADIATIVE, Pe=0.5, Ste=1.0, Bi=0.0, r=0.0, T_star=2.0, T_m=1.0)
    with pytest.raises(ConvergenceError, match="no sign change") as exc:
        solve_lambda(prob, SolverSettings(n=n))
    # the failure carries the certificate the solve issued
    assert exc.value.existence is not None and not exc.value.existence.certified


def test_rescue_scan_finds_a_root_the_bracket_ends_miss():
    # V - lambda is positive at both ends of the analytic bracket and dips
    # below zero inside it, so only the 64-point rescue scan finds the root
    model = table_model(
        (0.5, 1.375, 2.25, 3.125, 4.0),
        (1.6227, 0.8131, 0.6632, 1.7020, 0.2632),
        (0.7514, 1.2902, 1.0091, 0.7023, 1.2366),
        (1.7969, 1.5309, 2.2497, 3.4713, 4.3770),
        1.0, 1.0, 1.0, 2.9416,
    )
    prob = build_dimensionless(model, Neumann(q=0.28106, T_m=1.0))
    settings = SolverSettings(n=64)
    report = solve_lambda(prob, settings)
    br = report.existence.bracket
    assert br.provenance == "analytic" and not report.existence.certified
    for end in (br.lambda1, br.lambda2):
        assert v_value(prob, end, settings)[0] - end > 0.0
    assert report.lambda_tilde == pytest.approx(0.1418225, abs=1e-5)
    assert report.outer_residual <= settings.outer_tol


def test_inner_failure_carries_lambda(linear_dirichlet):
    with pytest.raises(ConvergenceError) as exc:
        v_value(linear_dirichlet, 0.4, SolverSettings(max_iter=1, inner_tol=1e-14))
    assert exc.value.lam == pytest.approx(0.4)


def test_front_flux_residual_small_on_converged_profile():
    prob = constant_problem(BCKind.DIRICHLET, Pe=0.5, Ste=1.0, T_star=2.0, T_m=1.0)
    report = solve_lambda(prob)
    assert report.front_flux_residual <= 1e-3
    assert front_flux_residual(prob, report.profile) == report.front_flux_residual


def test_report_payload_is_json_ready():
    import json

    from meltfront.lambda_solver import report_as_dict

    prob = constant_problem(BCKind.DIRICHLET, Pe=0.0, Ste=1.0, T_star=2.0, T_m=1.0)
    payload = report_as_dict(solve_lambda(prob))
    text = json.dumps(payload, sort_keys=True)
    assert "existence" in payload
    assert json.loads(text)["lambda"] == payload["lambda"]


@pytest.mark.parametrize(
    "field, value",
    [("inner_tol", math.nan), ("outer_tol", math.nan), ("outer_tol", math.inf), ("lambda_max", math.inf),
     ("lambda_max", math.nan)],
)
def test_settings_reject_non_finite_numbers(field, value):
    with pytest.raises(ConfigError, match="finite"):
        SolverSettings(**{field: value})


def _kernel_nodes(monkeypatch) -> list[int]:
    """The node count of every kernel evaluation made from now on."""
    original, nodes = fixed_point.eval_kernels, []

    def counting(profile, prob):
        nodes.append(profile.f.size)
        return original(profile, prob)

    monkeypatch.setattr(fixed_point, "eval_kernels", counting)
    return nodes


def test_fine_grid_spends_few_kernel_evaluations_on_its_own_nodes(linear_dirichlet, monkeypatch):
    # the bracketed search on the fine grid itself took 44 evaluations on 16,385 nodes
    nodes = _kernel_nodes(monkeypatch)
    settings = SolverSettings(n=16384)
    report = solve_lambda(linear_dirichlet, settings)
    assert 0 < nodes.count(16385) <= 12
    assert set(nodes) == {16385, DEFAULT_GRID_N + 1}
    assert report.outer_residual <= settings.outer_tol * (DEFAULT_GRID_N / 16384) ** 2
    assert report.profile.f.size == 16385 and report.profile.lam == report.lambda_tilde
    assert report.inner.profile is report.profile


def test_a_tight_outer_tol_on_the_fine_grid_takes_few_fine_kernel_evaluations(linear_dirichlet, monkeypatch):
    # each inner solve warm-started from the last returned profile took 137
    nodes = _kernel_nodes(monkeypatch)
    report = solve_lambda(linear_dirichlet, SolverSettings(n=16384, outer_tol=1e-12))
    assert abs(report.lambda_tilde - 0.7276513078964547) <= 1e-15 * 0.7276513078964547
    assert nodes.count(16385) <= 100


def _inner_starts(monkeypatch) -> list:
    """The start of every inner solve, in call order."""
    starts, original = [], lambda_solver.solve_profile

    def recording(prob, lam, **kwargs):
        starts.append(kwargs["f0"])
        return original(prob, lam, **kwargs)

    monkeypatch.setattr(lambda_solver, "solve_profile", recording)
    return starts


@pytest.mark.parametrize(
    "kind, params", [(BCKind.DIRICHLET, {"Ste": 1.0}), (BCKind.NEUMANN, {"q_star": 0.5, "M": 1.0})]
)
def test_a_prediction_outside_the_unit_interval_starts_from_the_plain_image(monkeypatch, kind, params):
    prob = linear_problem(kind, alpha=0.1, beta=0.1, Pe=0.5, **params)
    settings = SolverSettings(n=64)
    lam = solve_lambda(prob, settings).lambda_tilde
    starts = _inner_starts(monkeypatch)
    inside = np.zeros(65)
    inside[1:-1] = 1e-3
    neumann = kind is BCKind.NEUMANN
    # (tangent, taken): Dirichlet images end at exactly 0 and 1, Neumann images at 0
    for tangent, taken in [(inside, True), (np.full(65, 1e4), neumann), (np.full(65, -1e4), False)]:
        warm = np.linspace(0.0, 1.0, 65)
        g = lambda_solver._FrontResidual(prob, settings, warm, tangent)
        g(lam)
        g(lam * 1.001)
        assert np.array_equal(starts[-2].f, warm)
        image = g.evaluated[0][2].image
        expected = image + (lam * 1.001 - lam) * tangent if taken else image
        assert np.array_equal(starts[-1].f, expected)
        # 1e-3 lam apart: the tangent is renewed from the two images; 1e-12 apart it is kept
        renewed = (g.evaluated[1][2].image - image) / (lam * 1.001 - lam)
        assert np.array_equal(g.tangent, renewed)
        kept = g.tangent
        g(lam * 1.001 + 1e-12)
        assert g.tangent is kept


@pytest.mark.parametrize("n", [64, DEFAULT_GRID_N, 1024, 2047])
def test_grids_below_four_default_grids_are_solved_on_their_own_nodes(linear_dirichlet, monkeypatch, n):
    nodes = _kernel_nodes(monkeypatch)
    solve_lambda(linear_dirichlet, SolverSettings(n=n))
    assert nodes and set(nodes) == {n + 1}


def test_a_chord_that_cannot_converge_falls_back_to_the_bracketed_search(linear_dirichlet, monkeypatch):
    settings = SolverSettings(n=4096)
    original, results = lambda_solver.chord_root, []

    def wrong_slope(fn, x0, slope, lo, hi, **kwargs):
        # a slope of the wrong sign walks away from the root
        results.append(original(fn, x0, -slope, lo, hi, **kwargs))
        return results[-1]

    monkeypatch.setattr(lambda_solver, "chord_root", wrong_slope)
    report = solve_lambda(linear_dirichlet, settings)
    assert results == [None]
    assert report.lambda_tilde == full_bracket_lambda(linear_dirichlet, settings)
    assert report.profile.f.size == 4097


def test_a_coarse_search_that_raises_falls_back_to_the_bracketed_search(linear_dirichlet, monkeypatch):
    settings = SolverSettings(n=4096)
    original, raised = lambda_solver._solve_in_bracket, []

    def failing_coarse(prob, grid_settings, cert, tol):
        if grid_settings.n == DEFAULT_GRID_N:
            raised.append(tol)
            raise ConvergenceError("coarse search failed", lam=None)
        return original(prob, grid_settings, cert, tol)

    monkeypatch.setattr(lambda_solver, "_solve_in_bracket", failing_coarse)
    report = solve_lambda(linear_dirichlet, settings)
    assert raised == [settings.outer_tol]
    monkeypatch.undo()
    assert report.lambda_tilde == full_bracket_lambda(linear_dirichlet, settings)


def test_a_fine_evaluation_that_raises_falls_back_to_the_bracketed_search(linear_dirichlet, monkeypatch):
    settings = SolverSettings(n=4096)
    original, raised = lambda_solver.v_value, []

    def failing_once(prob, lam, grid_settings, f0=None):
        if grid_settings.n == 4096 and not raised:
            raised.append(lam)
            raise ConvergenceError("inner iteration failed", lam=lam)
        return original(prob, lam, grid_settings, f0=f0)

    monkeypatch.setattr(lambda_solver, "v_value", failing_once)
    report = solve_lambda(linear_dirichlet, settings)
    assert len(raised) == 1
    monkeypatch.undo()
    assert report.lambda_tilde == full_bracket_lambda(linear_dirichlet, settings)


def _start(name: str, prob):
    """A start for prob's search on DEFAULT_GRID_N intervals: its own root, a neighbour's, or a refused one."""
    if name is None:
        return None
    own = solve_lambda(prob).start
    return {
        "own": own,
        "neighbour": solve_lambda(linear_problem(BCKind.DIRICHLET, alpha=0.2, beta=0.1, Pe=0.5, Ste=1.0)).start,
        "robin": solve_lambda(linear_problem(BCKind.ROBIN, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0, Bi=0.7)).start,
        "n=1024": solve_lambda(prob, SolverSettings(n=1024)).start,
        "lifted": replace(own, f=own.f * (1.0 + 1e-8)),
    }[name]


def _negated_chord_slope(monkeypatch):
    # a slope of the wrong sign walks away from the root
    original = lambda_solver.chord_root
    monkeypatch.setattr(lambda_solver, "chord_root",
                        lambda fn, x0, slope, lo, hi, **kwargs: original(fn, x0, -slope, lo, hi, **kwargs))


def _raising_coarse_itp(monkeypatch):
    original = lambda_solver._solve_in_bracket

    def failing_coarse(prob, grid_settings, cert, tol):
        if grid_settings.n == DEFAULT_GRID_N:
            raise ConvergenceError("coarse search failed", lam=None)
        return original(prob, grid_settings, cert, tol)

    monkeypatch.setattr(lambda_solver, "_solve_in_bracket", failing_coarse)


COARSE_ROOT = ("0x1.748eb9839ddc1p-1", "-0x1.2b801b6175539p+1")


# (n, start, patches, lambda_tilde.hex(), outer_iterations, (start.lam.hex(), start.slope.hex()) or None)
SEARCH_PATHS = {
    "a-cold": (DEFAULT_GRID_N, None, [], COARSE_ROOT[0], 7, COARSE_ROOT),
    # the slope and tangent a one-step chord took are handed on unchanged
    "b-own-start": (DEFAULT_GRID_N, "own", [], COARSE_ROOT[0], 1, COARSE_ROOT),
    "c-neighbour-start": (DEFAULT_GRID_N, "neighbour", [], "0x1.748eb9838c133p-1", 5,
                          ("0x1.748eb9838c133p-1", "-0x1.2b7f73624fbdfp+1")),
    "d-refused-bc-kind": (DEFAULT_GRID_N, "robin", [], COARSE_ROOT[0], 7, COARSE_ROOT),
    "d-refused-grid": (DEFAULT_GRID_N, "n=1024", [], COARSE_ROOT[0], 7, COARSE_ROOT),
    "d-refused-profile": (DEFAULT_GRID_N, "lifted", [], COARSE_ROOT[0], 7, COARSE_ROOT),
    # 7 coarse ITP steps and 2 fine chord evaluations
    "e-fine-chord": (4096, None, [], "0x1.748eb660921adp-1", 9, COARSE_ROOT),
    # 7 coarse ITP steps, 5 fine chord evaluations and 7 fine ITP steps
    "f-fine-itp": (4096, None, [_negated_chord_slope], "0x1.748eb6609045fp-1", 19, COARSE_ROOT),
    # the coarse grid raises: only the 7 fine ITP steps count
    "g-coarse-raises": (4096, None, [_raising_coarse_itp], "0x1.748eb6609045fp-1", 7, None),
    # the coarse chord from the neighbour fails and its ITP raises: its steps are dropped too
    "g-coarse-raises-after-chord": (4096, "neighbour", [_negated_chord_slope, _raising_coarse_itp],
                                    "0x1.748eb6609045fp-1", 7, None),
}


@pytest.mark.parametrize("path", SEARCH_PATHS)
def test_each_search_path_pins_its_root_count_and_start(linear_dirichlet, monkeypatch, path):
    n, start_name, patches, lam_hex, steps, report_start = SEARCH_PATHS[path]
    start = _start(start_name, linear_dirichlet)
    for patch in patches:
        patch(monkeypatch)
    report = solve_lambda(linear_dirichlet, SolverSettings(n=n), start)
    assert report.lambda_tilde.hex() == lam_hex
    assert report.outer_iterations == steps
    found = None if report.start is None else (report.start.lam.hex(), report.start.slope.hex())
    assert found == report_start


@pytest.mark.parametrize("n", [DEFAULT_GRID_N, 4096])
def test_a_start_is_built_only_for_a_rung_whose_start_is_read(linear_dirichlet, monkeypatch, n):
    # the first rung's start is the report's and the next rung's prediction; a last rung above it hands on nothing
    original = lambda_solver._handed_on
    built = []
    monkeypatch.setattr(lambda_solver, "_handed_on", lambda prob, best, partner: built.append(best[0])
                        or original(prob, best, partner))
    report = solve_lambda(linear_dirichlet, SolverSettings(n=n))
    assert built == [report.start.lam]


@pytest.mark.parametrize("kind, params", [(BCKind.DIRICHLET, {}), (BCKind.ROBIN, {"Bi": 0.7})])
def test_v2_scan_and_refine_see_one_function(kind, params):
    # the bracket scan calls v2_curve on an array, the lambda2 refine on floats
    prob = linear_problem(kind, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0, **params)
    lambda_max = SolverSettings().lambda_max
    xs = np.linspace(lambda_max * 1e-9, lambda_max, lambda_solver._SCAN_POINTS)
    refined = [v2_curve(prob, float(x)) for x in xs]
    assert all(type(v) is float for v in refined)
    assert v2_curve(prob, xs).tobytes() == np.array(refined).tobytes()
