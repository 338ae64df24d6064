"""Sweep cases start from the root of the case before them.

Each case's search starts from the previous ``ok`` case's root
(``SolveReport.start``); a start that fails a guard, the first case and a
case after an error row are solved as if alone, bit for bit.
"""

import csv
import importlib.util
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from meltfront import DEFAULT_GRID_N, BCKind, cli, fixed_point, lambda_solver, linear_problem, solve_lambda
from meltfront.cli import build_problem, main
from meltfront.lambda_solver import SolverSettings

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
REFERENCE = json.loads((BENCH / "reference.json").read_text())["sweep-fine"]
SMALL_SWEEP = {
    "coefficients.alpha": [0.0, 0.1, 0.3],
    "coefficients.beta": [0.05, 0.2],
    "coefficients.Pe": [0.0, 0.5],
}
PARAMS = ("alpha", "beta", "Pe")


def _tol_n(n: int) -> float:
    return SolverSettings().outer_tol * min(1.0, (DEFAULT_GRID_N / n) ** 2)


def _run_sweep(tmp_path: Path, name: str, sweep: dict, grid: int | None) -> tuple[int, list[dict], bytes]:
    cfg = WORKLOADS.sweep_config()
    cfg["sweep"] = sweep
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    argv = ["sweep", "--config", str(path), "--out", str(out), "--quiet"]
    rc = main(argv if grid is None else [*argv, "--grid", str(grid)])
    data = (out / "sweep.csv").read_bytes()
    with (out / "sweep.csv").open(newline="") as fh:
        return rc, list(csv.DictReader(fh)), data


def _cold(row: dict, grid: int | None, **tolerances):
    """The row's case solved alone, without a start, with the config's settings or the given tolerances."""
    cfg = WORKLOADS.sweep_config()
    del cfg["sweep"]
    for name in PARAMS:
        if f"coefficients.{name}" in row:
            cfg["coefficients"][name] = float(row[f"coefficients.{name}"])
    problem = build_problem(cfg, grid)
    return solve_lambda(problem.prob, replace(problem.settings, **tolerances))


def _recording_starts(monkeypatch) -> list:
    """The start each sweep case is solved from, in case order."""
    starts, original = [], cli.solve_lambda

    def recording(prob, settings, start=None):
        starts.append(start)
        return original(prob, settings, start)

    monkeypatch.setattr(cli, "solve_lambda", recording)
    return starts


@pytest.mark.parametrize("grid", [None, 2048])
def test_sweep_rows_stay_within_the_stop_tolerance_of_cold_solves(tmp_path, monkeypatch, grid):
    starts = _recording_starts(monkeypatch)
    rc, rows, data = _run_sweep(tmp_path, "first", SMALL_SWEEP, grid)
    assert rc == 0 and len(rows) == 12
    # every case after the first starts from its neighbour
    assert starts[0] is None and all(start is not None for start in starts[1:])
    tol = _tol_n(grid or DEFAULT_GRID_N)
    for row in rows:
        assert row["status"] == "ok"
        assert float(row["outer_residual"]) <= tol
        cold = _cold(row, grid)
        assert abs(float(row["lambda"]) - cold.lambda_tilde) <= 2.0 * tol
        assert row["certified"] == str(cold.existence.certified)
    # the row order fixes every start, so a second run writes the same bytes
    assert _run_sweep(tmp_path, "second", SMALL_SWEEP, grid)[2] == data


def test_a_case_after_an_error_row_is_solved_cold(tmp_path, monkeypatch):
    starts = _recording_starts(monkeypatch)
    # alpha = 50 overflows the kernels inside solve_lambda
    rc, rows, _ = _run_sweep(tmp_path, "sweep", {"coefficients.alpha": [0.1, 50.0, 0.2]}, None)
    assert rc == 2
    assert [row["status"][:6] for row in rows] == ["ok", "error:", "ok"]
    assert starts[0] is None and starts[1] is not None and starts[2] is None
    cold = _cold(rows[2], None)
    assert float(rows[2]["lambda"]) == cold.lambda_tilde
    assert float(rows[2]["outer_residual"]) == cold.outer_residual
    assert int(rows[2]["inner_iterations"]) == cold.inner.iterations
    assert float(rows[2]["front_flux_residual"]) == cold.front_flux_residual


def _same(a, b) -> bool:
    return (
        a.lambda_tilde == b.lambda_tilde
        and a.outer_iterations == b.outer_iterations
        and a.outer_residual == b.outer_residual
        and a.profile.f.tobytes() == b.profile.f.tobytes()
    )


@pytest.mark.parametrize("n", [DEFAULT_GRID_N, 2048])
def test_guarded_starts_are_solved_cold(n):
    settings = SolverSettings(n=n)
    prob = linear_problem(BCKind.DIRICHLET, alpha=0.2, beta=0.1, Pe=0.5, Ste=1.0)
    neighbour = solve_lambda(linear_problem(BCKind.DIRICHLET, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0), settings).start
    cold = solve_lambda(prob, settings)
    # the neighbour's start is taken: the search finds the root in fewer steps
    warm = solve_lambda(prob, settings, neighbour)
    assert warm.outer_iterations < cold.outer_iterations
    assert abs(warm.lambda_tilde - cold.lambda_tilde) <= 2.0 * _tol_n(n)
    robin = linear_problem(BCKind.ROBIN, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0, Bi=0.7)
    hi = cold.existence.bracket.lambda2 * (1.0 + 1e-4)
    guarded = [
        solve_lambda(robin, settings).start,  # another boundary condition
        replace(neighbour, lam=np.nextafter(hi, np.inf)),  # outside the widened bracket
        replace(neighbour, f=neighbour.f * (1.0 + 1e-8)),  # f(lambda) = 1 + 1e-8 leaves [0, 1]
        replace(neighbour, f=neighbour.f - 2e-9),  # f(0) = -2e-9 leaves [0, 1]
        solve_lambda(linear_problem(BCKind.DIRICHLET, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0),
                     SolverSettings(n=1024)).start,  # another search grid
    ]
    for start in guarded:
        assert _same(solve_lambda(prob, settings, start), cold)


def test_a_neumann_start_may_exceed_one_but_not_fall_below_zero():
    settings = SolverSettings()
    prob = linear_problem(BCKind.NEUMANN, alpha=0.2, beta=0.1, Pe=0.5, q_star=0.5, M=1.0)
    neighbour = solve_lambda(linear_problem(BCKind.NEUMANN, alpha=0.1, beta=0.1, Pe=0.5, q_star=0.5, M=1.0)).start
    cold = solve_lambda(prob, settings)
    lifted = replace(neighbour, f=neighbour.f + (1.0 - float(np.min(neighbour.f))))
    assert float(np.max(lifted.f)) > 1.0
    assert solve_lambda(prob, settings, lifted).outer_iterations < cold.outer_iterations
    lowered = replace(neighbour, f=neighbour.f - float(np.min(neighbour.f)) - 2e-9)
    assert _same(solve_lambda(prob, settings, lowered), cold)


def test_a_start_tangent_that_leaves_the_unit_interval_is_never_taken():
    settings = SolverSettings()
    prob = linear_problem(BCKind.DIRICHLET, alpha=0.2, beta=0.1, Pe=0.5, Ste=1.0)
    neighbour = solve_lambda(linear_problem(BCKind.DIRICHLET, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0), settings).start
    # a zero tangent predicts the plain image; so does one refused by the guard
    flat = solve_lambda(prob, settings, replace(neighbour, tangent=np.zeros_like(neighbour.tangent)))
    steep = solve_lambda(prob, settings, replace(neighbour, tangent=np.full_like(neighbour.tangent, 1e6)))
    assert flat.outer_iterations > 1 and _same(steep, flat)


def test_the_slope_handed_on_skips_partners_nearer_than_the_span():
    # g = 2.5 (0.6 - lambda), with 1e-12 of noise on the point 1e-9 away
    best = (0.6, 0.0, None)
    near, mid, far = (0.6 + 1e-9, -2.5e-9 + 1e-12, None), (0.6 + 1e-6, -2.5e-6, None), (0.5, 0.25, None)
    secant, partner = lambda_solver._secant, lambda_solver._chord_partner
    assert secant(best, partner(best, [far, mid, near])) == secant(best, mid)
    assert secant(best, partner(best, [near])) == secant(best, near)
    tiny = (0.6 - 1e-10, 2.5e-10, None)
    assert secant(best, partner(best, [near, tiny])) == secant(best, near)


@pytest.fixture(scope="module")
def bench_sweep(tmp_path_factory):
    """The benchmark's unshuffled 40-case sweep at its fine grid through the CLI, with kernel calls by node count."""
    nodes, original = Counter(), fixed_point.eval_kernels

    def counting(profile, prob):
        nodes[profile.f.size] += 1
        return original(profile, prob)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fixed_point, "eval_kernels", counting)
        rc, rows, _ = _run_sweep(tmp_path_factory.mktemp("bench"), "sweep", WORKLOADS.sweep_config()["sweep"],
                                 WORKLOADS.SWEEP_GRID)
    return rc, rows, nodes


def test_bench_sweep_through_the_cli_stays_within_the_reference_error(bench_sweep):
    # the sweep-path twin of the bench-reference test of solve_lambda alone
    rc, rows, _ = bench_sweep
    pinned = {WORKLOADS.sweep_key(r["alpha"], r["beta"], r["Pe"]): r for r in REFERENCE}
    assert rc == 0 and len(rows) == 40
    errors = []
    for row in rows:
        ref = pinned[WORKLOADS.sweep_key(*(row[f"coefficients.{name}"] for name in PARAMS))]
        errors.append(abs(float(row["lambda"]) - ref["lambda"]) / abs(ref["lambda"]))
        assert float(row["outer_residual"]) <= _tol_n(WORKLOADS.SWEEP_GRID)
        assert row["certified"] == str(ref["certified"])
    assert max(errors) <= 1.51e-10


def test_bench_sweep_rows_lie_within_3e_12_of_tightly_converged_roots(bench_sweep):
    # warm-starting each inner solve from the last returned profile instead
    # of its Picard image put rows up to 4.7e-12 away; the image, 5.8e-13
    _, rows, _ = bench_sweep
    for row in rows:
        tight = _cold(row, WORKLOADS.SWEEP_GRID, inner_tol=1e-13, outer_tol=1e-11)
        assert abs(float(row["lambda"]) - tight.lambda_tilde) <= 3e-12 * tight.lambda_tilde


def test_bench_sweep_kernel_evaluations_per_grid(bench_sweep):
    # solved case by case: 1747 on the default grid and 281 on the fine one;
    # starting each case from its neighbour's root took 948 and 255, and
    # starting each inner solve from the predicted Picard image 804 and 188
    _, _, nodes = bench_sweep
    assert set(nodes) == {DEFAULT_GRID_N + 1, WORKLOADS.SWEEP_GRID + 1}
    assert nodes[DEFAULT_GRID_N + 1] <= 880
    assert nodes[WORKLOADS.SWEEP_GRID + 1] <= 200
