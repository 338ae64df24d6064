"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np

from meltfront import (
    BCKind,
    Dirichlet,
    FrontFixedScheme,
    SolverSettings,
    apply_operator,
    build_dimensionless,
    certify,
    constant_model,
    constant_problem,
    contraction_bound,
    dirichlet_constant,
    eval_kernels,
    kernel_bounds,
    linear_problem,
    neumann_constant,
    physical_solution,
    solve_lambda,
    table_model,
    verify,
)
from meltfront.existence import lambda_bar

from conftest import bisect_ref, random_profile


def _ok(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS — {message}")


def test_criterion_01_dirichlet_oracle_equivalence():
    start = time.perf_counter()
    worst_lam, worst_prof = 0.0, 0.0
    for Ste in (0.1, 0.5, 1.0, 2.0):
        for Pe in (0.0, 0.5, 1.0):
            prob = constant_problem(BCKind.DIRICHLET, Pe=Pe, Ste=Ste, T_star=2.0, T_m=1.0)
            report = solve_lambda(prob)
            oracle = dirichlet_constant(Ste, Pe)
            worst_lam = max(worst_lam, abs(report.lambda_tilde - oracle.lam))
            worst_prof = max(
                worst_prof, float(np.max(np.abs(report.profile.f - oracle.profile(report.profile.xi))))
            )
    elapsed = time.perf_counter() - start
    assert worst_lam <= 1e-6
    assert worst_prof <= 1e-6
    assert elapsed < 10.0
    _ok(1, f"12-point Dirichlet grid: |dlam| <= {worst_lam:.2e}, profile <= {worst_prof:.2e}, {elapsed:.1f}s")


def test_criterion_02_neumann_oracle_equivalence():
    worst = 0.0
    for load in (0.1, 0.5, 1.0):
        for Pe in (0.0, 0.5, 1.0):
            prob = constant_problem(BCKind.NEUMANN, Pe=Pe, q_star=2.0 * load, M=2.0, T_m=1.0)
            report = solve_lambda(prob)
            root = bisect_ref(lambda x: x * math.exp(x * x - 2.0 * x * Pe) - load, 1e-10, 4.0)
            worst = max(worst, abs(report.lambda_tilde - root))
            assert neumann_constant(load, Pe).unique  # Pe <= sqrt(2) throughout
    assert worst <= 1e-6
    _ok(2, f"9-point Neumann grid: |dlam| <= {worst:.2e}, uniqueness flagged for Pe <= sqrt(2)")


def test_criterion_03_robin_limits_to_dirichlet():
    lam_d = solve_lambda(
        constant_problem(BCKind.DIRICHLET, Pe=0.5, Ste=1.0, T_star=2.0, T_m=1.0)
    ).lambda_tilde
    lams = []
    for Bi in (1.0, 10.0, 100.0, 1000.0, 10000.0):
        prob = constant_problem(BCKind.ROBIN, Pe=0.5, Ste=1.0, Bi=Bi, T_star=2.0, T_m=1.0)
        lams.append(solve_lambda(prob).lambda_tilde)
    assert np.all(np.diff(lams) > 0.0)
    assert np.all(np.asarray(lams) < lam_d)
    assert abs(lams[-1] - lam_d) <= 1e-3
    _ok(3, f"lambda_h increases {lams[0]:.6f} -> {lams[-1]:.6f} toward Dirichlet {lam_d:.6f}")


def test_criterion_04_radiative_degenerates_to_robin():
    worst = 0.0
    for Bi, Ste, Pe in ((0.1, 1.0, 0.5), (0.25, 1.0, 0.5), (0.5, 0.8, 0.3)):
        robin = constant_problem(BCKind.ROBIN, Pe=Pe, Ste=Ste, Bi=Bi, T_star=2.0, T_m=1.0)
        radiative = constant_problem(
            BCKind.RADIATIVE, Pe=Pe, Ste=Ste, Bi=Bi, r=0.0, T_star=2.0, T_m=1.0
        )
        worst = max(worst, abs(solve_lambda(robin).lambda_tilde - solve_lambda(radiative).lambda_tilde))
    assert worst <= 1e-8
    _ok(4, f"zero-emissivity radiative vs Robin: |dlam| <= {worst:.2e} on 3 configurations")


def _envelope_families():
    table_T = np.linspace(1.0, 2.0, 17)  # nodes aligned with the 257-point sampling grid
    model = table_model(
        table_T,
        1.0 + 0.08 * np.sin(5.0 * table_T),
        1.0 + 0.05 * np.cos(3.0 * table_T),
        0.3 + 0.1 * (table_T - 1.0),
        1.0,
        1.0,
        1.0,
        1.0,
    )
    return [
        constant_problem(BCKind.DIRICHLET, Pe=1.0, Ste=1.0, T_star=2.0, T_m=1.0),
        linear_problem(BCKind.DIRICHLET, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0),
        build_dimensionless(model, Dirichlet(T_star=2.0, T_m=1.0)),
    ]


def test_criterion_05_kernel_envelope_suite():
    rng = np.random.default_rng(5)
    worst = -np.inf
    for prob in _envelope_families():
        for _ in range(100):
            lam = float(rng.uniform(0.3, 1.0))
            prof = random_profile(rng, lam, 256)
            ke = eval_kernels(prof, prob)
            env = kernel_bounds(lam, prob, n=256)
            for arr, lo, hi in (
                (np.exp(ke.log_U), env.U_lower, env.U_upper),
                (np.exp(ke.log_I), env.I_lower, env.I_upper),
                (ke.E, env.E_lower, env.E_upper),
                (ke.Phi, env.Phi_lower, env.Phi_upper),
            ):
                worst = max(worst, float(np.max(lo - arr)), float(np.max(arr - hi)))
    assert worst <= 1e-8
    _ok(5, f"300 random profiles x 4 kernels inside envelopes (worst overshoot {worst:.2e})")


def test_criterion_06_contraction_suite():
    rng = np.random.default_rng(6)
    combos = [(a, b) for a in (0.05, 0.1, 0.2) for b in (0.05, 0.1, 0.2)]
    worst = -np.inf
    for kind, extra in (
        (BCKind.DIRICHLET, dict(Ste=1.0)),
        (BCKind.NEUMANN, dict(q_star=0.8, M=2.0, T_m=1.0)),
        (BCKind.ROBIN, dict(Ste=1.0, Bi=0.7)),
        (BCKind.RADIATIVE, dict(Ste=0.5, Bi=0.05, r=0.005, T_star=2.0, T_m=1.0)),
    ):
        pairs = 0
        while pairs < 50:
            alpha, beta = combos[pairs % len(combos)]
            prob = linear_problem(kind, alpha=alpha, beta=beta, Pe=0.5, **extra)
            lb, _ = lambda_bar(prob)
            assert lb is not None and lb > 0.0
            lam = float(rng.uniform(0.02, 0.98) * lb)
            f1 = random_profile(rng, lam, 128)
            f2 = random_profile(rng, lam, 128)
            d_in = float(np.max(np.abs(f1.f - f2.f)))
            d_out = float(np.max(np.abs(apply_operator(prob, f1).f - apply_operator(prob, f2).f)))
            slack = d_out - contraction_bound(prob, lam) * d_in
            worst = max(worst, slack)
            assert slack <= 1e-6
            pairs += 1
    _ok(6, f"50 pairs per operator bounded by the contraction function (worst slack {worst:.2e})")


def test_criterion_07_certificate_beta_threshold():
    outcomes = {}
    for beta in (0.1, 0.3, 0.36, 0.37, 0.5):
        prob = linear_problem(BCKind.DIRICHLET, alpha=0.0, beta=beta, Pe=0.05, Ste=0.002)
        outcomes[beta] = certify(prob).certified
    assert outcomes == {0.1: True, 0.3: True, 0.36: True, 0.37: False, 0.5: False}
    _ok(7, "linear family certified exactly below the 2(1+beta)beta < 1 threshold")


def test_criterion_08_front_flux_residual_refines():
    cases = [
        constant_problem(BCKind.DIRICHLET, Pe=0.5, Ste=1.0, T_star=2.0, T_m=1.0),
        linear_problem(BCKind.DIRICHLET, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0),
        constant_problem(BCKind.NEUMANN, Pe=0.0, q_star=1.0, M=2.0, T_m=1.0),
    ]
    worst_coarse, worst_ratio = 0.0, np.inf
    for prob in cases:
        coarse = solve_lambda(prob, SolverSettings(n=512))
        fine = solve_lambda(prob, SolverSettings(n=2048))
        assert coarse.front_flux_residual <= 1e-3
        ratio = coarse.front_flux_residual / fine.front_flux_residual
        assert ratio >= 3.0
        worst_coarse = max(worst_coarse, coarse.front_flux_residual)
        worst_ratio = min(worst_ratio, ratio)
    _ok(8, f"front flux residual <= {worst_coarse:.2e} at n=512, improving {worst_ratio:.1f}x at n=2048")


def test_criterion_09_pde_cross_check():
    model = constant_model(1.0, 1.0, 1.0, 2.0, Pe=0.0)  # Ste = 0.5
    bc = Dirichlet(T_star=2.0, T_m=1.0)
    report = solve_lambda(build_dimensionless(model, bc))
    sol = physical_solution(report, model, bc)
    d200 = verify(sol, model, bc, FrontFixedScheme(nodes=200, t0=1.0, t1=2.0))
    d400 = verify(sol, model, bc, FrontFixedScheme(nodes=400, t0=1.0, t1=2.0))
    assert d200.s_rel_max <= 1e-2
    assert d400.s_rel_max <= 5e-3
    ratio = d200.s_rel_final / d400.s_rel_final
    assert ratio >= 1.4  # first-order front coupling
    _ok(9, f"front-fixed scheme: s drift {d200.s_rel_max:.2e} (200) / {d400.s_rel_max:.2e} (400), ratio {ratio:.2f}")


def test_criterion_10_no_convection_regression():
    prob = linear_problem(BCKind.ROBIN, alpha=0.0, beta=0.2, Pe=0.0, Ste=0.5, Bi=1.0)
    report = solve_lambda(prob)
    assert report.inner.converged
    image = apply_operator(prob, report.profile)
    fixed_point_defect = float(np.max(np.abs(image.f - report.profile.f)))
    assert fixed_point_defect <= 1e-8
    ke = eval_kernels(report.profile, prob)
    assert float(np.max(np.abs(ke.E * np.exp(ke.log_I) - 1.0))) <= 1e-8
    _ok(10, f"mu = 0 Robin solve: lambda = {report.lambda_tilde:.6f}, fixed-point defect {fixed_point_defect:.1e}")
