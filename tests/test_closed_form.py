import math

import numpy as np
import pytest

from meltfront import (
    BCKind,
    SolverSettings,
    constant_problem,
    dirichlet_constant,
    neumann_constant,
    solve_lambda,
)

from conftest import bisect_ref


def test_dirichlet_front_vanishes_with_stefan_number():
    assert dirichlet_constant(1e-6, 0.0).lam < 1e-3
    assert dirichlet_constant(1e-6, 1.0).lam < 1e-3


def test_dirichlet_classical_value():
    sol = dirichlet_constant(1.0, 0.0)
    oracle = bisect_ref(lambda x: math.sqrt(math.pi) * x * math.erf(x) * math.exp(x * x) - 1.0, 1e-8, 2.0)
    assert oracle == pytest.approx(0.620062633313595, abs=1e-12)
    assert sol.lam == pytest.approx(oracle, abs=1e-10)
    assert sol.unique


def test_dirichlet_residual_resubstitution():
    Ste, Pe = 0.5, 1.0
    sol = dirichlet_constant(Ste, Pe)
    resid = math.sqrt(math.pi) * sol.lam * (math.erf(Pe) - math.erf(Pe - sol.lam)) * math.exp(
        (Pe - sol.lam) ** 2
    ) - Ste
    assert abs(resid) <= 1e-10


def test_dirichlet_profile_endpoints():
    sol = dirichlet_constant(0.7, 0.5)
    assert float(sol.profile(0.0)) == pytest.approx(0.0, abs=1e-15)
    assert float(sol.profile(sol.lam)) == pytest.approx(1.0, abs=1e-12)


def test_neumann_front_value_frozen():
    sol = neumann_constant(0.5, 0.0)
    oracle = bisect_ref(lambda x: x * math.exp(x * x) - 0.5, 1e-8, 1.0)
    assert oracle == pytest.approx(0.419364824019131, abs=1e-12)
    assert sol.lam == pytest.approx(oracle, abs=1e-10)


def test_neumann_front_vanishes_with_load():
    assert neumann_constant(1e-6, 0.0).lam < 2e-6


def test_neumann_uniqueness_boundary():
    assert neumann_constant(0.5, math.sqrt(2.0)).unique
    assert not neumann_constant(0.06, 2.0).unique


def test_neumann_multiple_roots_above_threshold():
    # Pe = 2: the front equation has a local max ~0.0988 and local min ~0.0342,
    # so loads in between give three roots
    sol = neumann_constant(0.06, 2.0)
    assert len(sol.roots) == 3
    assert sol.lam == min(sol.roots)
    for root in sol.roots:
        assert abs(root * math.exp(root**2 - 4.0 * root) - 0.06) <= 1e-10


def test_neumann_profile_front_endpoint():
    sol = neumann_constant(0.8, 0.5, q_star=1.6)
    assert float(sol.profile(sol.lam)) == pytest.approx(0.0, abs=1e-14)
    assert float(sol.profile(0.0)) > 0.0


def test_neumann_profile_at_large_peclet_matches_high_precision():
    # 50-digit mpmath value of q* sqrt(pi)/2 (erf(8 - xi) - erf(8 - lam)) exp(64) at the exact
    # floats xi = lam/2 and lam, for load 0.01 (q* = 0.02) at Pe = 8
    sol = neumann_constant(0.01, 8.0)
    assert sol.lam == pytest.approx(0.01214258974855222, rel=1e-15, abs=0.0)
    reference = 0.0001405160197598230811015912127117326380309789368249
    assert float(sol.profile(sol.lam / 2.0)) == pytest.approx(reference, rel=2e-14, abs=0.0)


def test_neumann_profile_past_exp_pe_squared_overflow():
    sol = neumann_constant(5e-7, 30.0)
    assert float(sol.profile(0.0)) == pytest.approx(5.0002e-13, rel=1e-4, abs=0.0)
    assert float(sol.profile(sol.lam)) == 0.0


def test_no_root_below_search_cap_is_an_error():
    from meltfront import BracketError

    with pytest.raises(BracketError):
        dirichlet_constant(5.0, 0.0, lambda_max=0.5)
    with pytest.raises(BracketError):
        neumann_constant(100.0, 0.0, lambda_max=0.5)


def test_pipeline_reproduces_oracles():
    # Dirichlet at the default grid; Neumann profiles need a finer grid to
    # push quadrature bias below the max-node tolerance at large amplitudes
    for Ste in (0.1, 0.5, 1.0, 2.0):
        for Pe in (0.0, 0.5, 1.0):
            prob = constant_problem(BCKind.DIRICHLET, Pe=Pe, Ste=Ste, T_star=2.0, T_m=1.0)
            report = solve_lambda(prob)
            oracle = dirichlet_constant(Ste, Pe)
            assert abs(report.lambda_tilde - oracle.lam) <= 1e-6
            assert float(np.max(np.abs(report.profile.f - oracle.profile(report.profile.xi)))) <= 1e-6
    settings = SolverSettings(n=2048)
    for load in (0.1, 0.5, 1.0):
        for Pe in (0.0, 0.5, 1.0):
            prob = constant_problem(BCKind.NEUMANN, Pe=Pe, q_star=2.0 * load, M=2.0, T_m=1.0)
            report = solve_lambda(prob, settings)
            oracle = neumann_constant(load, Pe, q_star=2.0 * load)
            assert abs(report.lambda_tilde - oracle.lam) <= 1e-6
            assert float(np.max(np.abs(report.profile.f - oracle.profile(report.profile.xi)))) <= 1e-6


# 50-digit mpmath roots and profile values of the closed forms as the module docstring states them
@pytest.mark.parametrize("Pe, lam", [(8.0, 4.0598998902281639376), (12.0, 6.0408464026683592138)])
def test_dirichlet_root_keeps_its_digits_at_large_peclet_numbers(Pe, lam):
    # erf(Pe) - erf(Pe - lam) cancels here: it gave 6.078412804205492 at Pe = 12
    assert dirichlet_constant(1.0, Pe).lam == pytest.approx(lam, rel=1e-13)


def test_neumann_profile_keeps_its_digits_at_large_peclet_numbers():
    # erf(Pe - xi) - erf(Pe - lam) rounds to 0 here, so the profile read 0 everywhere
    sol = neumann_constant(0.01, 8.0)
    assert sol.lam == pytest.approx(0.012142589748552219731, rel=1e-13)
    assert sol.profile(np.array([0.0, sol.lam / 2.0])) == pytest.approx(
        [2.6803370992929171468e-4, 1.4051601975982306511e-4], rel=1e-12
    )
