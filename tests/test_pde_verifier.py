import numpy as np
import pytest

from meltfront import (
    ConvergenceError,
    Dirichlet,
    FrontFixedScheme,
    Neumann,
    Radiative,
    Robin,
    ThermalModel,
    build_dimensionless,
    constant_model,
    linear_model,
    physical_solution,
    solve_lambda,
    verify,
)


def solved(model, bc):
    return model, bc, physical_solution(solve_lambda(build_dimensionless(model, bc)), model, bc)


@pytest.fixture(scope="module")
def dirichlet_case():
    return solved(constant_model(1.0, 1.0, 1.0, 2.0, Pe=0.0), Dirichlet(T_star=2.0, T_m=1.0))  # Ste = 0.5


def test_zero_horizon_zero_discrepancy(dirichlet_case):
    model, bc, sol = dirichlet_case
    d = verify(sol, model, bc, FrontFixedScheme(nodes=40, t0=1.0, t1=1.0))
    assert d.steps == 0
    assert d.s_rel_final == 0.0
    assert d.T_rel_max == 0.0


def test_short_run_consistency(dirichlet_case):
    model, bc, sol = dirichlet_case
    d = verify(sol, model, bc, FrontFixedScheme(nodes=60, t0=1.0, t1=1.1))
    assert d.s_rel_max <= 2e-3
    assert d.T_rel_max <= 2e-3


def test_refinement_roughly_halves_front_error(dirichlet_case):
    # the Neumann face and the radiative face (Newton on the quartic) beside the Dirichlet one
    neumann = solved(constant_model(1.0, 1.0, 1.0, 1.0, Pe=0.5), Neumann(q=0.5, T_m=1.0))
    radiative = solved(
        linear_model(1.0, 1.0, 1.0, 1.0, alpha=0.1, beta=0.1, Pe=0.5, T_star=2.0, T_m=1.0),
        Radiative(h=0.05, sigma=0.05, epsilon=0.05, T_star=2.0, T_m=1.0),
    )
    for model, bc, sol in (dirichlet_case, neumann, radiative):
        errs = {}
        for nodes in (50, 100, 200):
            d = verify(sol, model, bc, FrontFixedScheme(nodes=nodes, t0=1.0, t1=1.2))
            errs[nodes] = d.s_rel_final
        assert errs[50] > errs[100] > errs[200], bc  # monotone under refinement
        for coarse, fine in ((50, 100), (100, 200)):
            ratio = errs[coarse] / errs[fine]
            assert 1.4 <= ratio <= 3.2, bc  # first-order front coupling


def test_robin_face_update(dirichlet_case_model=None):
    model = constant_model(1.0, 1.0, 1.0, 1.0, Pe=0.5)
    bc = Robin(h=1.0, T_star=2.0, T_m=1.0)
    report = solve_lambda(build_dimensionless(model, bc))
    sol = physical_solution(report, model, bc)
    d = verify(sol, model, bc, FrontFixedScheme(nodes=50, t0=1.0, t1=1.05))
    assert d.s_rel_max <= 2e-3
    assert d.T_rel_max <= 2e-3


def test_non_finite_coefficient_triggers_instability_abort(dirichlet_case):
    model, bc, sol = dirichlet_case
    # k turns NaN above T = 1.5, inside the working range [T_m, T_star] = [1, 2]
    broken = ThermalModel(
        k=lambda T: np.where(np.asarray(T) > 1.5, np.nan, 1.0),
        rho_c=model.rho_c,
        mu=model.mu,
        k0=model.k0,
        rho0=model.rho0,
        c0=model.c0,
        ell=model.ell,
    )
    with pytest.raises(ConvergenceError, match="unstable"):
        verify(sol, broken, bc, FrontFixedScheme(nodes=40, t0=1.0, t1=1.2))
