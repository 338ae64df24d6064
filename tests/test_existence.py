import numpy as np
import pytest

from meltfront import (
    BCKind,
    Dirichlet,
    build_dimensionless,
    certify,
    constant_problem,
    contraction_bound,
    linear_problem,
    solve_lambda,
    table_model,
)
from meltfront.existence import FAILS, HOLDS, lambda_bar


def _linear(beta):
    return linear_problem(BCKind.DIRICHLET, alpha=0.0, beta=beta, Pe=0.05, Ste=0.002)


@pytest.mark.parametrize("beta,expected", [(0.1, True), (0.3, True), (0.36, True), (0.37, False), (0.5, False)])
def test_linear_family_certified_below_beta_threshold(beta, expected):
    cert = certify(_linear(beta))
    assert cert.certified is expected
    if not expected:
        assert cert.hypothesis_flags["extra_contraction"] == FAILS


def test_constant_coefficients_certified_unconditionally():
    prob = constant_problem(BCKind.DIRICHLET, Pe=0.0, Ste=1.0, T_star=2.0, T_m=1.0)
    cert = certify(prob)
    assert cert.certified
    assert cert.lambda_bar is None
    assert "unconditional" in cert.lambda_bar_note
    assert cert.epsilon_at_lambda2 == 0.0


def test_radiative_strong_radiation_fails_self_map():
    prob = linear_problem(
        BCKind.RADIATIVE, alpha=0.05, beta=0.05, Pe=0.3, Ste=0.5, Bi=0.05, r=5.0, T_star=2.0, T_m=1.0
    )
    cert = certify(prob)
    assert not cert.certified
    assert cert.hypothesis_flags["radiative_self_map"] == FAILS


def test_radiative_certified_configuration():
    prob = linear_problem(
        BCKind.RADIATIVE, alpha=0.05, beta=0.05, Pe=0.3, Ste=0.5, Bi=0.05, r=0.005, T_star=2.0, T_m=1.0
    )
    cert = certify(prob)
    assert cert.certified
    assert cert.hypothesis_flags["radiative_self_map"] == HOLDS
    assert cert.hypothesis_flags["radiative_self_map_dimensional"] == HOLDS
    assert cert.hypothesis_flags["radiative_lipschitz"] == HOLDS


def test_radiative_no_convection_reports_undefined_bound():
    prob = linear_problem(
        BCKind.RADIATIVE, alpha=0.0, beta=0.1, Pe=0.0, Ste=0.5, Bi=0.05, r=0.005, T_star=2.0, T_m=1.0
    )
    cert = certify(prob)
    assert not cert.certified
    assert cert.lambda_bar is None
    assert "mu_M" in cert.lambda_bar_note
    assert cert.hypothesis_flags["radiative_lipschitz"] == FAILS


def test_overflowing_contraction_bound_is_uncertified_not_an_error():
    # at Pe = 400 the factor exp(2 mu_M / L_m) of the bound overflows at every z
    prob = linear_problem(BCKind.DIRICHLET, alpha=0.1, beta=0.1, Pe=400.0, Ste=1.0)
    cert = certify(prob)
    assert not cert.certified
    assert cert.lambda_bar is None
    assert "overflows" in cert.lambda_bar_note
    assert cert.epsilon_at_lambda2 is None
    assert cert.hypothesis_flags["extra_contraction"] == FAILS
    assert cert.hypothesis_flags["contraction_at_lambda2"] == FAILS


def test_lambda_bar_is_unit_crossing(linear_dirichlet):
    lb, note = lambda_bar(linear_dirichlet)
    assert note is None
    assert abs(contraction_bound(linear_dirichlet, lb) - 1.0) <= 1e-9


def test_lambda_bar_shared_by_robin_and_dirichlet():
    pd = linear_problem(BCKind.DIRICHLET, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0)
    ph = linear_problem(BCKind.ROBIN, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0, Bi=2.0)
    assert lambda_bar(pd)[0] == pytest.approx(lambda_bar(ph)[0], rel=1e-12)


def test_certified_problem_solves_inside_analytic_bracket():
    prob = _linear(0.3)
    cert = certify(prob)
    assert cert.certified
    assert cert.bracket.provenance == "analytic"
    report = solve_lambda(prob)
    assert report.outer_residual <= 1e-9
    assert cert.bracket.lambda1 <= report.lambda_tilde <= cert.bracket.lambda2 * (1.0 + 1e-4)


def test_sampled_bounds_downgrade_basis():
    T = np.linspace(1.0, 2.0, 17)
    model = table_model(T, 1.0 + 0.05 * np.sin(3.0 * T), np.full(17, 1.0), np.full(17, 0.2), 1.0, 1.0, 1.0, 1.0)
    prob = build_dimensionless(model, Dirichlet(T_star=2.0, T_m=1.0))
    cert = certify(prob)
    assert cert.basis == "sampled"
    analytic = certify(constant_problem(BCKind.DIRICHLET, Pe=0.0, Ste=1.0, T_star=2.0, T_m=1.0))
    assert analytic.basis == "analytic"


def test_mu_zero_is_informational_not_blocking():
    prob = linear_problem(BCKind.DIRICHLET, alpha=0.0, beta=0.2, Pe=0.0, Ste=0.5)
    cert = certify(prob)
    assert cert.hypothesis_flags["mu_lower_positive"] == "not-applicable"
    assert cert.certified  # beta = 0.2 passes the contraction threshold
