import math

import numpy as np
import pytest

from meltfront import (
    BCKind,
    ConfigError,
    Dirichlet,
    Neumann,
    ProfileGrid,
    Radiative,
    Robin,
    ThermalModel,
    build_dimensionless,
    constant_model,
    constant_problem,
    estimate_bounds,
    eval_kernels,
    linear_model,
    table_model,
    table_model_from_csv,
)

F_SAMPLES = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def test_constant_family_dirichlet_reduces_to_unit_coefficients():
    model = constant_model(k0=3.0, rho0=2.0, c0=5.0, ell=7.0, Pe=0.8)
    prob = build_dimensionless(model, Dirichlet(T_star=2.0, T_m=1.0))
    assert np.allclose(prob.L_star(F_SAMPLES), 1.0)
    assert np.allclose(prob.N_star(F_SAMPLES), 1.0)
    assert np.allclose(prob.mu_star(F_SAMPLES), 0.8)
    assert prob.Ste == pytest.approx(1.0 * 5.0 / 7.0)


def test_linear_family_closed_form_constants():
    alpha, beta, Pe = 0.3, 0.2, 0.7
    model = linear_model(2.0, 1.5, 4.0, 3.0, alpha=alpha, beta=beta, Pe=Pe, T_star=5.0, T_m=2.0)
    prob = build_dimensionless(model, Dirichlet(T_star=5.0, T_m=2.0))
    assert np.allclose(prob.L_star(F_SAMPLES), 1.0 + beta * F_SAMPLES)
    assert np.allclose(prob.N_star(F_SAMPLES), 1.0 + alpha * F_SAMPLES)
    assert np.allclose(prob.mu_star(F_SAMPLES), Pe * (1.0 + alpha * F_SAMPLES))
    assert prob.L_m == pytest.approx(1.0, abs=1e-15)
    assert prob.L_M == pytest.approx(1.0 + beta, abs=1e-15)
    assert prob.L_tilde == pytest.approx(beta, abs=1e-15)
    assert prob.N_tilde == pytest.approx(alpha, abs=1e-15)
    assert prob.mu_m == pytest.approx(Pe, abs=1e-15)
    assert prob.mu_M == pytest.approx(Pe * (1.0 + alpha), abs=1e-15)
    assert prob.mu_tilde == pytest.approx(Pe * alpha, abs=1e-15)


def test_robin_zero_h_gives_zero_biot():
    model = constant_model(1.0, 1.0, 1.0, 1.0)
    prob = build_dimensionless(model, Robin(h=0.0, T_star=2.0, T_m=1.0))
    assert prob.Bi == 0.0


def test_radiative_fourth_power_constant():
    model = constant_model(1.0, 1.0, 1.0, 1.0, Pe=0.5)
    prob = build_dimensionless(model, Radiative(h=0.1, sigma=1.0, epsilon=0.25, T_star=2.0, T_m=1.0))
    # D5 = 4 (T_star - T_m) |T_star|^3 = 4 * 1 * 8
    assert prob.D5 == pytest.approx(32.0)
    assert prob.r == pytest.approx(2.0 * 1.0 * 0.25 * 1.0 / (1.0 * 1.0))
    assert build_dimensionless(model, Robin(h=0.1, T_star=2.0, T_m=1.0)).D5 is None


@pytest.mark.parametrize(
    "params",
    [
        {"bc_kind": BCKind.DIRICHLET, "Ste": math.inf},
        {"bc_kind": BCKind.DIRICHLET, "Ste": math.nan},
        {"bc_kind": BCKind.DIRICHLET, "Ste": 1.0, "Pe": math.inf},
        {"bc_kind": BCKind.NEUMANN, "q_star": math.inf, "M": 1.0},
        {"bc_kind": BCKind.NEUMANN, "q_star": 1.0, "M": math.inf},
        {"bc_kind": BCKind.ROBIN, "Ste": 1.0, "Bi": math.inf},
    ],
    ids=["Ste-inf", "Ste-nan", "mu_M-inf", "q_star-inf", "M-inf", "Bi-inf"],
)
def test_non_finite_dimensionless_constants_are_rejected(params):
    with pytest.raises(ConfigError, match="finite|< inf"):
        constant_problem(**params)


@pytest.mark.parametrize("T_star", [1e80, 1e200, math.inf])
def test_radiative_T_star_whose_fourth_power_overflows_is_rejected(T_star):
    with pytest.raises(ConfigError, match=r"T_star\^4"):
        constant_problem(BCKind.RADIATIVE, Pe=0.5, Ste=1.0, Bi=0.1, r=0.01, T_star=T_star, T_m=1.0)
    model = constant_model(1.0, 1.0, 1.0, 1.0, Pe=0.5)
    with pytest.raises(ConfigError, match=r"T_star\^4"):
        build_dimensionless(model, Radiative(h=0.1, sigma=1.0, epsilon=0.25, T_star=T_star, T_m=1.0))


def test_scalar_only_coefficients_reduce_like_array_coefficients():
    # float() takes one value only, so the first model's callables reject arrays
    def model(value):
        return ThermalModel(
            k=lambda T: 1.0 + 0.1 * value(T),
            rho_c=lambda T: 2.0 + 0.05 * value(T),
            mu=lambda T: 0.3 * value(T),
            k0=1.0, rho0=1.0, c0=2.0, ell=1.0,
        )

    profile = ProfileGrid.linear(0.6, 64)
    for bc in (Dirichlet(T_star=2.0, T_m=1.3), Neumann(q=0.5, T_m=1.3)):
        scalar, array = (eval_kernels(profile, build_dimensionless(model(v), bc)) for v in (float, np.asarray))
        assert np.array_equal(scalar.E, array.E) and np.array_equal(scalar.Phi, array.Phi)


def test_neumann_parameters():
    model = constant_model(1.0, 1.0, 1.0, 1.0)
    q = 0.37
    prob = build_dimensionless(model, Neumann(q=q, T_m=1.0))
    assert prob.q_star == pytest.approx(2.0 * q)
    assert prob.M == pytest.approx(2.0)
    # q*/M equals the flux load q / (rho0 ell sqrt(alpha0))
    assert prob.q_star / prob.M == pytest.approx(q)


def test_neumann_nonpositive_melting_temperature_rejected():
    model = constant_model(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ConfigError, match="T_m > 0"):
        build_dimensionless(model, Neumann(q=1.0, T_m=-1.0))


def test_boundary_condition_validation():
    with pytest.raises(ConfigError):
        Dirichlet(T_star=1.0, T_m=1.0)
    with pytest.raises(ConfigError):
        Neumann(q=0.0, T_m=1.0)
    with pytest.raises(ConfigError):
        Robin(h=-1.0, T_star=2.0, T_m=1.0)
    with pytest.raises(ConfigError):
        Radiative(h=0.0, sigma=0.0, epsilon=0.1, T_star=2.0, T_m=1.0)
    # epsilon = 0 is the Robin degeneration and stays legal
    Radiative(h=0.5, sigma=1.0, epsilon=0.0, T_star=2.0, T_m=1.0)


@pytest.mark.parametrize("builder", ["constant", "linear", "table"])
def test_bounds_hold_on_sampled_f(builder):
    if builder == "constant":
        model = constant_model(2.0, 1.0, 3.0, 1.0, Pe=0.4)
    elif builder == "linear":
        model = linear_model(2.0, 1.0, 3.0, 1.0, alpha=0.2, beta=0.3, Pe=0.4, T_star=4.0, T_m=1.0)
    else:
        T = np.linspace(1.0, 4.0, 13)
        model = table_model(T, 2.0 + 0.3 * np.sin(T), 3.0 + 0.2 * np.cos(T), 0.1 + 0.05 * T, 2.0, 1.0, 3.0, 1.0)
    prob = build_dimensionless(model, Dirichlet(T_star=4.0, T_m=1.0))
    for fn, lo, hi in (
        (prob.L_star, prob.L_m, prob.L_M),
        (prob.N_star, prob.N_m, prob.N_M),
        (prob.mu_star, prob.mu_m, prob.mu_M),
    ):
        vals = fn(F_SAMPLES)
        assert np.all(vals >= lo - 1e-12)
        assert np.all(vals <= hi + 1e-12)


def test_lipschitz_constants_bound_sampled_increments(linear_dirichlet):
    f = np.linspace(0.0, 1.0, 41)
    for fn, tilde in (
        (linear_dirichlet.L_star, linear_dirichlet.L_tilde),
        (linear_dirichlet.N_star, linear_dirichlet.N_tilde),
        (linear_dirichlet.mu_star, linear_dirichlet.mu_tilde),
    ):
        vals = fn(f)
        incr = np.abs(np.diff(vals)) / np.diff(f)
        assert np.all(incr <= tilde + 1e-12)


def test_scaling_k_and_k0_together_is_invariant():
    scale = 10.0
    base = linear_model(1.0, 1.0, 1.0, 1.0, alpha=0.1, beta=0.2, Pe=0.3, T_star=2.0, T_m=1.0)
    scaled = linear_model(scale, 1.0, 1.0, 1.0, alpha=0.1, beta=0.2, Pe=0.3, T_star=2.0, T_m=1.0)
    bc = Dirichlet(T_star=2.0, T_m=1.0)
    p1, p2 = build_dimensionless(base, bc), build_dimensionless(scaled, bc)
    assert np.allclose(p1.L_star(F_SAMPLES), p2.L_star(F_SAMPLES))
    assert p1.Ste == pytest.approx(p2.Ste)
    assert (p1.L_m, p1.L_M, p1.L_tilde) == pytest.approx((p2.L_m, p2.L_M, p2.L_tilde))


def test_estimate_bounds_constant_model():
    model = constant_model(2.0, 1.0, 1.0, 1.0, Pe=0.3)
    b = estimate_bounds(model, (1.0, 2.0), samples=33)
    assert b.k_m == b.k_M == pytest.approx(2.0)
    assert b.k_tilde == pytest.approx(0.0, abs=1e-14)
    assert not b.certified


def test_estimate_bounds_linear_conductivity():
    # k(T) = k0 (1 + 0.2 (T - T_star)/(T_m - T_star)) on [T_m, T_star]
    model = linear_model(1.0, 1.0, 1.0, 1.0, alpha=0.0, beta=0.2, Pe=0.0, T_star=2.0, T_m=1.0)
    b = estimate_bounds(model, (1.0, 2.0), samples=65)
    assert b.k_m == pytest.approx(1.0)
    assert b.k_M == pytest.approx(1.2)


def test_estimate_bounds_brackets_table_spike():
    # brute-force oracle over the same sample set
    T = np.linspace(1.0, 2.0, 9)
    k = np.full(9, 2.0)
    k[4] = 3.5  # interior spike
    model = table_model(T, k, np.full(9, 1.0), np.zeros(9), 2.0, 1.0, 1.0, 1.0)
    samples = 257
    b = estimate_bounds(model, (1.0, 2.0), samples=samples)
    Ts = np.linspace(1.0, 2.0, samples)
    vals = np.interp(Ts, T, k)
    assert b.k_m == pytest.approx(float(vals.min()))
    assert b.k_M == pytest.approx(float(vals.max()))
    steepest = float(np.max(np.abs(np.diff(vals)))) / (Ts[1] - Ts[0])
    assert b.k_tilde == pytest.approx(steepest)


def test_estimate_bounds_rejects_nonpositive_coefficient():
    T = np.linspace(1.0, 2.0, 5)
    model = ThermalModel(
        k=lambda x: np.asarray(x) - 1.5,  # negative below 1.5
        rho_c=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        mu=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        k0=1.0,
        rho0=1.0,
        c0=1.0,
        ell=1.0,
    )
    with pytest.raises(ConfigError, match="non-positive"):
        estimate_bounds(model, (1.0, 2.0), samples=17)


def test_estimation_disabled_requires_bounds():
    T = np.linspace(1.0, 2.0, 5)
    model = table_model(T, np.full(5, 2.0), np.full(5, 1.0), np.zeros(5), 2.0, 1.0, 1.0, 1.0)
    with pytest.raises(ConfigError, match="estimation is disabled"):
        build_dimensionless(model, Dirichlet(T_star=2.0, T_m=1.0), allow_estimation=False)
    prob = build_dimensionless(model, Dirichlet(T_star=2.0, T_m=1.0))
    assert not prob.bounds_certified


def test_table_csv_roundtrip(tmp_path):
    path = tmp_path / "coeffs.csv"
    path.write_text("T,k,rho_c,mu\n1.0,2.0,1.0,0.1\n1.5,2.5,1.2,0.2\n2.0,2.2,1.1,0.15\n")
    model = table_model_from_csv(path, 2.0, 1.0, 1.0, 1.0)
    assert float(model.k(np.asarray([1.5]))[0]) == pytest.approx(2.5)
    prob = build_dimensionless(model, Dirichlet(T_star=2.0, T_m=1.0))
    assert prob.L_M >= prob.L_m > 0.0


def test_table_csv_rejects_bad_header_and_order(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("temp,k,rho_c,mu\n1,2,1,0\n2,2,1,0\n")
    with pytest.raises(ConfigError, match="header"):
        table_model_from_csv(bad_header, 1.0, 1.0, 1.0, 1.0)
    bad_order = tmp_path / "bad2.csv"
    bad_order.write_text("T,k,rho_c,mu\n2,2,1,0\n1,2,1,0\n")
    with pytest.raises(ConfigError, match="increasing"):
        table_model_from_csv(bad_order, 1.0, 1.0, 1.0, 1.0)


def test_neumann_temperature_map():
    model = constant_model(1.0, 1.0, 1.0, 1.0)
    prob = build_dimensionless(model, Neumann(q=1.0, T_m=3.0))
    # L* is constant regardless, but the map itself must accept f beyond 1
    assert np.allclose(prob.L_star(np.array([0.0, 1.0, 2.5])), 1.0)
