import csv
import io
import math

import numpy as np
import pytest
from scipy.special import erf

from meltfront import (
    ConfigError,
    Dirichlet,
    Neumann,
    ProfileGrid,
    SolverSettings,
    ThermalModel,
    build_dimensionless,
    constant_model,
    export_field_csv,
    export_front_csv,
    front_position,
    physical_solution,
    solve_lambda,
    stefan_residual,
    table_model,
    temperature_at,
)
from meltfront.cli import _write_profile_csv
from meltfront.coefficients import temperature_of_f
from meltfront.reconstruct import PhysicalSolution


@pytest.fixture(scope="module")
def dirichlet_case():
    model = constant_model(1.0, 1.0, 1.0, 1.0, Pe=0.0)  # Ste = 1
    bc = Dirichlet(T_star=2.0, T_m=1.0)
    report = solve_lambda(build_dimensionless(model, bc))
    return model, bc, physical_solution(report, model, bc)


def test_front_temperature_is_melting_temperature(dirichlet_case):
    model, bc, sol = dirichlet_case
    for t in (0.5, 1.0, 4.0):
        s = front_position(sol, t)
        assert temperature_at(sol, s, t) == pytest.approx(bc.T_m, abs=1e-12)


def test_neumann_front_temperature():
    model = constant_model(1.0, 1.0, 1.0, 1.0)
    bc = Neumann(q=0.5, T_m=1.0)
    report = solve_lambda(build_dimensionless(model, bc))
    sol = physical_solution(report, model, bc)
    s = front_position(sol, 2.0)
    assert temperature_at(sol, s, 2.0) == pytest.approx(bc.T_m, abs=1e-12)


def test_fixed_face_temperature(dirichlet_case):
    _, bc, sol = dirichlet_case
    assert temperature_at(sol, 0.0, 1.0) == pytest.approx(bc.T_star, abs=1e-12)


def test_interior_matches_erf_solution(dirichlet_case):
    _, bc, sol = dirichlet_case
    t = 1.0
    x = front_position(sol, t) / 2.0
    lam = sol.profile.lam
    xi = lam / 2.0
    expected = (bc.T_m - bc.T_star) * erf(xi) / erf(lam) + bc.T_star
    assert temperature_at(sol, x, t) == pytest.approx(expected, abs=1e-6)


def test_front_position_values():
    sol = PhysicalSolution(alpha0=1.0, bc=Dirichlet(T_star=2.0, T_m=1.0), profile=ProfileGrid.linear(0.5, 32))
    assert front_position(sol, 0.0) == 0.0
    assert front_position(sol, 1.0) == pytest.approx(1.0)
    assert front_position(sol, 4.0) == pytest.approx(2.0 * front_position(sol, 1.0))


def test_temperature_bounded_between_melting_and_face(dirichlet_case):
    _, bc, sol = dirichlet_case
    t = 2.0
    s = front_position(sol, t)
    for x in np.linspace(0.0, s, 37):
        T = temperature_at(sol, float(x), t)
        assert bc.T_m - 1e-12 <= T <= bc.T_star + 1e-12


def test_beyond_front_returns_none(dirichlet_case):
    _, _, sol = dirichlet_case
    s = front_position(sol, 1.0)
    assert temperature_at(sol, s * 1.01, 1.0) is None


def test_stefan_residual_refines_with_grid():
    model = constant_model(1.0, 1.0, 1.0, 1.0, Pe=0.0)
    bc = Dirichlet(T_star=2.0, T_m=1.0)
    prob = build_dimensionless(model, bc)
    coarse = physical_solution(solve_lambda(prob, SolverSettings(n=512)), model, bc)
    fine = physical_solution(solve_lambda(prob, SolverSettings(n=2048)), model, bc)
    r_coarse = stefan_residual(coarse, model, 1.0)
    r_fine = stefan_residual(fine, model, 1.0)
    assert r_coarse <= 1e-3
    assert r_coarse / r_fine >= 3.0


def test_stefan_residual_takes_scalar_only_coefficients():
    # math.tanh and math.cos take one value only; the solve accepts such callables, so the residual must too
    model = ThermalModel(
        k=lambda T: 1.0 + 0.1 * math.tanh(T - 1.0),
        rho_c=lambda T: 1.0 + 0.05 * math.tanh(T - 1.0),
        mu=lambda T: 0.3 * math.cos(T - 1.0),
        k0=1.0, rho0=1.0, c0=1.0, ell=1.0,
    )
    bc = Dirichlet(T_star=2.0, T_m=1.0)
    sol = physical_solution(solve_lambda(build_dimensionless(model, bc), SolverSettings(n=128)), model, bc)
    assert 0.0 <= stefan_residual(sol, model, 1.0) <= 1e-3


def test_csv_exports(tmp_path, dirichlet_case):
    _, _, sol = dirichlet_case
    field = export_field_csv(sol, tmp_path / "field.csv", times=[1.0, 2.0], nx=11)
    front = export_front_csv(sol, tmp_path / "front.csv", times=[0.0, 1.0, 4.0])
    with field.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "t", "T"]
    assert len(rows) == 1 + 2 * 11
    # the array export agrees with point queries to the last bit
    for x, t, T in rows[1:]:
        assert float(T) == temperature_at(sol, float(x), float(t))
    # every time is checked before anything is written
    for t in (0.0, -1.0):
        with pytest.raises(ConfigError):
            export_field_csv(sol, tmp_path / "bad.csv", times=[1.0, t], nx=11)
        assert not (tmp_path / "bad.csv").exists()
    with pytest.raises(ConfigError):
        export_front_csv(sol, tmp_path / "bad.csv", times=[1.0, -1.0])
    assert not (tmp_path / "bad.csv").exists()
    with front.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "s"]
    assert float(rows[1][1]) == 0.0
    assert float(rows[3][1]) == pytest.approx(2.0 * float(rows[2][1]))


def test_profile_at_and_beyond_the_front_is_the_front_node_value(rng):
    bc = Dirichlet(T_star=2.0, T_m=1.0)
    for _ in range(200):
        lam = float(rng.uniform(0.05, 3.0))
        n = int(rng.integers(16, 600))
        f = np.sort(rng.uniform(0.0, 1.0, n + 1))
        f[-1] = 1.0
        sol = PhysicalSolution(alpha0=1.0, bc=bc, profile=ProfileGrid(lam, f))
        assert sol.f_at(lam) == f[-1]
        assert sol.f_at(2.0 * lam) == f[-1]
        assert np.all(sol.f_at(np.array([lam, 1.5 * lam])) == f[-1])


def test_reconstruction_uses_the_reduction_temperature_map():
    # T_m = 1.3 makes T_m (1 + f) and T_m f + T_m round apart at some nodes
    T = np.linspace(1.0, 3.0, 21)
    model = table_model(T, 1.0 + 0.1 * np.sin(3.0 * T), 1.0 + 0.05 * np.cos(T), 0.2 + 0.01 * T, 1.0, 1.0, 1.0, 1.0)
    bc = Neumann(q=0.5, T_m=1.3)
    prob = build_dimensionless(model, bc)
    sol = physical_solution(solve_lambda(prob, SolverSettings(n=256)), model, bc)
    f = sol.profile.f
    assert np.array_equal(model.k(temperature_of_f(sol.bc, f)) / model.k0, prob.L_star(f))


def csv_module_rendering(header, rows) -> bytes:
    """The rows as the csv module writes them, every number as repr(float(...))."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows([repr(float(v)) for v in row] for row in rows)
    return buffer.getvalue().encode()


def test_csv_writers_match_the_csv_module_byte_for_byte(tmp_path):
    # T_star = -0.0 puts a -0.0 at the face; t = 1e-300 puts a 1e-300 in the t column
    bc = Dirichlet(T_star=-0.0, T_m=-1.0)
    sol = PhysicalSolution(alpha0=1.0, bc=bc, profile=ProfileGrid(0.8, np.linspace(0.0, 1.0, 33) ** 2))

    xi, f = np.array([0.0, 1e-300, 0.5, 1.0]), np.array([-0.0, 1e-300, 1.0 / 3.0, 1.0])
    _write_profile_csv(tmp_path / "profile.csv", xi, f)
    assert (tmp_path / "profile.csv").read_bytes() == csv_module_rendering(["xi", "f"], zip(xi, f))

    times, nx = [1e-300, 1.0, 3.0], 17
    field = export_field_csv(sol, tmp_path / "field.csv", times, nx)
    rows = []
    for t in times:
        x = np.linspace(0.0, front_position(sol, t), nx)
        T = temperature_of_f(bc, sol.f_at(x / (2.0 * math.sqrt(sol.alpha0 * t))))
        rows.extend((xj, t, Tj) for xj, Tj in zip(x, T))
    assert field.read_bytes() == csv_module_rendering(["x", "t", "T"], rows)
    assert field.read_bytes().startswith(b"x,t,T\r\n0.0,1e-300,-0.0\r\n")

    times = [-0.0, 1e-300, 1.0, 4.0]
    front = export_front_csv(sol, tmp_path / "front.csv", times)
    assert front.read_bytes() == csv_module_rendering(["t", "s"], ((t, front_position(sol, t)) for t in times))
    assert front.read_bytes().startswith(b"t,s\r\n-0.0,-0.0\r\n1e-300,")


def test_interpolant_matches_scipy_pchip_to_the_bit(rng):
    # scipy.interpolate is imported here only: the package computes PCHIP itself
    from scipy.interpolate import PchipInterpolator

    profiles = [
        np.array([0.0, 1.0]),
        np.array([1.0, -0.0]),
        np.array([0.2, 0.2]),
        np.array([0.0, 1.0, 0.5]),
        np.array([1.0, 0.3, 0.0]),
        np.array([-0.0, -0.0, 0.5, -0.0]),
        np.array([1.0 / 3.0, -0.0, -1.0, -10.0]),  # every term at the -0.0 node is -0.0; the value is 0.0
        np.array([0.0, 0.1, -1.0]),  # the left end slope capped at 3 m0
        np.array([-1.0, 0.1, 0.0]),  # the right one
    ]
    for n in (3, 17, 600):
        falling = np.sort(rng.uniform(-1.0, 1.0, n + 1))[::-1]
        falling[np.argmin(np.abs(falling))] = -0.0  # a node value of -0.0 inside a falling run
        profiles += [
            falling,
            rng.uniform(-1.0, 1.0, n + 1),  # slopes change sign
            np.sort(rng.uniform(0.0, 1.0, n + 1))[::-1],  # monotone
            np.round(3.0 * rng.uniform(0.0, 1.0, n + 1)) / 3.0,  # flat runs
            np.abs(np.linspace(-1.0, 1.0, n + 1)),  # a kink
        ]
    bc = Dirichlet(T_star=2.0, T_m=1.0)
    for f in profiles:
        lam = float(rng.uniform(0.05, 3.0))
        sol = PhysicalSolution(alpha0=1.0, bc=bc, profile=ProfileGrid(lam, f))
        xi = sol.profile.xi
        pchip = PchipInterpolator(xi, sol.profile.f, extrapolate=False)
        # every node, random interior points, the front and beyond it
        q = np.concatenate([xi, rng.uniform(0.0, lam, 200), [lam, 1.5 * lam]])
        expected = np.where(q >= lam, f[-1], pchip(np.clip(q, 0.0, lam)))
        got = sol.f_at(q)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
        for point, value in zip(q[::37], expected[::37]):
            assert sol.f_at(float(point)) == value
