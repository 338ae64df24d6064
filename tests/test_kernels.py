import math

import numpy as np
import pytest
from scipy.special import erf

from meltfront import (
    BCKind,
    ConfigError,
    KernelOverflowError,
    ProfileGrid,
    constant_problem,
    eval_kernels,
    kernel_bounds,
    lipschitz_constants,
    linear_problem,
)
from meltfront.coefficients import eval_coefficient

from conftest import cumtrapz_ref, random_profile


def test_profile_grid_validation():
    with pytest.raises(ConfigError):
        ProfileGrid(-1.0, np.zeros(5))
    grid = ProfileGrid.linear(0.5, 8)
    assert grid.n == 8
    assert grid.xi[0] == 0.0
    assert grid.xi[-1] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        grid.f[0] = 1.0  # frozen storage


def test_constant_coefficients_zero_convection_closed_forms():
    prob = constant_problem(BCKind.DIRICHLET, Pe=0.0, Ste=1.0, T_star=2.0, T_m=1.0)
    grid = ProfileGrid.linear(1.0, 512)
    ke = eval_kernels(grid, prob)
    # the inner integrands are constant/linear, so E is exact to roundoff
    assert np.allclose(ke.E, np.exp(-grid.xi**2), atol=1e-13)
    assert np.allclose(ke.Phi, 0.5 * math.sqrt(math.pi) * erf(grid.xi), atol=1e-6)


def test_node_zero_values_are_exact(rng, linear_dirichlet):
    prof = random_profile(rng, 0.7, 64)
    ke = eval_kernels(prof, linear_dirichlet)
    assert np.exp(ke.log_U)[0] == 1.0
    assert np.exp(ke.log_I)[0] == 1.0
    assert ke.E[0] == 1.0
    assert ke.Phi[0] == 0.0
    assert np.all(np.diff(np.exp(ke.log_U)) >= 0.0)
    assert np.all(np.diff(np.exp(ke.log_I)) > 0.0)
    assert np.all(np.diff(ke.Phi) > 0.0)


def test_kernels_match_refined_trapezoid_oracle(linear_dirichlet):
    # n chosen so the base-grid quadrature error itself sits below the 1e-8
    # comparison tolerance (the second-order error at n=512 is ~8e-8)
    lam, n, refine = 0.5, 2048, 10
    coarse = ProfileGrid.linear(lam, n)
    ke = eval_kernels(coarse, linear_dirichlet)

    # independent oracle: same integrands, 10x denser grid, plain cumsum
    fine_xi = np.linspace(0.0, lam, refine * n + 1)
    fine_f = fine_xi / lam
    L = eval_coefficient(linear_dirichlet.L_star, fine_f)
    N = eval_coefficient(linear_dirichlet.N_star, fine_f)
    mu = eval_coefficient(linear_dirichlet.mu_star, fine_f)
    U_ref = np.exp(2.0 * cumtrapz_ref(mu / L, fine_xi))
    I_ref = np.exp(2.0 * cumtrapz_ref(fine_xi * N / L, fine_xi))
    E_ref = U_ref / I_ref
    Phi_ref = cumtrapz_ref(E_ref / L, fine_xi)

    shared = slice(None, None, refine)
    assert np.max(np.abs(np.exp(ke.log_U) - U_ref[shared])) <= 1e-8
    assert np.max(np.abs(np.exp(ke.log_I) - I_ref[shared])) <= 1e-8
    assert np.max(np.abs(ke.E - E_ref[shared])) <= 1e-8
    assert np.max(np.abs(ke.Phi - Phi_ref[shared])) <= 1e-8


def test_envelope_collapses_for_constant_coefficients():
    prob = constant_problem(BCKind.DIRICHLET, Pe=1.0, Ste=1.0, T_star=2.0, T_m=1.0)
    env = kernel_bounds(0.9, prob, n=64)
    z = env.xi
    assert np.allclose(env.E_lower, np.exp(2.0 * z - z**2), atol=1e-13)
    assert np.allclose(env.E_upper, np.exp(2.0 * z - z**2), atol=1e-13)
    ke = eval_kernels(ProfileGrid.linear(0.9, 64), prob)
    assert np.all(ke.E >= env.E_lower - 1e-12)
    assert np.all(ke.E <= env.E_upper + 1e-12)


def test_envelope_values_at_zero(linear_dirichlet):
    env = kernel_bounds(0.8, linear_dirichlet, n=32)
    for arr in (env.U_lower, env.U_upper, env.I_lower, env.I_upper, env.E_lower, env.E_upper):
        assert arr[0] == pytest.approx(1.0)
    assert env.Phi_lower[0] == 0.0


def test_envelope_ordering(linear_dirichlet):
    env = kernel_bounds(0.8, linear_dirichlet, n=128)
    for lo, hi in (
        (env.U_lower, env.U_upper),
        (env.I_lower, env.I_upper),
        (env.E_lower, env.E_upper),
        (env.Phi_lower, env.Phi_upper),
    ):
        assert float(np.min(hi - lo)) >= 0.0


def test_random_profiles_stay_inside_envelopes(rng, linear_dirichlet):
    for _ in range(10):
        lam = rng.uniform(0.3, 1.0)
        prof = random_profile(rng, lam, 256)
        ke = eval_kernels(prof, linear_dirichlet)
        env = kernel_bounds(lam, linear_dirichlet, n=256)
        for arr, lo, hi in (
            (np.exp(ke.log_U), env.U_lower, env.U_upper),
            (np.exp(ke.log_I), env.I_lower, env.I_upper),
            (ke.E, env.E_lower, env.E_upper),
            (ke.Phi, env.Phi_lower, env.Phi_upper),
        ):
            assert np.all(arr >= lo - 1e-8)
            assert np.all(arr <= hi + 1e-8)


def test_degenerate_phi_upper_bound_when_no_convection():
    prob = linear_problem(BCKind.DIRICHLET, alpha=0.0, beta=0.2, Pe=0.0, Ste=1.0)
    env = kernel_bounds(0.5, prob, n=32)
    assert env.phi_upper_degenerate
    assert np.allclose(env.Phi_upper, env.xi / prob.L_m)
    ke = eval_kernels(ProfileGrid.linear(0.5, 32), prob)
    assert np.all(ke.Phi <= env.Phi_upper + 1e-12)


def test_lipschitz_constants_vanish_for_constant_coefficients():
    prob = constant_problem(BCKind.DIRICHLET, Pe=0.7, Ste=1.0, T_star=2.0, T_m=1.0)
    D = lipschitz_constants(0.8, prob)
    assert D.D1 == D.D2 == D.D3 == D.D4 == 0.0


def test_lipschitz_first_constant_frozen_value(linear_dirichlet):
    # independent evaluation: 2 exp(2 mu_M / L_m) / L_m^2 * z * (mu_M L~ + L_m mu~)
    z = 0.5
    expected = 2.0 * math.exp(2.0 * 0.55 / 1.0) / 1.0 * z * (0.55 * 0.1 + 1.0 * 0.05)
    D = lipschitz_constants(z, linear_dirichlet)
    assert D.D1 == pytest.approx(expected, rel=1e-14)
    assert D.D1 == pytest.approx(0.31543743251437556, rel=1e-12)


def test_lipschitz_constants_monotone(linear_dirichlet):
    zs = np.linspace(0.05, 1.2, 12)
    D4s = [lipschitz_constants(z, linear_dirichlet).D4 for z in zs]
    assert np.all(np.diff(D4s) > 0.0)


def test_phi_lipschitz_property(rng, linear_dirichlet):
    for _ in range(10):
        lam = rng.uniform(0.2, 0.8)
        f1 = random_profile(rng, lam, 256)
        f2 = random_profile(rng, lam, 256)
        d_in = float(np.max(np.abs(f1.f - f2.f)))
        phi1 = eval_kernels(f1, linear_dirichlet).Phi
        phi2 = eval_kernels(f2, linear_dirichlet).Phi
        d_phi = float(np.max(np.abs(phi1 - phi2)))
        D4 = lipschitz_constants(lam, linear_dirichlet).D4
        assert d_phi <= lam * D4 * d_in + 1e-8


def test_quadrature_second_order_refinement(linear_dirichlet):
    lam = 0.8
    ends = {n: eval_kernels(ProfileGrid.linear(lam, n), linear_dirichlet).Phi[-1] for n in (128, 256, 512)}
    ratio = (ends[128] - ends[256]) / (ends[256] - ends[512])
    assert 3.5 <= ratio <= 4.5


def test_overflow_guard_reports_node():
    prob = constant_problem(BCKind.DIRICHLET, Pe=500.0, Ste=1.0, T_star=2.0, T_m=1.0)
    with pytest.raises(KernelOverflowError) as exc:
        eval_kernels(ProfileGrid.linear(2.0, 64), prob)
    assert exc.value.node is not None
    assert exc.value.exponent > 700.0
    # the node's position prints as a plain float
    assert f"(xi={float(ProfileGrid.linear(2.0, 64).xi[exc.value.node])!r})" in str(exc.value)
