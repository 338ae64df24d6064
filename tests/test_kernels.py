import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erf

from meltfront import (
    BCKind,
    ConfigError,
    Dirichlet,
    KernelOverflowError,
    Neumann,
    ProfileGrid,
    Radiative,
    Robin,
    build_dimensionless,
    constant_model,
    constant_problem,
    eval_kernels,
    kernel_bounds,
    lipschitz_constants,
    linear_model,
    linear_problem,
    solve_lambda,
    table_model,
)
from meltfront import fixed_point, kernels
from meltfront.coefficients import eval_coefficient
from meltfront.kernels import EXP_GUARD

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


def _three_sum_reference(profile, prob):
    """log U, log I, E and Phi with U's and I's exponents summed apart and subtracted, on the independent cumsum."""
    xi = profile.xi
    L, N, mu = (eval_coefficient(fn, profile.f) for fn in (prob.L_star, prob.N_star, prob.mu_star))
    log_U = 2.0 * cumtrapz_ref(mu / L, xi)
    log_I = 2.0 * cumtrapz_ref(xi * N / L, xi)
    E = np.exp(log_U - log_I)
    return log_U, log_I, E, cumtrapz_ref(E / L, xi)


T_TABLE = np.linspace(1.0, 4.0, 13)
MODELS = {
    "constant": constant_model(2.0, 1.0, 3.0, 1.0, Pe=0.4),
    "linear": linear_model(2.0, 1.0, 3.0, 1.0, alpha=0.2, beta=0.3, Pe=0.4, T_star=4.0, T_m=1.0),
    "table": table_model(
        T_TABLE, 2.0 + 0.3 * np.sin(T_TABLE), 3.0 + 0.2 * np.cos(T_TABLE), 0.1 + 0.05 * T_TABLE, 2.0, 1.0, 3.0, 1.0
    ),
}
CONDITIONS = {
    "dirichlet": Dirichlet(T_star=4.0, T_m=1.0),
    "neumann": Neumann(q=0.5, T_m=1.0),
    "robin": Robin(h=0.7, T_star=4.0, T_m=1.0),
    "radiative": Radiative(h=0.1, sigma=0.05, epsilon=0.5, T_star=4.0, T_m=1.0),
}


@pytest.mark.parametrize("family", sorted(MODELS))
@pytest.mark.parametrize("condition", sorted(CONDITIONS))
def test_one_exponent_sum_matches_three_sum_reference(rng, condition, family):
    prob = build_dimensionless(MODELS[family], CONDITIONS[condition])
    # Neumann profiles may exceed 1
    hi = 1.8 if condition == "neumann" else 1.0
    for _ in range(5):
        prof = random_profile(rng, rng.uniform(0.2, 2.0), 512, hi=hi)
        ke = eval_kernels(prof, prob)
        log_U, log_I, E, Phi = _three_sum_reference(prof, prob)
        assert np.max(np.abs(ke.E - E) / E) <= 1e-13
        assert np.max(np.abs(ke.Phi[1:] - Phi[1:]) / Phi[1:]) <= 1e-13
        assert ke.Phi[0] == 0.0
        # the exponents are read on demand, from the three-sum formula
        assert np.max(np.abs(ke.log_U - log_U)) <= 1e-13 * max(1.0, np.max(np.abs(log_U)))
        assert np.max(np.abs(ke.log_I - log_I)) <= 1e-13 * max(1.0, np.max(np.abs(log_I)))


def _three_sum_error(profile, prob):
    """The error the three-sum kernel raised for this input, in its check order, or None."""
    xi, step = profile.xi, profile.step
    L, N, mu = (eval_coefficient(fn, profile.f) for fn in (prob.L_star, prob.N_star, prob.mu_star))
    for name, arr in (("L*", L), ("N*", N), ("mu*", mu)):
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            return ConfigError(f"{name} returned a non-finite value at node {bad} (xi={float(xi[bad])!r})")
    if L.min() <= 0.0:
        bad = int(np.flatnonzero(L <= 0.0)[0])
        return ConfigError(f"L* must be positive, got {L[bad]!r} at node {bad}")
    exp_u = kernels._cumulative_trapezoid(mu / L, 2.0 * step)
    exp_i = kernels._cumulative_trapezoid(xi * N / L, 2.0 * step)
    max_u, max_i = float(np.max(exp_u)), float(np.max(exp_i))
    worst = max(max_u, max_i)
    if worst > EXP_GUARD:
        bad = int(np.argmax(exp_u if max_u >= max_i else exp_i))
        return KernelOverflowError(
            f"kernel exponent {worst:.3g} exceeds the overflow guard {EXP_GUARD:g} at node {bad}"
            f" (xi={float(xi[bad])!r}); the profile or coefficients are out of range",
            node=bad,
            exponent=worst,
        )
    return None


def _assert_same_outcome(profile, prob):
    expected = _three_sum_error(profile, prob)
    if expected is None:
        # E's relative error is its exponent's absolute error, up to 1e-13 of the largest exponent
        E, rtol = _three_sum_reference(profile, prob)[2], 1e-13 * max(1.0, _largest_exponent(profile, prob))
        np.testing.assert_allclose(eval_kernels(profile, prob).E, E, rtol=rtol)
        return None
    with pytest.raises(type(expected)) as exc:
        eval_kernels(profile, prob)
    assert str(exc.value) == str(expected)
    if isinstance(expected, KernelOverflowError):
        assert (exc.value.node, exc.value.exponent) == (expected.node, expected.exponent)
    return expected


def _largest_exponent(profile, prob):
    L, N, mu = (eval_coefficient(fn, profile.f) for fn in (prob.L_star, prob.N_star, prob.mu_star))
    exp_u = kernels._cumulative_trapezoid(mu / L, 2.0 * profile.step)
    exp_i = kernels._cumulative_trapezoid(profile.xi * N / L, 2.0 * profile.step)
    return max(float(np.max(exp_u)), float(np.max(exp_i)))


# largest exact exponent either side of the guard
TARGETS = [(699.9, True), (700.1, False)]


@pytest.mark.parametrize("target, passes", TARGETS)
def test_overflow_guard_decides_as_three_sum_kernel_on_U(rng, target, passes):
    # mu* = Pe N* scales U's exponent linearly in Pe; I's stays far below it
    base = linear_problem(BCKind.DIRICHLET, alpha=0.3, beta=0.2, Pe=1.0, Ste=1.0)
    prof = random_profile(rng, 1.0, 64)
    Pe = target / _largest_exponent(prof, base)
    prob = linear_problem(BCKind.DIRICHLET, alpha=0.3, beta=0.2, Pe=Pe, Ste=1.0)
    assert _largest_exponent(prof, prob) == pytest.approx(target, rel=1e-13)
    assert (_assert_same_outcome(prof, prob) is None) == passes


@pytest.mark.parametrize("target, passes", TARGETS)
def test_overflow_guard_decides_as_three_sum_kernel_on_I(target, passes):
    # with no convection only I's exponent xi^2 grows, largest at the last node
    prob = constant_problem(BCKind.DIRICHLET, Pe=0.0, Ste=1.0, T_star=2.0, T_m=1.0)
    prof = ProfileGrid.linear(math.sqrt(target), 64)
    assert _largest_exponent(prof, prob) == pytest.approx(target, rel=1e-13)
    error = _assert_same_outcome(prof, prob)
    assert (error is None) == passes
    assert error is None or error.node == 64


@pytest.mark.parametrize("step, sums", [(-1, 2), (0, 2), (1, 4)])
def test_exact_exponent_sums_run_from_half_the_guard(monkeypatch, step, sums):
    # with constant coefficients the bound read from the extremes is the exact
    # largest exponent 2 Pe lam: at or below EXP_GUARD / 2 only E's exponent and Phi are summed
    Pe = 175.0 + step * 175.0 * np.finfo(float).eps
    prob = constant_problem(BCKind.DIRICHLET, Pe=Pe, Ste=1.0, T_star=2.0, T_m=1.0)
    prof = ProfileGrid.linear(1.0, 64)
    assert _largest_exponent(prof, prob) == pytest.approx(0.5 * EXP_GUARD, rel=1e-13)
    assert _assert_same_outcome(prof, prob) is None
    trapezoid, calls = kernels._cumulative_trapezoid, []
    monkeypatch.setattr(kernels, "_cumulative_trapezoid", lambda *args: calls.append(1) or trapezoid(*args))
    eval_kernels(prof, prob)
    assert len(calls) == sums


@pytest.mark.parametrize("name", ["L_star", "N_star", "mu_star"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficient_raises_named_config_error(linear_dirichlet, name, bad):
    base = getattr(linear_dirichlet, name)

    def poisoned(f):
        out = np.array(base(f), dtype=float)
        out[5] = bad
        return out

    prob = replace(linear_dirichlet, **{name: poisoned})
    expected = _assert_same_outcome(ProfileGrid.linear(0.5, 16), prob)
    assert isinstance(expected, ConfigError) and "non-finite value at node 5" in str(expected)


def test_coefficients_near_the_float_maximum_are_no_config_error(linear_dirichlet):
    # finite L* and mu* near the float maximum: the bound read from them is inf, so the exact sums decide
    prob = replace(linear_dirichlet, L_star=lambda f: np.full_like(f, 1e308), mu_star=lambda f: np.full_like(f, 1e308))
    assert _assert_same_outcome(ProfileGrid.linear(0.5, 16), prob) is None


def test_non_positive_L_raises_as_three_sum_kernel(linear_dirichlet):
    prob = replace(linear_dirichlet, L_star=lambda f: 0.5 - np.asarray(f, dtype=float))
    expected = _assert_same_outcome(ProfileGrid.linear(0.5, 16), prob)
    assert isinstance(expected, ConfigError) and "L* must be positive" in str(expected)


def test_solve_sums_only_E_exponent_and_Phi(linear_dirichlet, monkeypatch):
    sums, evals = [], []
    trapezoid, original = kernels._cumulative_trapezoid, fixed_point.eval_kernels

    def counting_sum(*args):
        sums.append(1)
        return trapezoid(*args)

    def counting_eval(*args):
        evals.append(1)
        return original(*args)

    monkeypatch.setattr(kernels, "_cumulative_trapezoid", counting_sum)
    monkeypatch.setattr(fixed_point, "eval_kernels", counting_eval)
    solve_lambda(linear_dirichlet)
    assert evals and len(sums) == 2 * len(evals)


def test_erf_is_within_4_ulp_of_scipy():
    x = np.linspace(-6.0, 6.0, 120_001)
    want = erf(x)
    assert np.all(np.abs(kernels._erf(x) - want) <= 4.0 * np.spacing(np.abs(want)))
    # an array keeps its shape
    assert np.array_equal(kernels._erf(x[:6].reshape(2, 3)), kernels._erf(x[:6]).reshape(2, 3))


@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, 30.0, -30.0, math.inf, -math.inf])
def test_erf_special_arguments(x):
    want = float(erf(x))
    for got in (kernels._erf(x), kernels._erf(np.array(x)), float(kernels._erf(np.array([x]))[0])):
        assert type(got) is float
        assert abs(got - want) <= 4.0 * np.spacing(abs(want))
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
