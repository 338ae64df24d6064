import numpy as np
import pytest
from scipy.special import erf

from meltfront import (
    BCKind,
    ProfileGrid,
    apply_operator,
    certify,
    constant_problem,
    contraction_bound,
    eval_kernels,
    linear_problem,
    solve_profile,
)
from meltfront.coefficients import Radiative
from meltfront.errors import ConfigError
from meltfront.existence import HOLDS, lambda_bar
from meltfront.fixed_point import _ESCAPE_TOL, _admissible, _hypotheses

from conftest import random_profile


def test_dirichlet_image_endpoints(rng, linear_dirichlet):
    prof = random_profile(rng, 0.6, 128)
    image = apply_operator(linear_dirichlet, prof)
    assert image.f[0] == 0.0
    assert image.f[-1] == pytest.approx(1.0, abs=1e-15)


def test_neumann_and_robin_image_endpoints(rng):
    pn = constant_problem(BCKind.NEUMANN, Pe=0.3, q_star=1.0, M=2.0, T_m=1.0)
    image = apply_operator(pn, random_profile(rng, 0.6, 128))
    assert image.f[-1] == pytest.approx(0.0, abs=1e-15)
    pr = linear_problem(BCKind.ROBIN, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0, Bi=0.7)
    image = apply_operator(pr, random_profile(rng, 0.6, 128))
    assert image.f[-1] == pytest.approx(1.0, abs=1e-15)


def test_dirichlet_constant_image_is_erf_ratio():
    Pe, lam = 1.0, 0.5
    prob = constant_problem(BCKind.DIRICHLET, Pe=Pe, Ste=1.0, T_star=2.0, T_m=1.0)
    grid = ProfileGrid.linear(lam, 512)
    image = apply_operator(prob, grid)
    expected = (erf(Pe) - erf(Pe - grid.xi)) / (erf(Pe) - erf(Pe - lam))
    assert np.max(np.abs(image.f - expected)) <= 1e-6


def test_radiative_zero_exchange_maps_to_one(rng):
    prob = constant_problem(
        BCKind.RADIATIVE, Pe=0.5, Ste=1.0, Bi=0.0, r=0.0, T_star=2.0, T_m=1.0
    )
    image = apply_operator(prob, random_profile(rng, 0.4, 64))
    assert np.allclose(image.f, 1.0)


@pytest.mark.parametrize(
    "prob",
    [
        constant_problem(BCKind.DIRICHLET, Pe=0.5, Ste=1.0, T_star=2.0, T_m=1.0),
        constant_problem(BCKind.NEUMANN, Pe=0.5, q_star=1.0, M=2.0, T_m=1.0),
        constant_problem(BCKind.ROBIN, Pe=0.5, Ste=1.0, Bi=2.0, T_star=2.0, T_m=1.0),
        constant_problem(BCKind.RADIATIVE, Pe=0.5, Ste=1.0, Bi=0.1, r=0.01, T_star=2.0, T_m=1.0),
    ],
)
def test_constant_coefficients_converge_in_one_iteration(prob):
    res = solve_profile(prob, 0.5, n=128)
    # the operator image does not depend on f except through f(0) for the
    # radiative kind, which stabilizes after the first application too when
    # the exchange terms are mild
    assert res.converged
    if prob.bc_kind is not BCKind.RADIATIVE:
        assert res.iterations == 1


def test_linear_family_contraction_rate(linear_dirichlet):
    lam = 0.4
    res = solve_profile(linear_dirichlet, lam, tol=1e-10)
    assert res.converged
    assert res.residual <= 1e-10
    bound = contraction_bound(linear_dirichlet, lam)
    assert res.theoretical_rate == pytest.approx(bound)
    assert res.contraction_observed is not None
    assert res.contraction_observed <= bound + 0.05


def test_overflowing_contraction_bound_has_no_theoretical_rate():
    prob = linear_problem(BCKind.DIRICHLET, 0.1, 0.1, 400.0, Ste=1.0)
    assert solve_profile(prob, 0.5, n=64).theoretical_rate is None


def test_neumann_profile_may_exceed_one():
    prob = constant_problem(BCKind.NEUMANN, Pe=0.0, q_star=3.0, M=2.0, T_m=1.0)
    res = solve_profile(prob, 0.8, n=256)
    assert res.converged
    f = res.profile.f
    assert f[-1] == pytest.approx(0.0, abs=1e-14)
    assert float(np.max(f)) > 1.0
    assert np.all(np.diff(f) <= 1e-14)  # non-increasing


def test_contraction_bound_zero_for_constant_coefficients():
    prob = constant_problem(BCKind.DIRICHLET, Pe=0.9, Ste=1.0, T_star=2.0, T_m=1.0)
    for z in (0.1, 0.5, 2.0):
        assert contraction_bound(prob, z) == 0.0


def test_contraction_bound_small_z_limit():
    # 2 L_M L~ / L_m^2 = 2 * 1.1 * 0.1 = 0.22 at z -> 0
    prob = linear_problem(BCKind.DIRICHLET, alpha=0.0, beta=0.1, Pe=0.0, Ste=1.0)
    assert contraction_bound(prob, 1e-12) == pytest.approx(0.22, abs=1e-9)


def test_radiative_bound_is_inf_without_convection_and_rejects_negative_z():
    prob = linear_problem(
        BCKind.RADIATIVE, alpha=0.05, beta=0.05, Pe=0.0, Ste=0.5, Bi=0.05, r=0.005, T_star=2.0, T_m=1.0
    )
    assert prob.mu_M == 0.0
    assert contraction_bound(prob, 0.0) == contraction_bound(prob, 0.5) == np.inf
    with pytest.raises(ConfigError, match="non-negative"):
        contraction_bound(prob, -1.0)


@pytest.mark.parametrize(
    "values, f_max, admissible",
    [
        ([-_ESCAPE_TOL, 0.5, 1.0 + _ESCAPE_TOL], 1.0, True),
        ([-2.0 * _ESCAPE_TOL, 0.5, 1.0], 1.0, False),
        ([0.0, 0.5, 1.0 + 2.0 * _ESCAPE_TOL], 1.0, False),
        ([0.0, np.nan, 1.0], 1.0, False),
        ([0.0, 1e300], np.inf, True),
        ([-2.0 * _ESCAPE_TOL, 1e300], np.inf, False),
    ],
    ids=["at-tolerance", "below-zero", "above-f_max", "nan", "unbounded", "unbounded-below-zero"],
)
def test_admissible_range(values, f_max, admissible):
    assert _admissible(np.array(values), f_max) is admissible


def test_robin_bound_equals_dirichlet_bound():
    pd = linear_problem(BCKind.DIRICHLET, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0)
    ph = linear_problem(BCKind.ROBIN, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0, Bi=3.0)
    for z in (0.1, 0.3, 0.7):
        assert contraction_bound(pd, z) == pytest.approx(contraction_bound(ph, z), rel=1e-14)


@pytest.mark.parametrize(
    "prob",
    [
        linear_problem(BCKind.DIRICHLET, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0),
        linear_problem(BCKind.NEUMANN, alpha=0.1, beta=0.1, Pe=0.5, q_star=0.8, M=2.0, T_m=1.0),
        linear_problem(BCKind.ROBIN, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0, Bi=0.7),
    ],
)
def test_empirical_contraction_below_bound(rng, prob):
    lb, _ = lambda_bar(prob)
    assert lb is not None
    for _ in range(8):
        lam = float(rng.uniform(0.1, 0.9) * lb)
        f1 = random_profile(rng, lam, 128)
        f2 = random_profile(rng, lam, 128)
        d_in = float(np.max(np.abs(f1.f - f2.f)))
        d_out = float(np.max(np.abs(apply_operator(prob, f1).f - apply_operator(prob, f2).f)))
        assert d_out <= contraction_bound(prob, lam) * d_in + 1e-6


def test_residual_does_not_grow_after_extra_application(linear_dirichlet):
    res = solve_profile(linear_dirichlet, 0.3, tol=1e-10)
    assert res.converged
    extra = apply_operator(linear_dirichlet, res.profile)
    reapplied = apply_operator(linear_dirichlet, extra)
    new_residual = float(np.max(np.abs(reapplied.f - extra.f)))
    assert new_residual <= res.residual + 1e-13


def test_profile_monotonicity(linear_dirichlet):
    res = solve_profile(linear_dirichlet, 0.5)
    assert np.all(np.diff(res.profile.f) >= -1e-14)
    pn = linear_problem(BCKind.NEUMANN, alpha=0.1, beta=0.1, Pe=0.5, q_star=0.8, M=2.0, T_m=1.0)
    resn = solve_profile(pn, 0.5)
    assert np.all(np.diff(resn.profile.f) <= 1e-14)


def test_radiative_hypothesis_margins():
    good = linear_problem(
        BCKind.RADIATIVE, alpha=0.05, beta=0.05, Pe=0.3, Ste=0.5, Bi=0.05, r=0.005, T_star=2.0, T_m=1.0
    )
    assert Radiative.self_map_margin(good) <= 1.0
    # the contraction bound at z = 0 is the Lipschitz margin (2 Bi + r D5) / mu_M, bit for bit
    assert contraction_bound(good, 0.0) == (2.0 * good.Bi + good.r * good.D5) / good.mu_M < 1.0
    assert all(_hypotheses(good).values())
    bad = linear_problem(
        BCKind.RADIATIVE, alpha=0.05, beta=0.05, Pe=0.3, Ste=0.5, Bi=3.0, r=0.05, T_star=2.0, T_m=1.0
    )
    assert not all(_hypotheses(bad).values())


RADIATIVE_FLAGS = ("radiative_self_map", "radiative_self_map_dimensional", "radiative_lipschitz")
# (Bi, r, Pe) on the linear family alpha = beta = 0.05, and which of RADIATIVE_FLAGS hold; the
# dimensional self-map margin never exceeds the other one, so it cannot fail on its own
RADIATIVE_HYPOTHESES = [
    ((0.05, 0.005, 0.3), (True, True, True)),
    ((0.0, 0.0112, 1.0), (False, True, True)),
    ((0.05, 0.0135, 1.0), (False, False, True)),
    ((0.05, 0.005, 30.0), (False, False, True)),  # the self-map margin overflows
    ((0.0, 0.0135, 0.3), (True, True, False)),
    ((0.05, 0.005, 0.0), (True, True, False)),  # mu_M = 0
    ((3.0, 0.05, 0.3), (False, False, False)),
]


@pytest.mark.parametrize("params, holds", RADIATIVE_HYPOTHESES)
def test_clamp_rule_agrees_with_the_certificate(params, holds):
    Bi, r, Pe = params
    prob = linear_problem(
        BCKind.RADIATIVE, alpha=0.05, beta=0.05, Pe=Pe, Ste=0.5, Bi=Bi, r=r, T_star=2.0, T_m=1.0
    )
    flags = certify(prob).hypothesis_flags
    assert tuple(flags[name] == HOLDS for name in RADIATIVE_FLAGS) == holds
    assert all(_hypotheses(prob).values()) == all(holds)


def test_radiative_escape_is_flagged_and_clamped():
    prob = constant_problem(
        BCKind.RADIATIVE, Pe=0.5, Ste=1.0, Bi=3.0, r=0.01, T_star=2.0, T_m=1.0
    )
    assert not all(_hypotheses(prob).values())
    res = solve_profile(prob, 0.5, max_iter=40, n=128)
    # the raw image leaves [0, 1]; iterates are clamped and the run is
    # reported honestly whether or not it settles
    assert res.escaped_unit_interval
    assert res.clamped
    assert np.all(res.profile.f >= 0.0) and np.all(res.profile.f <= 1.0)
    assert np.all(res.image >= 0.0) and np.all(res.image <= 1.0)
    if not res.converged:
        assert res.residual > 1e-10


def test_nonconvergence_is_reported(linear_dirichlet):
    res = solve_profile(linear_dirichlet, 0.4, tol=1e-14, max_iter=2)
    assert not res.converged
    assert res.residual > 1e-14
    assert res.iterations == 2


def test_start_profile_must_match_lambda(linear_dirichlet):
    from meltfront import ConfigError, ProfileGrid

    with pytest.raises(ConfigError, match="lambda"):
        solve_profile(linear_dirichlet, 0.4, f0=ProfileGrid.linear(0.5, 64))


def _picard_by_hand(prob, f0, tol):
    """The Picard sequence from f0 as a plain loop: profile, iterations, residual and image of the first iterate within tol."""
    current, iterations = apply_operator(prob, f0), 1
    while True:
        probe = apply_operator(prob, current)
        residual = float(np.max(np.abs(probe.f - current.f)))
        if residual <= tol:
            return current, iterations, residual, probe.f
        current, iterations = probe, iterations + 1


def test_a_start_that_misses_tol_runs_the_whole_picard_sequence(linear_dirichlet):
    f0 = ProfileGrid.linear(0.4, 256)
    res = solve_profile(linear_dirichlet, 0.4, tol=1e-12, f0=f0)
    profile, iterations, residual, image = _picard_by_hand(linear_dirichlet, f0, 1e-12)
    assert iterations > 1
    assert res.iterations == iterations and res.residual == residual
    assert np.array_equal(res.profile.f, profile.f) and np.array_equal(res.image, image)


def test_a_start_that_meets_tol_comes_back_as_itself(linear_dirichlet):
    solved = solve_profile(linear_dirichlet, 0.4, tol=1e-12, n=256)
    # the image of a converged profile carries less defect than the profile itself
    start = solved.profile.with_values(solved.image)
    res = solve_profile(linear_dirichlet, 0.4, tol=1e-12, f0=start)
    assert res.converged and res.iterations == 0 and res.contraction_observed is None
    assert res.profile is start and res.kernels.profile is start
    assert np.array_equal(res.kernels.E, eval_kernels(start, linear_dirichlet).E)
    assert np.array_equal(res.image, apply_operator(linear_dirichlet, start).f)
    assert res.residual == float(np.max(np.abs(res.image - start.f))) <= 1e-12
