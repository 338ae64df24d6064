import math
from dataclasses import fields, replace

import numpy as np
import pytest

from meltfront import (
    BCKind,
    ConfigError,
    DimensionlessProblem,
    Dirichlet,
    Neumann,
    ProfileGrid,
    Radiative,
    Robin,
    ThermalModel,
    build_dimensionless,
    certify,
    constant_model,
    constant_problem,
    eval_kernels,
    linear_model,
    linear_problem,
    solve_lambda,
    table_model,
    table_model_from_csv,
)
from meltfront.coefficients import eval_coefficient, temperature_of_f

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


# (k0, rho0, c0, ell) sets whose reductions round differently
REFERENCE_SETS = [(1.0, 1.0, 1.0, 1.0), (3.0, 2.0, 5.0, 7.0), (0.37, 1.3e3, 2.9e-2, 4.1)]


@pytest.mark.parametrize("reference", REFERENCE_SETS)
@pytest.mark.parametrize(
    "bc",
    [
        Dirichlet(T_star=2.0, T_m=1.0),
        Robin(h=0.7, T_star=3.3, T_m=1.1),
        Radiative(h=0.1, sigma=1.0, epsilon=0.25, T_star=1.5, T_m=0.2),
    ],
    ids=["dirichlet", "robin", "radiative"],
)
def test_constant_model_reduces_bitwise_like_the_linear_family_at_zero_slopes(bc, reference):
    constant = build_dimensionless(constant_model(*reference, Pe=0.8), bc)
    linear = build_dimensionless(
        linear_model(*reference, alpha=0.0, beta=0.0, Pe=0.8, T_star=bc.T_star, T_m=bc.T_m), bc
    )
    for field in fields(DimensionlessProblem):
        a, b = getattr(constant, field.name), getattr(linear, field.name)
        if callable(a):
            assert a(F_SAMPLES).tobytes() == b(F_SAMPLES).tobytes(), field.name
        else:
            assert repr(a) == repr(b), field.name


F_DENSE = np.linspace(0.0, 1.0, 257)
ANCHORED_BCS = [
    Dirichlet(T_star=2.0, T_m=1.0),
    Robin(h=0.7, T_star=3.3, T_m=1.1),
    Radiative(h=0.1, sigma=1.0, epsilon=0.25, T_star=1.5, T_m=0.2),
]


def composed_coefficients(model, bc, f):
    """The model's dimensional coefficients through the temperature map, over their reference constants."""
    gamma0 = model.rho0 * model.c0
    T = temperature_of_f(bc, f)
    return model.k(T) / model.k0, model.rho_c(T) / gamma0, model.mu(T) / math.sqrt(gamma0 * model.k0)


def reduced_coefficients(prob, f):
    return prob.L_star(f), prob.N_star(f), prob.mu_star(f)


def composed_copy(model):
    """The same coefficients and constants as a model that records no family."""
    return ThermalModel(model.k, model.rho_c, model.mu, model.k0, model.rho0, model.c0, model.ell)


def assert_bounds_hold(prob, f):
    """Each stated min and max is attained on ``f`` and the Lipschitz constants bound every increment."""
    for name, fn in (("L", prob.L_star), ("N", prob.N_star), ("mu", prob.mu_star)):
        vals = fn(f)
        lo, hi, lip = (getattr(prob, f"{name}_{suffix}") for suffix in ("m", "M", "tilde"))
        assert lo <= vals.min() and vals.max() <= hi, name
        # each increment carries up to two roundings of the values
        slack = 2.0 * np.finfo(float).eps * np.max(np.abs(vals)) / np.min(np.diff(f))
        assert np.max(np.abs(np.diff(vals)) / np.diff(f)) <= lip + slack, name


PARAMETERS = ("Ste", "q_star", "M", "Bi", "r", "T_star", "T_m")


@pytest.mark.parametrize("reference", REFERENCE_SETS)
@pytest.mark.parametrize("bc", ANCHORED_BCS, ids=["dirichlet", "robin", "radiative"])
@pytest.mark.parametrize("family", ["constant", "linear"])
def test_linear_family_models_reduce_directly_within_4_ulp_of_the_composition(family, bc, reference):
    alpha, beta, Pe = (0.0, 0.0, 0.8) if family == "constant" else (0.3, 0.2, 0.7)
    if family == "constant":
        model = constant_model(*reference, Pe=Pe)
    else:
        model = linear_model(*reference, alpha=alpha, beta=beta, Pe=Pe, T_star=bc.T_star, T_m=bc.T_m)
    prob = build_dimensionless(model, bc)
    for got, composed in zip(reduced_coefficients(prob, F_DENSE), composed_coefficients(model, bc, F_DENSE)):
        np.testing.assert_array_max_ulp(got, composed, maxulp=4)
    # under the model's own anchors the reduction is linear_problem's family, bounds and all
    family_prob = linear_problem(bc.kind, alpha, beta, Pe, **{name: getattr(prob, name) for name in PARAMETERS})
    for got, direct in zip(reduced_coefficients(prob, F_DENSE), reduced_coefficients(family_prob, F_DENSE)):
        assert got.tobytes() == direct.tobytes()
    for field in fields(DimensionlessProblem):
        if not callable(getattr(prob, field.name)):
            assert repr(getattr(prob, field.name)) == repr(getattr(family_prob, field.name)), field.name


OTHER_MAPS = [
    # theta's anchors differ from the condition's, so theta(T(f)) is not f
    (linear_model(3.0, 2.0, 5.0, 7.0, alpha=0.3, beta=0.2, Pe=0.7, T_star=5.0, T_m=0.5),
     Dirichlet(T_star=2.0, T_m=1.0)),
    (linear_model(3.0, 2.0, 5.0, 7.0, alpha=0.3, beta=0.2, Pe=0.7, T_star=2.0, T_m=0.5),
     Robin(h=0.7, T_star=2.0, T_m=1.0)),
    (linear_model(3.0, 2.0, 5.0, 7.0, alpha=0.3, beta=0.2, Pe=0.7, T_star=3.0, T_m=1.0),
     Dirichlet(T_star=2.0, T_m=1.0)),
    # the Neumann map is T_m (1 + f) whatever the anchors
    (linear_model(3.0, 2.0, 5.0, 7.0, alpha=0.3, beta=0.2, Pe=0.7, T_star=2.0, T_m=1.0), Neumann(q=0.5, T_m=1.0)),
    (linear_model(1.0, 1.0, 1.0, 1.0, alpha=0.0, beta=0.4, Pe=0.0, T_star=2.0, T_m=1.3), Neumann(q=0.5, T_m=1.3)),
    (linear_model(1.0, 1.0, 1.0, 1.0, alpha=0.4, beta=0.0, Pe=0.5, T_star=2.0, T_m=1.3), Neumann(q=0.5, T_m=1.3)),
]
OTHER_MAP_IDS = ["dirichlet-both-anchors", "robin-T_m", "dirichlet-T_star", "neumann", "neumann-beta", "neumann-alpha"]


@pytest.mark.parametrize("model, bc", OTHER_MAPS, ids=OTHER_MAP_IDS)
def test_other_maps_reduce_within_8_ulp_of_the_composition(model, bc):
    f = np.linspace(0.0, 1.5, 193)
    for got, composed in zip(reduced_coefficients(build_dimensionless(model, bc), f), composed_coefficients(model, bc, f)):
        np.testing.assert_array_max_ulp(got, composed, maxulp=8)


@pytest.mark.parametrize("model, bc", OTHER_MAPS, ids=OTHER_MAP_IDS)
def test_other_maps_state_exact_bounds(model, bc):
    prob = build_dimensionless(model, bc)
    f = np.linspace(0.0, 1.0, 100_001)
    assert_bounds_hold(prob, f)
    # the bounds are the family's values at the ends of [0, 1], not those of theta's own range
    for name, fn in (("L", prob.L_star), ("N", prob.N_star), ("mu", prob.mu_star)):
        ends = fn(np.array([0.0, 1.0]))
        assert (getattr(prob, f"{name}_m"), getattr(prob, f"{name}_M")) == (ends.min(), ends.max()), name
        assert getattr(prob, f"{name}_tilde") == pytest.approx(abs(ends[1] - ends[0]), rel=1e-12, abs=1e-15), name
    assert prob.bounds_certified


def test_a_face_hotter_than_the_models_anchor_lowers_L_m_below_one():
    # theta(T) = T_star - T on the condition's [1, 3], so L* runs from 0.95 to 1.05
    model = linear_model(1.0, 1.0, 1.0, 1.0, alpha=0.0, beta=0.05, Pe=0.0, T_star=2.0, T_m=1.0)
    prob = build_dimensionless(model, Dirichlet(T_star=3.0, T_m=1.0))
    assert prob.L_m == float(prob.L_star(0.0)) == pytest.approx(0.95)
    assert prob.L_M == pytest.approx(1.05)
    assert_bounds_hold(prob, np.linspace(0.0, 1.0, 100_001))


def test_a_linear_family_that_turns_non_positive_on_the_neumann_range_is_rejected():
    # theta(T_m (1 + f)) falls to 1 - 1.3/0.7 at f = 1, where 1 + 2 theta < 0
    model = linear_model(1.0, 1.0, 1.0, 1.0, alpha=0.0, beta=2.0, Pe=0.0, T_star=2.0, T_m=1.3)
    with pytest.raises(ConfigError, match="L_m"):
        build_dimensionless(model, Neumann(q=0.5, T_m=1.3))


@pytest.mark.parametrize(
    "bc",
    [Dirichlet(T_star=2.0, T_m=1.0), Dirichlet(T_star=3.0, T_m=1.0), Neumann(q=0.5, T_m=1.0)],
    ids=["dirichlet", "dirichlet-other-anchors", "neumann"],
)
def test_a_linear_family_solve_never_calls_the_dimensional_coefficients(bc):
    calls = []

    def counting(name, fn):
        def wrapped(T):
            calls.append(name)
            return fn(T)
        return wrapped

    model = linear_model(1.0, 1.0, 1.0, 1.0, alpha=0.1, beta=0.1, Pe=0.5, T_star=2.0, T_m=1.0)
    # wrap the model's own callables in place, so it keeps the family linear_model recorded
    for name in ("k", "rho_c", "mu"):
        object.__setattr__(model, name, counting(name, getattr(model, name)))
    solve_lambda(build_dimensionless(model, bc))
    assert calls == []
    # the same wrappers count the calls of the composed reduction
    solve_lambda(build_dimensionless(composed_copy(model), bc))
    assert {"k", "rho_c", "mu"} <= set(calls)


def test_a_copy_with_other_coefficients_records_no_family_and_is_composed():
    bc = Dirichlet(T_star=2.0, T_m=1.0)
    model = linear_model(3.0, 2.0, 5.0, 7.0, alpha=0.3, beta=0.2, Pe=0.7, T_star=2.0, T_m=1.0)
    other = linear_model(3.0, 2.0, 5.0, 7.0, alpha=0.3, beta=1.5, Pe=0.7, T_star=2.0, T_m=1.0).k
    copy = replace(model, k=other)
    assert model.family is not None and copy.family is None
    with pytest.raises(TypeError):
        ThermalModel(model.k, model.rho_c, model.mu, 3.0, 2.0, 5.0, 7.0, family=model.family)
    prob = build_dimensionless(copy, bc)
    for got, composed in zip(reduced_coefficients(prob, F_DENSE), composed_coefficients(copy, bc, F_DENSE)):
        assert got.tobytes() == composed.tobytes()
    assert prob.L_star(1.0) == pytest.approx(2.5)
    # the copy's bounds are sampled from its own k, not kept from the family it was copied from
    assert prob.L_M == pytest.approx(2.5)
    assert_bounds_hold(prob, np.linspace(0.0, 1.0, 100_001))
    assert certify(prob).basis == "sampled"


@pytest.mark.parametrize(
    "alpha, beta, Pe, T_star, T_m", [(0.0, 0.0, 0.5, 1.0, 0.0), (0.3, 0.2, 0.7, 2.0, 1.0), (2.5, 0.1, 0.0, -1.0, -3.5)]
)
def test_coefficients_into_writes_the_model_coefficients_bit_for_bit(alpha, beta, Pe, T_star, T_m):
    # the family's one theta and one N per call, and a copy's three callables
    model = linear_model(3.0, 2.0, 5.0, 7.0, alpha, beta, Pe, T_star, T_m)
    T = np.linspace(T_m - 1.0, T_star + 1.0, 301)
    for m in (model, replace(model)):
        out = np.empty((3, T.size))
        assert m.coefficients_into(T, out) is out
        for row, fn in zip(out, (model.k, model.rho_c, model.mu)):
            assert row.tobytes() == eval_coefficient(fn, T).tobytes()

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


def test_sampled_bounds_of_a_constant_model():
    prob = build_dimensionless(composed_copy(constant_model(2.0, 1.0, 1.0, 1.0, Pe=0.3)), Dirichlet(T_star=2.0, T_m=1.0))
    assert prob.L_m == prob.L_M == 1.0
    assert prob.L_tilde == 0.0
    assert not prob.bounds_certified


def test_sampled_bounds_of_a_linear_conductivity():
    # k(T) = k0 (1 + 0.2 (T - T_star)/(T_m - T_star)) on [T_m, T_star]
    model = linear_model(1.0, 1.0, 1.0, 1.0, alpha=0.0, beta=0.2, Pe=0.0, T_star=2.0, T_m=1.0)
    prob = build_dimensionless(composed_copy(model), Dirichlet(T_star=2.0, T_m=1.0))
    assert prob.L_m == pytest.approx(1.0)
    assert prob.L_M == pytest.approx(1.2)
    assert prob.L_tilde == pytest.approx(0.2)


def brute_force_bounds(fn, f):
    vals = fn(f)
    return float(vals.min()), float(vals.max()), float(np.max(np.abs(np.diff(vals)))) / (f[1] - f[0])


def test_sampled_bounds_bracket_a_table_spike():
    # brute-force oracle over the same 257 samples of f
    T = np.linspace(1.0, 2.0, 9)
    k = np.full(9, 2.0)
    k[4] = 3.5  # interior spike
    bc = Dirichlet(T_star=2.0, T_m=1.0)
    prob = build_dimensionless(table_model(T, k, np.full(9, 1.0), np.zeros(9), 2.0, 1.0, 1.0, 1.0), bc)
    expected = brute_force_bounds(lambda f: np.interp(temperature_of_f(bc, f), T, k) / 2.0, F_DENSE)
    assert (prob.L_m, prob.L_M, prob.L_tilde) == expected
    assert prob.L_M == 1.75


def test_sampled_bounds_reject_a_nonpositive_coefficient():
    model = ThermalModel(
        k=lambda x: np.asarray(x) - 1.5,  # negative below 1.5
        rho_c=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        mu=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        k0=1.0,
        rho0=1.0,
        c0=1.0,
        ell=1.0,
    )
    with pytest.raises(ConfigError, match=r"coefficient k returned a non-positive value on \[1.0, 2.0\]"):
        build_dimensionless(model, Dirichlet(T_star=2.0, T_m=1.0))


BENCH_TABLE = np.array(
    [(T, 1.0 + 0.08 * math.sin(5.0 * T), 1.0 + 0.05 * math.cos(3.0 * T), 0.3 + 0.1 * (T - 1.0))
     for T in 0.5 + 0.1 * np.arange(26)]
)


@pytest.mark.parametrize(
    "bc",
    [
        Dirichlet(T_star=2.0, T_m=1.3),
        Neumann(q=0.5, T_m=1.3),
        Robin(h=0.7, T_star=2.0, T_m=1.3),
        Radiative(h=0.05, sigma=0.05, epsilon=0.05, T_star=2.0, T_m=1.3),
    ],
    ids=["dirichlet", "neumann", "robin", "radiative"],
)
def test_a_table_models_nine_constants_are_a_scan_of_its_coefficients(bc):
    prob = build_dimensionless(table_model(*BENCH_TABLE.T, 2.3, 0.7, 1.9, 1.0), bc)
    for name, fn in (("L", prob.L_star), ("N", prob.N_star), ("mu", prob.mu_star)):
        stated = tuple(getattr(prob, f"{name}_{suffix}") for suffix in ("m", "M", "tilde"))
        assert stated == brute_force_bounds(fn, F_DENSE), name
    assert not prob.bounds_certified


def test_a_neumann_range_whose_upper_end_overflows_is_rejected():
    # the samples of f in [0, 1] would span T in [T_m, 2 T_m] = [1e308, inf]
    with pytest.raises(ConfigError, match="non-degenerate"):
        build_dimensionless(table_model(*BENCH_TABLE.T, 1.0, 1.0, 1.0, 1.0), Neumann(q=0.5, T_m=1e308))


def test_model_without_bounds_gets_sampled_bounds():
    T = np.linspace(1.0, 2.0, 5)
    model = table_model(T, np.full(5, 2.0), np.full(5, 1.0), np.zeros(5), 2.0, 1.0, 1.0, 1.0)
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
