import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from meltfront import (
    ConfigError,
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
    pde_verifier,
    physical_solution,
    solve_lambda,
    verify,
)
from meltfront import coefficients
from meltfront.cli import build_problem
from meltfront.coefficients import eval_coefficient

from conftest import bench_workloads


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
    with pytest.raises(ConvergenceError) as err:
        verify(sol, broken, bc, FrontFixedScheme(nodes=40, t0=1.0, t1=1.2))
    assert str(err.value) == (
        "front-fixed scheme unstable at step 0 (t=1): field range [1, 2] vs initial [1, 2], s=0.929572"
    )


def test_singular_step_reports_the_state_it_stopped_in(dirichlet_case, monkeypatch):
    model, bc, sol = dirichlet_case
    solve = pde_verifier.dgtsv
    calls = []

    def singular_third(*args, **kwargs):
        calls.append(None)
        dl, d, du, x, info = solve(*args, **kwargs)
        return dl, d, du, x, 1 if len(calls) == 3 else info

    monkeypatch.setattr(pde_verifier, "dgtsv", singular_third)
    with pytest.raises(ConvergenceError) as err:
        verify(sol, model, bc, FrontFixedScheme(nodes=40, t0=1.0, t1=1.2))
    assert str(err.value) == (
        "front-fixed scheme unstable at step 2 (t=1.05062): field range [1, 2] vs initial [1, 2], s=0.953076"
    )


@pytest.mark.parametrize("t0, t1", [(1.0, math.inf), (math.inf, math.inf)])
def test_infinite_horizon_is_a_config_error(t0, t1):
    # t < t1 - 1e-15 t1 reads t < nan there, so the march would take no step and report no drift
    with pytest.raises(ConfigError, match="finite t1"):
        FrontFixedScheme(nodes=40, t0=t0, t1=t1)


# (bench solve config, nodes, t0, t1, block values): every boundary condition
# on every coefficient family, then the benchmark's verify config marched
# through 5 blocks of 3 rows, through blocks of one row, over 5,865 steps and
# over an empty interval, then the benchmark's own verify-pde march and a
# linear-family march through 4 blocks of 40 rows at the default block size
MARCHES = [
    ("dirichlet-constant", 8, 1.0, 1.2, None),
    ("dirichlet-linear", 16, 1.0, 1.1, None),
    ("dirichlet-table", 64, 1.0, 1.05, None),
    ("neumann-constant", 32, 1.0, 1.2, None),
    ("neumann-table", 8, 1.0, 1.1, None),
    ("robin-constant", 16, 1.0, 1.2, None),
    ("robin-linear", 64, 1.0, 1.02, None),
    ("robin-table", 32, 1.0, 1.1, None),
    ("radiative-constant", 64, 1.0, 1.1, None),
    ("radiative-linear", 8, 1.0, 1.2, None),
    ("radiative-table", 16, 1.0, 1.15, None),
    ("verify", 32, 1.0, 1.5, 100),
    ("verify", 16, 1.0, 1.2, 1),
    ("verify", 8, 1.0, 1e300, None),
    ("verify", 40, 1.3, 1.3, None),
    ("verify", 200, 1.0, 2.0, None),
    ("robin-linear", 200, 1.0, 2.0, None),
]
# (s_rel_max, s_rel_final, T_rel_max, steps, t_final) per march, the floats
# as float.hex, recorded with the drift compared after every step: no block
# size may move a bit
PINNED_MARCHES = [
    ('0x1.cc0b3eee5f1b0p-9', '0x1.cc0b3eee5f1b0p-9', '0x1.7c67757c77400p-9', 2, '0x1.3333333333333p+0'),
    ('0x1.2daaea61a812dp-10', '0x1.2daaea61a812dp-10', '0x1.f32999b837000p-11', 2, '0x1.199999999999ap+0'),
    ('0x1.277f08c19cf3dp-13', '0x1.277f08c19cf3dp-13', '0x1.20899ef8de000p-13', 4, '0x1.0cccccccccccdp+0'),
    ('0x1.b2e54595e0ad1p-11', '0x1.b2e54595e0ad1p-11', '0x1.b6752fffbebc2p-11', 6, '0x1.3333333333333p+0'),
    ('0x1.668f389574c4fp-10', '0x1.668f389574c4fp-10', '0x1.51b1b481f2e52p-10', 1, '0x1.199999999999ap+0'),
    ('0x1.4a042c93a2450p-10', '0x1.49db3fc65d9e0p-10', '0x1.526586d00bccdp-10', 4, '0x1.3333333333333p+0'),
    ('0x1.2b2da58d126b6p-15', '0x1.2b2da58d126b6p-15', '0x1.360b4129c371dp-15', 2, '0x1.051eb851eb852p+0'),
    ('0x1.7b8e07ed10319p-12', '0x1.7b8e07ed10319p-12', '0x1.8c0e3b08b8a48p-12', 4, '0x1.199999999999ap+0'),
    ('0x1.342c5731c6ccap-13', '0x1.336f75c105883p-13', '0x1.3c0d756dd3cf4p-13', 7, '0x1.199999999999ap+0'),
    ('0x1.c62a83f5a2824p-10', '0x1.c62a83f5a2824p-10', '0x1.a00c5b14c62e8p-10', 2, '0x1.3333333333333p+0'),
    ('0x1.ae94218375334p-11', '0x1.ae94218375334p-11', '0x1.9f442e94d212dp-11', 3, '0x1.2666666666666p+0'),
    ('0x1.2ceee4e4ac71dp-9', '0x1.2ceee4e4ac71dp-9', '0x1.f8684fb410800p-10', 14, '0x1.8000000000000p+0'),
    ('0x1.36a27fc9b1962p-9', '0x1.36a27fc9b1962p-9', '0x1.ef96938d3b000p-10', 4, '0x1.3333333333333p+0'),
    ('0x1.b76420cae841ep-6', '0x1.b2f70708cedbap-6', '0x1.5697bf91b9580p-6', 5865, '0x1.7e43c8800759cp+996'),
    ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', 0, '0x1.4cccccccccccdp+0'),
    ('0x1.2040723362ae0p-11', '0x1.2040723362ae0p-11', '0x1.f00d184183000p-12', 139, '0x1.0000000000000p+1'),
    ('0x1.6eb7dd5bdf6a3p-12', '0x1.6eb7dd5bdf6a3p-12', '0x1.83d51e26e3870p-12', 139, '0x1.0000000000000p+1'),
]


@pytest.fixture(scope="module")
def bench_solutions(tmp_path_factory):
    workloads = bench_workloads()
    table = workloads.write_table(tmp_path_factory.mktemp("table") / workloads.TABLE_NAME)
    configs = {name: workloads.solve_config(name, table) for name in workloads.solve_names()}
    configs["verify"] = workloads.VERIFY_CONFIG
    solutions = {}
    for name, cfg in configs.items():
        problem = build_problem(cfg)
        report = solve_lambda(problem.prob, problem.settings)
        solutions[name] = problem.model, problem.bc, physical_solution(report, problem.model, problem.bc)
    return solutions


def march(solution, nodes, t0, t1):
    model, bc, sol = solution
    d = verify(sol, model, bc, FrontFixedScheme(nodes=nodes, t0=t0, t1=t1))
    return d.s_rel_max.hex(), d.s_rel_final.hex(), d.T_rel_max.hex(), d.steps, d.t_final.hex()


@pytest.mark.parametrize("case, pinned", zip(MARCHES, PINNED_MARCHES), ids=[f"{c[0]}-{c[1]}-{c[3]:g}" for c in MARCHES])
def test_march_discrepancy_is_pinned_bit_for_bit(bench_solutions, monkeypatch, case, pinned):
    name, nodes, t0, t1, block_values = case
    if block_values is not None:
        monkeypatch.setattr(pde_verifier, "_BLOCK_VALUES", block_values)
    assert march(bench_solutions[name], nodes, t0, t1) == pinned


@pytest.mark.parametrize("t1", [1.0, 1.2])
def test_discrepancy_fields_are_plain_floats(dirichlet_case, t1):
    model, bc, sol = dirichlet_case
    d = verify(sol, model, bc, FrontFixedScheme(nodes=40, t0=1.0, t1=t1))
    assert [type(d.s_rel_max), type(d.s_rel_final), type(d.T_rel_max), type(d.steps), type(d.t_final)] == [
        float, float, float, int, float
    ]


def _scalar_only(fn):
    def scalar(T):
        if np.ndim(T):
            raise TypeError("scalar temperatures only")
        return fn(T)

    return scalar


def test_scalar_only_coefficients_march_like_vectorised_ones(bench_solutions):
    # the eval_coefficient fallback, one value at a time, with the same arithmetic per value
    model, bc, sol = bench_solutions["robin-table"]
    vectorised = ThermalModel(
        lambda T: 1.0 + 0.1 * (T - 1.0) * (T - 1.0),
        lambda T: 1.0 + 0.05 * T,
        lambda T: 0.2 + 0.0 * T,
        model.k0, model.rho0, model.c0, model.ell,
    )
    scalar = ThermalModel(
        *map(_scalar_only, (vectorised.k, vectorised.rho_c, vectorised.mu)),
        vectorised.k0, vectorised.rho0, vectorised.c0, vectorised.ell,
    )
    scheme = FrontFixedScheme(nodes=32, t0=1.0, t1=1.3)
    got = [verify(sol, m, bc, scheme) for m in (vectorised, scalar)]
    assert got[0].steps > 0
    assert [float(v).hex() for v in astuple(got[1])] == [float(v).hex() for v in astuple(got[0])]


def test_a_family_model_marches_without_per_step_coefficient_calls(dirichlet_case, monkeypatch):
    model, bc, sol = dirichlet_case
    calls = []

    def counted(fn, x):
        calls.append(fn)
        return eval_coefficient(fn, x)

    monkeypatch.setattr(coefficients, "eval_coefficient", counted)
    monkeypatch.setattr(pde_verifier, "eval_coefficient", counted)
    scheme = FrontFixedScheme(nodes=40, t0=1.0, t1=1.2)
    d = verify(sol, model, bc, scheme)
    assert model.family is not None and d.steps == 8
    assert calls == [model.k]  # k at the front, once
    # a copy without the family evaluates k, rho_c and mu each step, to the same march
    calls.clear()
    assert verify(sol, replace(model), bc, scheme) == d
    assert len(calls) == 1 + 3 * d.steps
