"""Every per-condition formula, pinned to the bit.

Each boundary condition brings its own operator image, front value,
sandwich curves, contraction bound, certificate flags, flux target,
default start, reduction and PDE face update.  These tests read each of
them through the public entry points on one linear-family problem per
condition, plus radiative problems whose iterates are clamped, whose
images escape [0, 1] and whose mu_M is 0, and compare the results with
``float.hex`` pins, so a refactor of where the formulas live cannot move
any of them.

Run ``python tests/test_condition_formulas.py`` to print the pins of the
code at hand.
"""

from __future__ import annotations

import pprint

import numpy as np
import pytest

from meltfront import (
    BCKind,
    Dirichlet,
    FrontFixedScheme,
    Neumann,
    ProfileGrid,
    Radiative,
    Robin,
    SolverSettings,
    apply_operator,
    build_dimensionless,
    certify,
    constant_model,
    default_start,
    front_flux_residual,
    lambda_bar,
    linear_model,
    linear_problem,
    physical_solution,
    solve_lambda,
    solve_profile,
    v_value,
    verify,
)
from meltfront.coefficients import temperature_of_f
from meltfront.errors import MeltfrontError
from meltfront.fixed_point import contraction_bound_or_inf
from meltfront.lambda_solver import v1_curve, v2_curve

SETTINGS = SolverSettings(n=64)
LAM = 0.6
# a fixed profile inside [0.1, 0.9] on 65 nodes over [0, LAM]
PROFILE_VALUES = 0.5 + 0.4 * np.cos(np.linspace(0.0, 3.0, 65))

PROBLEMS = {
    "dirichlet": lambda: linear_problem(BCKind.DIRICHLET, 0.1, 0.1, 0.5, Ste=1.0),
    "neumann": lambda: linear_problem(BCKind.NEUMANN, 0.1, 0.1, 0.5, q_star=0.8, M=2.0, T_m=1.0),
    "robin": lambda: linear_problem(BCKind.ROBIN, 0.1, 0.1, 0.5, Ste=1.0, Bi=0.7),
    "radiative": lambda: linear_problem(
        BCKind.RADIATIVE, 0.05, 0.05, 0.3, Ste=0.5, Bi=0.05, r=0.005, T_star=2.0, T_m=1.0
    ),
    # the self-map hypothesis fails, so iterates are clamped to [0, 1]
    "radiative-clamped": lambda: linear_problem(
        BCKind.RADIATIVE, 0.05, 0.05, 1.0, Ste=0.5, Bi=0.0, r=0.0112, T_star=2.0, T_m=1.0
    ),
    # every radiative hypothesis fails, and the raw images leave [0, 1]
    "radiative-escaping": lambda: linear_problem(
        BCKind.RADIATIVE, 0.05, 0.05, 0.5, Ste=1.0, Bi=3.0, r=0.01, T_star=2.0, T_m=1.0
    ),
    "radiative-no-convection": lambda: linear_problem(
        BCKind.RADIATIVE, 0.05, 0.05, 0.0, Ste=0.5, Bi=0.05, r=0.005, T_star=2.0, T_m=1.0
    ),
}

BCS = {
    "dirichlet": Dirichlet(T_star=2.0, T_m=1.0),
    "neumann": Neumann(q=0.5, T_m=1.0),
    "robin": Robin(h=0.7, T_star=2.0, T_m=1.0),
    "radiative": Radiative(h=0.05, sigma=0.05, epsilon=0.05, T_star=2.0, T_m=1.0),
}

PARAMS = ("Ste", "q_star", "M", "Bi", "r", "T_star", "T_m", "D5",
          "L_m", "L_M", "L_tilde", "N_m", "N_M", "N_tilde", "mu_m", "mu_M", "mu_tilde")


def _pin(value):
    """Floats (numpy ones included) as float.hex, containers element by element."""
    if isinstance(value, dict):
        return {k: _pin(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pin(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value


def _model(kind: str):
    if kind == "neumann":
        return constant_model(1.0, 1.0, 1.0, 1.0, Pe=0.5)
    return linear_model(1.0, 1.0, 1.0, 1.0, alpha=0.1, beta=0.1, Pe=0.5, T_star=2.0, T_m=1.0)


def problem_formulas(case: str) -> dict:
    prob = PROBLEMS[case]()
    profile = ProfileGrid(LAM, PROFILE_VALUES)
    image = apply_operator(prob, profile).f
    try:
        value = v_value(prob, LAM, SETTINGS)[0]
    except MeltfrontError as exc:
        value = str(exc)
    inner = solve_profile(prob, LAM, max_iter=40, n=64)
    start = default_start(prob, LAM, 16).f
    cert = certify(prob, SETTINGS)
    return _pin({
        "image": [image.min(), image.max(), image.sum(), image[32]],
        "v_value": value,
        "solve_profile": [inner.iterations, inner.residual, inner.clamped, inner.escaped_unit_interval,
                          inner.profile.f.sum(), inner.image.sum()],
        "v1": [v1_curve(prob, 0.0), v1_curve(prob, LAM)],
        "v2": v2_curve(prob, LAM),
        "v2_array": v2_curve(prob, np.array([0.0, 0.3, 1.0])).tolist(),
        "contraction": [contraction_bound_or_inf(prob, z) for z in (0.0, 0.3, 1.0)],
        "lambda_bar": list(lambda_bar(prob)),
        "certify": [cert.hypothesis_flags, cert.certified, cert.epsilon_at_lambda2,
                    cert.bracket.lambda1, cert.bracket.lambda2, cert.bracket.provenance],
        "front_flux_residual": front_flux_residual(prob, profile),
        "default_start": [start.sum(), start[1], start[-1]],
    })


def reduction(kind: str) -> dict:
    bc = BCS[kind]
    prob = build_dimensionless(_model(kind), bc)
    return _pin({
        "kind": prob.bc_kind.value,
        "params": {name: getattr(prob, name) for name in PARAMS},
        "temperature": temperature_of_f(bc, np.array([0.0, 0.3, 1.0])).tolist(),
    })


def pde_discrepancy(kind: str) -> dict:
    bc, model = BCS[kind], _model(kind)
    report = solve_lambda(build_dimensionless(model, bc), SolverSettings(n=128))
    disc = verify(physical_solution(report, model, bc), model, bc, FrontFixedScheme(nodes=40, t0=1.0, t1=2.0))
    return _pin([report.lambda_tilde, disc.s_rel_max, disc.s_rel_final, disc.T_rel_max, disc.steps, disc.t_final])


PINS = {'dirichlet': {'image': ['0x0.0p+0', '0x1.0000000000000p+0', '0x1.ec8115530a68ap+4', '0x1.d5eb0ff958c67p-2'],
               'v_value': '0x1.da6d37b4ff7ddp-1',
               'solve_profile': [5,
                                 '0x1.bfa9000000000p-37',
                                 False,
                                 False,
                                 '0x1.fc0d67553adc5p+4',
                                 '0x1.fc0d675551a9fp+4'],
               'v1': ['0x1.199999999999ap-1', '0x1.07b12ae309be9p-3'],
               'v2': '0x1.72f6ce38c77b1p+0',
               'v2_array': ['inf', '0x1.36ba2388eeecfp+1', '0x1.d3f168e12eb78p-1'],
               'contraction': ['0x1.c28f5c28f5c2ap-3', '0x1.d4f1d3cf212cfp-1', '0x1.b099eee224ccap+4'],
               'lambda_bar': ['0x1.4a1ae4d4c7b9ap-2', None],
               'certify': [{'extra_contraction': 'holds',
                            'contraction_at_lambda2': 'fails',
                            'analytic_bracket': 'holds',
                            'mu_lower_positive': 'holds'},
                           False,
                           '0x1.5025814324f1ap+4',
                           '0x1.41369b510e291p-2',
                           '0x1.eae9cfde25ff9p-1',
                           'analytic'],
               'front_flux_residual': '0x1.3ce496ec3a47cp+0',
               'default_start': ['0x1.1000000000000p+3', '0x1.0000000000000p-4', '0x1.0000000000000p+0']},
 'neumann': {'image': ['0x0.0p+0', '0x1.19261a22d34b4p-1', '0x1.2ca3e62a06e97p+4', '0x1.3041b9923782ep-2'],
             'v_value': '0x1.045a11448efefp-1',
             'solve_profile': [6,
                               '0x1.9d28000000000p-39',
                               False,
                               False,
                               '0x1.3139492520058p+4',
                               '0x1.3139492522036p+4'],
             'v1': ['0x1.745d1745d1746p-2', '0x1.f534d9547af29p-3'],
             'v2': '0x1.1da5f3d864033p-1',
             'v2_array': ['0x1.999999999999ap-2', '0x1.067d9f8594c85p-1', '0x1.efc255b8d0972p-2'],
             'contraction': ['0x0.0p+0', '0x1.72af59b87b84cp-3', '0x1.a2e912a3c1c38p+2'],
             'lambda_bar': ['0x1.3a51707e1e1f7p-1', None],
             'certify': [{'contraction_at_lambda2': 'holds',
                          'analytic_bracket': 'holds',
                          'mu_lower_positive': 'holds'},
                         True,
                         '0x1.826fb7bd95a10p-1',
                         '0x1.4bc25392d054fp-2',
                         '0x1.1d0cf0f595637p-1',
                         'analytic'],
             'front_flux_residual': '0x1.8777bc3e8eb98p-1',
             'default_start': ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0']},
 'radiative': {'image': ['0x1.cc3ff87ac32d4p-1',
                         '0x1.0000000000000p+0',
                         '0x1.ed8686149ce0cp+5',
                         '0x1.e5d11f4463507p-1'],
               'v_value': '0x1.4d6a0bdf585a9p-5',
               'solve_profile': [9,
                                 '0x1.b4e1000000000p-34',
                                 False,
                                 False,
                                 '0x1.ee445f443178ap+5',
                                 '0x1.ee445f43c17cep+5'],
               'v1': ['0x0.0p+0', '0x0.0p+0'],
               'v2': '0x1.7dd34ce48c3bcp-5',
               'v2_array': ['0x1.70a3d70a3d70ap-5', '0x1.98c04450189ccp-5', '0x1.0b0d0d8938967p-5'],
               'contraction': ['0x1.a69a69a69a69bp-1', '0x1.025283b4daadfp+0', '0x1.e67d8c8e5051ep+0'],
               'lambda_bar': ['0x1.25d2fa6307042p-2', None],
               'certify': [{'radiative_self_map': 'holds',
                            'radiative_self_map_dimensional': 'holds',
                            'radiative_lipschitz': 'holds',
                            'contraction_at_lambda2': 'holds',
                            'analytic_bracket': 'holds',
                            'mu_lower_positive': 'holds'},
                           True,
                           '0x1.b3948cc969b8ap-1',
                           '0x0.0p+0',
                           '0x1.7ac391fedf1e2p-5',
                           'analytic'],
               'front_flux_residual': '0x1.1e4a2e333cbacp+0',
               'default_start': ['0x1.1000000000000p+3', '0x1.0000000000000p-4', '0x1.0000000000000p+0']},
 'radiative-clamped': {'image': ['0x1.aea40bf73dcdcp-1',
                                 '0x1.0000000000000p+0',
                                 '0x1.d8e3fa360acaep+5',
                                 '0x1.ce8edd23a6217p-1'],
                       'v_value': '0x1.7a3ef42e99fe3p-4',
                       'solve_profile': [9,
                                         '0x1.e2c1000000000p-36',
                                         False,
                                         False,
                                         '0x1.db3ab6f880a36p+5',
                                         '0x1.db3ab6f85d60fp+5'],
                       'v1': ['0x0.0p+0', '0x0.0p+0'],
                       'v2': '0x1.cb24a0f1069b5p-4',
                       'v2_array': ['0x1.6f0068db8bac7p-5', '0x1.3c3db57f93ebcp-4', '0x1.21138cb309ce8p-3'],
                       'contraction': ['0x1.5d867c3ece2a5p-2',
                                       '0x1.6cbd63e135afdp-1',
                                       '0x1.605ad870397bep+2'],
                       'lambda_bar': ['0x1.b696aaa8cdc3ap-2', None],
                       'certify': [{'radiative_self_map': 'fails',
                                    'radiative_self_map_dimensional': 'holds',
                                    'radiative_lipschitz': 'holds',
                                    'contraction_at_lambda2': 'holds',
                                    'analytic_bracket': 'holds',
                                    'mu_lower_positive': 'holds'},
                                   False,
                                   '0x1.866d84ab908a4p-2',
                                   '0x0.0p+0',
                                   '0x1.9656b367472a1p-5',
                                   'analytic'],
                       'front_flux_residual': '0x1.1e4a2e333cbacp+0',
                       'default_start': ['0x1.1000000000000p+3',
                                         '0x1.0000000000000p-4',
                                         '0x1.0000000000000p+0']},
 'radiative-escaping': {'image': ['-0x1.72dad8b3fcf0cp+1',
                                  '0x1.0000000000000p+0',
                                  '-0x1.0ddcf4755f046p+6',
                                  '-0x1.163a01690a3a0p+0'],
                        'v_value': 'inner iteration did not reach tol=1e-10 within 200 iterations at '
                                   'lambda=0.6 (residual 1)',
                        'solve_profile': [40,
                                          '0x1.0000000000000p+0',
                                          True,
                                          True,
                                          '0x1.e818daa9f70bap+2',
                                          '0x1.0400000000000p+6'],
                        'v1': ['0x0.0p+0', '0x0.0p+0'],
                        'v2': '0x1.06af5b28602a1p+2',
                        'v2_array': ['0x1.8a3d70a3d70a4p+1', '0x1.efd60f6a040b2p+1', '0x1.b2aa9b221c539p+1'],
                        'contraction': ['0x1.8138138138138p+3',
                                        '0x1.128277a94bb35p+4',
                                        '0x1.c648a384af27cp+5'],
                        'lambda_bar': [None, 'contraction bound is 12.0381 >= 1 already at z = 0'],
                        'certify': [{'radiative_self_map': 'fails',
                                     'radiative_self_map_dimensional': 'fails',
                                     'radiative_lipschitz': 'fails',
                                     'contraction_at_lambda2': 'fails',
                                     'analytic_bracket': 'holds',
                                     'mu_lower_positive': 'holds'},
                                    False,
                                    '0x1.f209d65bf39c2p+8',
                                    '0x0.0p+0',
                                    '0x1.8f69b37e532bap+0',
                                    'analytic'],
                        'front_flux_residual': '0x1.3c945c6679758p+0',
                        'default_start': ['0x1.1000000000000p+3',
                                          '0x1.0000000000000p-4',
                                          '0x1.0000000000000p+0']},
 'radiative-no-convection': {'image': ['0x1.d49ae9ef73fa1p-1',
                                       '0x1.0000000000000p+0',
                                       '0x1.f311bba3e3f81p+5',
                                       '0x1.ebf710f666603p-1'],
                             'v_value': '0x1.d69ced35e9863p-6',
                             'solve_profile': [9,
                                               '0x1.5160000000000p-36',
                                               False,
                                               False,
                                               '0x1.f367e6e18fff8p+5',
                                               '0x1.f367e6e17b9acp+5'],
                             'v1': ['0x0.0p+0', '0x0.0p+0'],
                             'v2': '0x1.05a36e7b1ca6ep-5',
                             'v2_array': ['0x1.70a3d70a3d70ap-5',
                                          '0x1.525bcd0b41e27p-5',
                                          '0x1.1c75555166c77p-6'],
                             'contraction': ['inf', 'inf', 'inf'],
                             'lambda_bar': [None, 'contraction bound undefined (mu_M = 0)'],
                             'certify': [{'radiative_self_map': 'holds',
                                          'radiative_self_map_dimensional': 'holds',
                                          'radiative_lipschitz': 'fails',
                                          'contraction_at_lambda2': 'fails',
                                          'analytic_bracket': 'holds',
                                          'mu_lower_positive': 'not-applicable'},
                                         False,
                                         None,
                                         '0x0.0p+0',
                                         '0x1.6feeb58d806d6p-5',
                                         'analytic'],
                             'front_flux_residual': '0x1.1e4a2e333cbacp+0',
                             'default_start': ['0x1.1000000000000p+3',
                                               '0x1.0000000000000p-4',
                                               '0x1.0000000000000p+0']},
 'robin': {'image': ['0x1.0518cd28c7752p-1',
                     '0x1.0000000000000p+0',
                     '0x1.81d9e6a490efcp+5',
                     '0x1.783cc9aac0764p-1'],
           'v_value': '0x1.d65bd8a25e8ccp-2',
           'solve_profile': [5,
                             '0x1.919a000000000p-36',
                             False,
                             False,
                             '0x1.864aaa6d14c30p+5',
                             '0x1.864aaa6d2f12ep+5'],
           'v1': ['0x0.0p+0', '0x0.0p+0'],
           'v2': '0x1.72f6ce38c77b1p+0',
           'v2_array': ['inf', '0x1.36ba2388eeecfp+1', '0x1.d3f168e12eb78p-1'],
           'contraction': ['0x1.c28f5c28f5c2ap-3', '0x1.d4f1d3cf212cfp-1', '0x1.b099eee224ccap+4'],
           'lambda_bar': ['0x1.4a1ae4d4c7b9ap-2', None],
           'certify': [{'extra_contraction': 'holds',
                        'contraction_at_lambda2': 'fails',
                        'analytic_bracket': 'holds',
                        'mu_lower_positive': 'holds'},
                       False,
                       '0x1.5025814324f1ap+4',
                       '0x0.0p+0',
                       '0x1.eae9cfde25ff9p-1',
                       'analytic'],
           'front_flux_residual': '0x1.3ce496ec3a47cp+0',
           'default_start': ['0x1.1000000000000p+3', '0x1.0000000000000p-4', '0x1.0000000000000p+0']}}

REDUCTION_PINS = {'dirichlet': {'kind': 'dirichlet',
               'params': {'Ste': '0x1.0000000000000p+0',
                          'q_star': None,
                          'M': None,
                          'Bi': None,
                          'r': None,
                          'T_star': '0x1.0000000000000p+1',
                          'T_m': '0x1.0000000000000p+0',
                          'D5': None,
                          'L_m': '0x1.0000000000000p+0',
                          'L_M': '0x1.199999999999ap+0',
                          'L_tilde': '0x1.999999999999ap-4',
                          'N_m': '0x1.0000000000000p+0',
                          'N_M': '0x1.199999999999ap+0',
                          'N_tilde': '0x1.999999999999ap-4',
                          'mu_m': '0x1.0000000000000p-1',
                          'mu_M': '0x1.199999999999ap-1',
                          'mu_tilde': '0x1.999999999999ap-5'},
               'temperature': ['0x1.0000000000000p+1', '0x1.b333333333333p+0', '0x1.0000000000000p+0']},
 'neumann': {'kind': 'neumann',
             'params': {'Ste': None,
                        'q_star': '0x1.0000000000000p+0',
                        'M': '0x1.0000000000000p+1',
                        'Bi': None,
                        'r': None,
                        'T_star': None,
                        'T_m': '0x1.0000000000000p+0',
                        'D5': None,
                        'L_m': '0x1.0000000000000p+0',
                        'L_M': '0x1.0000000000000p+0',
                        'L_tilde': '0x0.0p+0',
                        'N_m': '0x1.0000000000000p+0',
                        'N_M': '0x1.0000000000000p+0',
                        'N_tilde': '0x0.0p+0',
                        'mu_m': '0x1.0000000000000p-1',
                        'mu_M': '0x1.0000000000000p-1',
                        'mu_tilde': '0x0.0p+0'},
             'temperature': ['0x1.0000000000000p+0', '0x1.4cccccccccccdp+0', '0x1.0000000000000p+1']},
 'radiative': {'kind': 'radiative',
               'params': {'Ste': '0x1.0000000000000p+0',
                          'q_star': None,
                          'M': None,
                          'Bi': '0x1.999999999999ap-5',
                          'r': '0x1.47ae147ae147cp-8',
                          'T_star': '0x1.0000000000000p+1',
                          'T_m': '0x1.0000000000000p+0',
                          'D5': '0x1.0000000000000p+5',
                          'L_m': '0x1.0000000000000p+0',
                          'L_M': '0x1.199999999999ap+0',
                          'L_tilde': '0x1.999999999999ap-4',
                          'N_m': '0x1.0000000000000p+0',
                          'N_M': '0x1.199999999999ap+0',
                          'N_tilde': '0x1.999999999999ap-4',
                          'mu_m': '0x1.0000000000000p-1',
                          'mu_M': '0x1.199999999999ap-1',
                          'mu_tilde': '0x1.999999999999ap-5'},
               'temperature': ['0x1.0000000000000p+1', '0x1.b333333333333p+0', '0x1.0000000000000p+0']},
 'robin': {'kind': 'robin',
           'params': {'Ste': '0x1.0000000000000p+0',
                      'q_star': None,
                      'M': None,
                      'Bi': '0x1.6666666666666p-1',
                      'r': None,
                      'T_star': '0x1.0000000000000p+1',
                      'T_m': '0x1.0000000000000p+0',
                      'D5': None,
                      'L_m': '0x1.0000000000000p+0',
                      'L_M': '0x1.199999999999ap+0',
                      'L_tilde': '0x1.999999999999ap-4',
                      'N_m': '0x1.0000000000000p+0',
                      'N_M': '0x1.199999999999ap+0',
                      'N_tilde': '0x1.999999999999ap-4',
                      'mu_m': '0x1.0000000000000p-1',
                      'mu_M': '0x1.199999999999ap-1',
                      'mu_tilde': '0x1.999999999999ap-5'},
           'temperature': ['0x1.0000000000000p+1', '0x1.b333333333333p+0', '0x1.0000000000000p+0']}}

PDE_PINS = {'neumann': ['0x1.431c74bf409d5p-1',
             '0x1.09ee662d3d5e2p-9',
             '0x1.09c263db76a02p-9',
             '0x1.115db50643dd4p-9',
             29,
             '0x1.0000000000000p+1'],
 'radiative': ['0x1.822d7641910dep-4',
               '0x1.63c5ce2a1aeb3p-10',
               '0x1.631d50a4fcdd8p-10',
               '0x1.6ad45c619b47dp-10',
               29,
               '0x1.0000000000000p+1'],
 'robin': ['0x1.02c9e6af5a800p-1',
           '0x1.c561f43465288p-10',
           '0x1.c4e7ad715eb09p-10',
           '0x1.d86eb4717756fp-10',
           29,
           '0x1.0000000000000p+1']}


@pytest.mark.parametrize("case", sorted(PROBLEMS))
def test_each_condition_formula_is_pinned_bitwise(case):
    assert problem_formulas(case) == PINS[case]


@pytest.mark.parametrize("kind", sorted(BCS))
def test_each_reduction_and_temperature_map_is_pinned_bitwise(kind):
    assert reduction(kind) == REDUCTION_PINS[kind]


@pytest.mark.parametrize("kind", ["neumann", "robin", "radiative"])
def test_each_pde_face_update_is_pinned_bitwise(kind):
    assert pde_discrepancy(kind) == PDE_PINS[kind]


if __name__ == "__main__":
    pprint.pprint({case: problem_formulas(case) for case in sorted(PROBLEMS)}, width=120, sort_dicts=False)
    pprint.pprint({kind: reduction(kind) for kind in sorted(BCS)}, width=120, sort_dicts=False)
    pprint.pprint({kind: pde_discrepancy(kind) for kind in ("neumann", "robin", "radiative")}, width=120)
