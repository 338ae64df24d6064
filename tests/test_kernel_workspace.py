"""The lean kernel pass: what a KernelEval keeps, the per-thread workspace and the linear family's one N*.

A KernelEval keeps Phi and E(lambda); its E, L, N, mu, log_U and log_I run
the pass again on read.  These tests hold every read-back to the arrays the
pass used to store, written out here, and bound what a Picard step
allocates (numpy reports its buffers to tracemalloc).
"""

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from meltfront import (
    BCKind,
    ConfigError,
    Dirichlet,
    Neumann,
    ProfileGrid,
    ThermalModel,
    build_dimensionless,
    constant_problem,
    eval_kernels,
    linear_model,
    linear_problem,
    table_model,
)
from meltfront import coefficients, fixed_point
from meltfront.coefficients import eval_coefficient

T_TABLE = np.linspace(1.0, 4.0, 13)


def _scalar_only_model():
    # float() takes one value only, so these callables reject arrays
    return ThermalModel(
        k=lambda T: 1.0 + 0.1 * float(T),
        rho_c=lambda T: 2.0 + 0.05 * float(T),
        mu=lambda T: 0.3 * float(T),
        k0=1.0, rho0=1.0, c0=2.0, ell=1.0,
    )


PROBLEMS = {
    "linear": linear_problem(BCKind.DIRICHLET, alpha=0.3, beta=0.2, Pe=0.7, Ste=1.0),
    "linear-model": build_dimensionless(
        linear_model(2.0, 1.0, 3.0, 1.0, alpha=0.2, beta=0.3, Pe=0.4, T_star=4.0, T_m=1.0), Neumann(q=0.5, T_m=1.0)
    ),
    "constant": constant_problem(BCKind.DIRICHLET, Pe=0.5, Ste=1.0),
    "table": build_dimensionless(
        table_model(T_TABLE, 2.0 + 0.3 * np.sin(T_TABLE), 3.0 + 0.2 * np.cos(T_TABLE), 0.1 + 0.05 * T_TABLE,
                    2.0, 1.0, 3.0, 1.0),
        Dirichlet(T_star=4.0, T_m=1.0),
    ),
    "scalar-only": build_dimensionless(_scalar_only_model(), Dirichlet(T_star=2.0, T_m=1.3)),
}


def _trapezoid(y, step):
    return np.concatenate([[0.0], np.cumsum(y[1:] + y[:-1])]) * (0.5 * step)


def _stored(profile, prob):
    """E, L, N, mu, log_U, log_I and Phi as the kernel pass computed and stored them before it kept only Phi."""
    xi, f, step = profile.xi, profile.f, profile.step
    L, N, mu = (eval_coefficient(fn, f) for fn in (prob.L_star, prob.N_star, prob.mu_star))
    E = np.exp(_trapezoid((mu - xi * N) / L, 2.0 * step))
    return {
        "E": E,
        "L": L,
        "N": N,
        "mu": mu,
        "log_U": _trapezoid(mu / L, 2.0 * step),
        "log_I": _trapezoid(xi * N / L, 2.0 * step),
        "Phi": _trapezoid(E / L, step),
    }


def _profile(rng, n, hi=1.0):
    return ProfileGrid(0.8, np.sort(rng.uniform(0.0, hi, n + 1)))


def _same(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [64, 16384])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_read_back_arrays_are_the_stored_ones_bit_for_bit(rng, name, n):
    prob = PROBLEMS[name]
    profile = _profile(rng, n, hi=1.5 if prob.bc_kind is BCKind.NEUMANN else 1.0)
    ke = eval_kernels(profile, prob)
    want = _stored(profile, prob)
    for attr, array in want.items():
        assert _same(getattr(ke, attr), array), attr
    assert ke.E_lam == float(want["E"][-1]) and ke.phi_lam == float(want["Phi"][-1])


def test_a_kernel_eval_is_unchanged_by_later_evaluations(rng):
    prob = PROBLEMS["linear"]
    ke = eval_kernels(_profile(rng, 64), prob)
    Phi, E_lam, E = ke.Phi.copy(), ke.E_lam, ke.E
    # the same node count, another one, and a third that pushes the first out of the workspace
    for n in (64, 16384, 100, 64):
        eval_kernels(_profile(rng, n), prob)
    assert _same(ke.Phi, Phi) and ke.E_lam == E_lam and _same(ke.E, E)


def test_threads_evaluating_at_once_keep_their_own_results(rng):
    # more threads than cores, switching often: a workspace shared between
    # threads would mix their L*, N*, mu* and E
    prob, workers = PROBLEMS["linear"], 4
    profiles = [[_profile(rng, 16384) for _ in range(6)] for _ in range(workers)]
    want = [[(eval_kernels(p, prob).Phi, eval_kernels(p, prob).E_lam) for p in ps] for ps in profiles]
    got, barrier = [None] * workers, threading.Barrier(workers)

    def run(i):
        barrier.wait()
        got[i] = [eval_kernels(p, prob) for p in profiles[i]]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for kes, pairs in zip(got, want):
        for ke, (Phi, E_lam) in zip(kes, pairs):
            assert _same(ke.Phi, Phi) and ke.E_lam == E_lam
            assert _same(ke.E, _stored(ke.profile, prob)["E"])


def _traced(fn):
    """fn's result, and the bytes it left allocated and its peak above the start, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current - start, peak - start


@pytest.mark.parametrize("kind", list(BCKind))
def test_a_warm_picard_step_allocates_at_most_two_node_arrays(kind):
    prob = constant_problem(kind, Pe=0.5, Ste=1.0, q_star=0.5, M=1.0, Bi=0.7, r=0.01, T_star=2.0, T_m=1.0)
    profile = ProfileGrid.linear(0.7, 16384)
    fixed_point._operator_image(prob, profile)  # warms this thread's workspace
    (image, ke), kept, peak = _traced(lambda: fixed_point._operator_image(prob, profile))
    node_array = profile.f.nbytes
    # Phi and the image; a third node array would add 131 KB
    assert 2 * node_array <= peak < 2 * node_array + node_array // 2
    assert kept < 2 * node_array + node_array // 2
    assert image.shape == profile.f.shape and ke.Phi.shape == profile.f.shape


def test_a_kernel_eval_retains_one_node_array(linear_dirichlet):
    profile = ProfileGrid.linear(0.7, 16384)
    eval_kernels(profile, linear_dirichlet)
    ke, kept, _ = _traced(lambda: eval_kernels(profile, linear_dirichlet))
    assert profile.f.nbytes <= kept < 2 * profile.f.nbytes


def _family_problems():
    neumann = build_dimensionless(
        linear_model(2.0, 1.0, 3.0, 1.0, alpha=0.2, beta=0.3, Pe=0.4, T_star=4.0, T_m=1.0), Neumann(q=0.5, T_m=1.0)
    )
    # theta = theta0 + theta1 f with theta1 = T_m / (T_m - T_star) < 0
    assert neumann._family is not None and neumann.L_star(1.0) < neumann.L_star(0.0)
    return [PROBLEMS["linear"], PROBLEMS["constant"], neumann]


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-3.0, 4.0), (-1e6, 1e6), (0.25, 0.25)])
def test_family_extremes_are_the_array_extremes_bit_for_bit(rng, lo, hi):
    for prob in _family_problems():
        for size in (2, 65, 1000):
            f = rng.uniform(lo, hi, size)
            out = np.empty((3, size))
            extremes = prob.coefficients_into(f, out)
            L, N, mu = out
            arrays = (L.min(), L.max(), max(N.max(), -N.min()), max(mu.max(), -mu.min()))
            assert [x.hex() for x in extremes] == [float(x).hex() for x in arrays]
            for row, fn in zip(out, (prob.L_star, prob.N_star, prob.mu_star)):
                assert _same(row, eval_coefficient(fn, f))


# a zero slope times inf is NaN, with numpy's warning, on both paths
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_profile_fails_as_on_the_callables(bad):
    for prob in _family_problems():
        f = np.linspace(0.0, 1.0, 17)
        f[5] = bad
        profile = ProfileGrid(0.5, f)
        assert all(math.isnan(x) for x in prob.coefficients_into(profile.f, np.empty((3, 17))))
        errors = []
        for p in (prob, replace(prob)):
            with pytest.raises(ConfigError) as exc:
                eval_kernels(profile, p)
            errors.append(str(exc.value))
        assert errors[0] == errors[1] and "non-finite value at node 5" in errors[0]


def test_a_replaced_problem_goes_through_eval_coefficient(monkeypatch, linear_dirichlet):
    calls, original = [], coefficients.eval_coefficient
    monkeypatch.setattr(coefficients, "eval_coefficient", lambda fn, x: calls.append(fn) or original(fn, x))
    copy = replace(linear_dirichlet, mu_star=linear_dirichlet.mu_star)
    assert copy._family is None and linear_dirichlet._family is not None
    profile = ProfileGrid.linear(0.7, 64)
    family = eval_kernels(profile, linear_dirichlet)
    assert calls == []
    replaced = eval_kernels(profile, copy)
    assert calls == [copy.L_star, copy.N_star, copy.mu_star]
    assert _same(family.Phi, replaced.Phi) and family.E_lam == replaced.E_lam
