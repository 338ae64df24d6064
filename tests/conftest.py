"""Shared test helpers: independent oracles kept deliberately separate
from the library's own numerics, and the bracketed outer search that the
nested-grid path of solve_lambda is compared against."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from meltfront import DEFAULT_GRID_N, BCKind, ProfileGrid, certify, lambda_solver, linear_problem


BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_workloads():
    """``bench/workloads.py``, the benchmark's configs, loaded as a module."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cumtrapz_ref(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Independent cumulative trapezoid (plain cumsum, no scipy)."""
    dx = np.diff(x)
    return np.concatenate([[0.0], np.cumsum(0.5 * dx * (y[1:] + y[:-1]))])


def bisect_ref(fn, a: float, b: float, tol: float = 1e-14, it: int = 200) -> float:
    """Independent scalar bisection."""
    fa, fb = fn(a), fn(b)
    assert fa * fb <= 0.0, (fa, fb)
    for _ in range(it):
        m = 0.5 * (a + b)
        fm = fn(m)
        if fa * fm <= 0.0:
            b = m
        else:
            a, fa = m, fm
        if b - a < tol:
            break
    return 0.5 * (a + b)


def full_bracket_lambda(prob, settings) -> float:
    """lambda from the ITP search over the whole bracket on settings.n intervals, cold-started,
    stopping at |V - lambda| <= outer_tol (DEFAULT_GRID_N / n)^2 on finer grids."""
    tol = settings.outer_tol * min(1.0, (DEFAULT_GRID_N / settings.n) ** 2)
    ranked, _ = lambda_solver._solve_in_bracket(prob, settings, certify(prob, settings), tol)
    return ranked[0][0]


def random_profile(rng: np.random.Generator, lam: float, n: int, lo: float = 0.0, hi: float = 1.0) -> ProfileGrid:
    return ProfileGrid(lam, rng.uniform(lo, hi, n + 1))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)


@pytest.fixture
def linear_dirichlet():
    """Workhorse problem: linear family alpha = beta = 0.1, Pe = 0.5."""
    return linear_problem(BCKind.DIRICHLET, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0)
