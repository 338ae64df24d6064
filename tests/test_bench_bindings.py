"""Every function the benchmark's tracer wraps must exist at the binding it names.

``bench/tracing.py`` replaces ``meltfront.<module>.<attr>`` for each entry of
its ``LAYERS`` table; a rename or move in the package would otherwise only
show when a traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


BINDINGS = sorted({(module, attr) for module, attr, *_ in _layers()})


@pytest.mark.parametrize("module, attr", BINDINGS, ids=[f"{m}.{a}" for m, a in BINDINGS])
def test_traced_binding_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"meltfront.{module}"), attr, None))


def test_kernel_node_counter_reads_the_profile_grid(monkeypatch):
    # the tracer counts kernels.eval_kernels.nodes from the first positional
    # argument of fixed_point.eval_kernels; a call shape it cannot read would
    # silently count nothing
    from meltfront import BCKind, ProfileGrid, fixed_point, linear_problem, solve_lambda

    (counter,) = [count for module, attr, _, _, count in _layers() if (module, attr) == ("fixed_point", "eval_kernels")]
    original, seen = fixed_point.eval_kernels, []

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append((args, kwargs, result))
        return result

    monkeypatch.setattr(fixed_point, "eval_kernels", recording)
    solve_lambda(linear_problem(BCKind.DIRICHLET, alpha=0.1, beta=0.1, Pe=0.5, Ste=1.0))
    assert seen
    for args, kwargs, result in seen:
        assert not kwargs and isinstance(args[0], ProfileGrid)
        assert counter(args, result) == args[0].f.size == result.E.size
