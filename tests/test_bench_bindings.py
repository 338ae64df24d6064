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
