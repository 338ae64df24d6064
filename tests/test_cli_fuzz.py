"""Random, partly invalid configs must end every command in an exit code.

Each example starts from a valid config for one boundary condition and
coefficient family on a 32-interval grid, replaces one to three of its
values by text, null, 0, a negative, 5e-324, 1e300 or another plain number,
and runs one command.  Any exit code of the CLI contract (0, 2, 3, 4)
passes; an exception escaping ``main`` fails.  Iteration counts stay
bounded and grid sizes are either small or above the MAX_NODES cap: a
config asking for 1e12 iterations or a grid just below the cap asks for a
long run, which is not a defect.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

from meltfront.cli import main
from meltfront.kernels import MAX_NODES

COMMANDS = ("solve", "certify", "oracle", "verify-pde")
BCS = {
    "dirichlet": {"kind": "dirichlet", "T_star": 2.0},
    "neumann": {"kind": "neumann", "q": 0.5},
    "robin": {"kind": "robin", "h": 0.7, "T_star": 2.0},
    "radiative": {"kind": "radiative", "h": 0.1, "sigma": 1.0, "epsilon": 0.25, "T_star": 1.5},
}
FAMILIES = {
    "constant": {"family": "constant", "Pe": 0.5},
    "linear": {"family": "linear", "alpha": 0.1, "beta": 0.1, "Pe": 0.5},
}
REFERENCE = {"k0": 1.0, "rho0": 1.0, "c0": 1.0, "ell": 1.0, "T_m": 1.0}
VALUES = st.sampled_from(["x", None, 0, -1.0, 5e-324, 1e300, 1e-12, 0.3, 2.0, 30.0, 400.0])
# grid sizes that are unreadable, too small or above the cap, none of which builds a grid
SIZES = ["x", None, 0, -1, 5e-324, MAX_NODES + 1, 1e300]
# keys whose value sets a run length, each with values that keep it short
BOUNDED = {
    ("numerics", "max_iter"): st.sampled_from(["x", None, 0, -1, 1, 50, 1000]),
    ("numerics", "n"): st.sampled_from([*SIZES, 15, 16, 32]),
    ("pde", "nodes"): st.sampled_from([*SIZES, 8, 16]),
    ("outputs", "nx"): st.sampled_from([*SIZES, 2, 11]),
    ("pde", "t1"): st.sampled_from(["x", None, 0, -1.0, 5e-324, 1.0, 1.2]),
}


def _with(kind, family, **blocks):
    """The valid config of ``kind`` and ``family`` with the values in ``blocks`` replaced."""
    cfg = {"bc": dict(BCS[kind]), "coefficients": dict(FAMILIES[family]), "reference": dict(REFERENCE)}
    for block, values in blocks.items():
        cfg[block] = {**cfg.get(block, {}), **values}
    return cfg


@st.composite
def configs(draw):
    cfg = _with(
        draw(st.sampled_from(sorted(BCS))),
        draw(st.sampled_from(sorted(FAMILIES))),
        numerics={"n": 32, "max_iter": 200, "inner_tol": 1e-10, "outer_tol": 1e-9, "lambda_max": 10.0},
        pde={"nodes": 8, "t0": 1.0, "t1": 1.05},
        outputs={"times": [1.0, 2.0], "nx": 11},
    )
    keys = sorted((block, key) for block, values in cfg.items() for key in values if key not in ("kind", "family"))
    for block, key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True)):
        cfg[block][key] = draw(BOUNDED.get((block, key), VALUES))
    return cfg


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(COMMANDS), cfg=configs())
# the divisor k0*(T_star - T_m) of r underflows to 0
@example(command="certify", cfg=_with("radiative", "constant", reference={"k0": 5e-324}))
# the closed-form Neumann profile at Pe = 30, where exp(Pe^2) overflows
@example(command="oracle", cfg=_with("neumann", "constant", coefficients={"Pe": 30.0}, reference={"ell": 1e6}))
def test_random_configs_end_in_an_exit_code(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out"), "--quiet"])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
