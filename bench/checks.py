"""Output checks against the pinned reference data in ``reference.json``.

Each ``check_*`` function inspects one CLI command's exit code and output
directory and returns a :class:`Checked`: how many operations the command
counts as (a sweep counts one per row), the reason for each failed one, and
the relative lambda error of each lambda it could read.  Only the pinned
data is trusted; nothing is recomputed with the code under test.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import workloads

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# the acceptance tolerance on lambda
LAMBDA_ATOL = 1e-6
# largest accepted relative front drift of the PDE cross-check
S_REL_MAX = 1e-2


@dataclass
class Checked:
    attempted: int
    failures: list[tuple[str, str]] = field(default_factory=list)  # (operation, reason)
    rel_errors: list[float] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Operations with at least one failure; a failure of the whole command counts for all."""
        return min(self.attempted, len({what for what, _ in self.failures}))

    def fail(self, what: str, reason: str) -> None:
        self.failures.append((what, reason))

    def check_lambda(self, what: str, lam: float, ref: float) -> None:
        self.rel_errors.append(abs(lam - ref) / abs(ref))
        if not abs(lam - ref) <= LAMBDA_ATOL:
            self.fail(what, f"lambda {lam!r} is off the reference {ref!r}")

    def check_certified(self, what: str, certified, ref: bool) -> None:
        if str(certified) != str(ref):
            self.fail(what, f"certified={certified} but the reference says {ref}")


def load_reference() -> dict:
    ref = json.loads(REFERENCE_PATH.read_text())
    ref["sweep-fine"] = {workloads.sweep_key(r["alpha"], r["beta"], r["Pe"]): r for r in ref["sweep-fine"]}
    return ref


def _exit_failure(checked: Checked, what: str, rc) -> bool:
    """``rc`` is the exit code, or the description of an exception that escaped the CLI."""
    if rc != 0:
        checked.fail(what, rc if isinstance(rc, str) else f"exit code {rc}")
        return True
    return False


def check_solve(outdir: Path, rc, ref: dict, name: str) -> Checked:
    """One ``solve`` command: report.json, and front/field CSVs consistent with its lambda."""
    checked = Checked(attempted=1)
    if _exit_failure(checked, name, rc):
        return checked
    try:
        report = json.loads((outdir / "report.json").read_text())
        with (outdir / "front.csv").open(newline="") as fh:
            front = [(float(r["t"]), float(r["s"])) for r in csv.DictReader(fh)]
        with (outdir / "field.csv").open() as fh:
            field_rows = sum(1 for _ in fh) - 1
        lam = float(report["lambda"])
        certified = report["existence"]["certified"]
    except (OSError, ValueError, KeyError) as exc:
        checked.fail(name, f"unreadable output ({exc})")
        return checked
    checked.check_lambda(name, lam, ref["lambda"])
    checked.check_certified(name, certified, ref["certified"])
    times = workloads.OUTPUTS["times"]
    expected_front = [(t, 2.0 * lam * math.sqrt(workloads.ALPHA0 * t)) for t in times]
    if len(front) != len(times) or any(
        t != te or not math.isclose(s, se, rel_tol=1e-12) for (t, s), (te, se) in zip(front, expected_front)
    ):
        checked.fail(name, f"front.csv {front} does not follow s = 2 lambda sqrt(alpha0 t)")
    if field_rows != len(times) * workloads.OUTPUTS["nx"]:
        checked.fail(name, f"field.csv has {field_rows} rows")
    return checked


def check_sweep(outdir: Path, rc, ref_rows: dict) -> Checked:
    """One ``sweep`` command; each expected parameter tuple is one operation."""
    checked = Checked(attempted=len(ref_rows))
    rows: dict[tuple, list[dict]] = {}
    try:
        with (outdir / "sweep.csv").open(newline="") as fh:
            for row in csv.DictReader(fh):
                key = workloads.sweep_key(row["coefficients.alpha"], row["coefficients.beta"], row["coefficients.Pe"])
                rows.setdefault(key, []).append(row)
    except (OSError, ValueError, KeyError) as exc:
        checked.fail("sweep", f"unreadable sweep.csv ({exc})")
    for key, ref in ref_rows.items():
        what = f"sweep row alpha={key[0]} beta={key[1]} Pe={key[2]}"
        found = rows.get(key, [])
        if len(found) != 1:
            checked.fail(what, f"{len(found)} rows instead of one")
            continue
        row = found[0]
        if row["status"] != "ok":
            checked.fail(what, f"status {row['status']!r}")
            continue
        checked.check_lambda(what, float(row["lambda"]), ref["lambda"])
        checked.check_certified(what, row["certified"], ref["certified"])
    if not checked.failures:
        # a failed command with every row in order still counts as one failure
        _exit_failure(checked, "sweep", rc)
    return checked


def check_verify(outdir: Path, rc, ref: dict) -> Checked:
    """One ``verify-pde`` command: lambda and the front drift of the PDE march."""
    checked = Checked(attempted=1)
    if _exit_failure(checked, "verify-pde", rc):
        return checked
    try:
        payload = json.loads((outdir / "verify.json").read_text())
        s_rel_max = float(payload["discrepancy"]["s_rel_max"])
        lam = float(payload["lambda"])
    except (OSError, ValueError, KeyError) as exc:
        checked.fail("verify-pde", f"unreadable verify.json ({exc})")
        return checked
    checked.check_lambda("verify-pde", lam, ref["lambda"])
    if not s_rel_max <= S_REL_MAX:
        checked.fail("verify-pde", f"front drift s_rel_max={s_rel_max!r} above {S_REL_MAX}")
    return checked
