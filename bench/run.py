"""Layered benchmark of the meltfront CLI.

    python3 bench/run.py --workload {solve,sweep-fine,verify-pde} --seed N --seconds S --trace {0,1}

Drives ``meltfront.cli.main`` in-process, from one process, as one
closed-loop client (sweeps with ``--workers 1``), on the package in ``src/``
next to this directory; the interpreter and scipy start-up is reported as
set-up time instead of being paid by every command.  Workloads are defined
in ``workloads.py``; every command's outputs are checked against the pinned
``reference.json`` (see ``checks.py``).

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first runs a third of the time untraced, then traces each
layer (``tracing.py``) for the rest and reports per-layer metrics per pass
over the workload's operations, plus the tracing overhead: traced over
untraced median pass time.  Spans of the first traced pass are written to
``.out/spans-<workload>.csv.gz`` in this directory.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads
from tracing import PER_LAYER, Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / ".out"

SETUP_REPEATS = 3
UNTRACED_SHARE_OF_TRACE_RUN = 1.0 / 3.0
# a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10
# cmd_tail_ms is the median of the tails of windows of this many consecutive
# commands: one tail over a whole solve run is set by its 10 worst commands,
# i.e. by the slowest seconds of a shared machine, and its run-to-run spread
# was several times that of the median
TAIL_WINDOW = 200
MAX_REPORTED_FAILURES = 20

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import meltfront.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def load_meltfront():
    """Import meltfront from ``src/`` of this checkout, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import meltfront
        import meltfront.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"cannot import meltfront from {SRC}: {exc}")
    if SRC not in Path(meltfront.__file__).resolve().parents:
        raise SystemExit(f"meltfront was imported from {meltfront.__file__}, not from {SRC}")
    return meltfront


def import_seconds() -> float:
    """Wall time of ``import meltfront.cli`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


class Client:
    """One closed-loop client: issues CLI commands one at a time and checks each one's outputs.

    Every command writes into a fresh output directory, which is removed as
    soon as its outputs are checked.  Rewriting the files of an existing
    directory makes ext4 flush them on close (the replace-via-truncate
    heuristic), which turned a 15 ms ``solve`` into 260-330 ms and dominated
    the run-to-run spread, so directories are never reused.  Removing them at
    once, before the kernel writes them back, costs about 0.2 ms a command;
    removing a run's 2000 directories at its end took up to 30 s and left
    their write-back to slow the next run.
    """

    def __init__(self, cli, reference: dict, opsdir: Path):
        self.cli = cli
        self.reference = reference
        self.opsdir = opsdir
        self.configs: dict[str, Path] = {}
        self.issued = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rel_errors: list[float] = []
        self.bytes_written = 0

    def pass_ops(self, rng: random.Random) -> list[str]:
        """One pass over the workload's operations, in an order drawn from ``rng``."""
        names = sorted(self.configs)
        rng.shuffle(names)
        return names

    def argv(self, name: str, outdir: Path) -> list[str]:
        command = {"sweep": "sweep", "verify": "verify-pde"}.get(name, "solve")
        argv = [command, "--config", str(self.configs[name]), "--out", str(outdir), "--quiet"]
        if command == "sweep":
            argv += ["--grid", str(workloads.SWEEP_GRID), "--workers", "1"]
        return argv

    def run(self, name: str) -> float:
        """Issue one command, check its outputs and return its wall time in seconds."""
        outdir = self.opsdir / f"{self.issued:06d}"
        self.issued += 1
        argv = self.argv(name, outdir)
        start = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # an escaping exception fails the operation, not the benchmark
            elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            rc = f"exception escaped the CLI: {type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
        self._check(name, outdir, rc)
        return elapsed

    def _check(self, name: str, outdir: Path, rc) -> None:
        if name == "sweep":
            checked = checks.check_sweep(outdir, rc, self.reference["sweep-fine"])
        elif name == "verify":
            checked = checks.check_verify(outdir, rc, self.reference["verify-pde"])
        else:
            checked = checks.check_solve(outdir, rc, self.reference["solve"][name], name)
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.rel_errors += checked.rel_errors
        self.failures += [f"{what}: {reason}" for what, reason in checked.failures]
        if outdir.is_dir():
            self.bytes_written += sum(entry.stat().st_size for entry in os.scandir(outdir))
            shutil.rmtree(outdir)

    def run_pass(self, rng: random.Random) -> tuple[dict[str, float], int]:
        """Run one pass; return each command's time, by operation in the order run, and the bytes it wrote."""
        before = self.bytes_written
        times = {name: self.run(name) for name in self.pass_ops(rng)}
        return times, self.bytes_written - before


def set_up(client: Client, workdir: Path, workload: str, seed: int) -> float:
    """Import meltfront in a fresh interpreter, write the inputs and run one warm-up command."""
    t_import = import_seconds()
    start = time.perf_counter()
    client.configs = workloads.write_inputs(workdir, workload, random.Random(seed))
    t_inputs = time.perf_counter() - start
    warm_up = "dirichlet-linear" if workload == "solve" else next(iter(client.configs))
    return t_import + t_inputs + client.run(warm_up)


def run_passes(client: Client, rng: random.Random, seconds: float, before_pass=None, after_pass=None):
    """Run whole passes while the next one, as long as the last, still fits in ``seconds``.

    Returns the command times of every pass, by operation.
    """
    passes: list[dict[str, float]] = []
    elapsed = 0.0
    while not passes or elapsed + sum(passes[-1].values()) <= seconds:
        if before_pass:
            before_pass(len(passes))
        times, written = client.run_pass(rng)
        passes.append(times)
        elapsed += sum(times.values())
        if after_pass:
            after_pass(written)
    return passes


def pass_seconds(passes: list[dict[str, float]]) -> list[float]:
    """The wall time of each pass: the sum of its command times."""
    return [sum(times.values()) for times in passes]


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it, and that percentile.

    With TAIL_BEYOND samples or fewer it is the minimum.
    """
    ordered = sorted(samples)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def windowed_tail(samples: list[float]) -> tuple[float, float, int]:
    """Median over windows of about TAIL_WINDOW consecutive samples of each window's tail.

    Returns the tail, its percentile within a window and the number of windows;
    a run of fewer than two windows' worth is one window.
    """
    windows = max(len(samples) // TAIL_WINDOW, 1)
    size = len(samples) // windows
    tails = [tail(samples[i * size:(i + 1) * size]) for i in range(windows)]
    return statistics.median(t for t, _ in tails), tails[0][1], windows


def end_to_end(client: Client, seconds: float, rng: random.Random, setups: list[float]) -> dict:
    """The bounded end-to-end metrics, all from medians over the run.

    A shared machine has slow stretches of seconds.  ``cmd_p50_ms`` is the
    mean over the workload's operations of each one's median time: a median
    over all commands pooled would sit between two configs' clusters (the
    solve configs take 10-21 ms each on a 2-core x86 host) and move by
    whole clusters when a slow stretch covers part of the run.
    ``solves_per_s`` divides the operations of a pass by the median pass
    time, not by the summed time, which every slow stretch would lengthen.
    The tail is printed but not bounded: it is set by the slowest seconds of
    the machine, and its run-to-run spread was two to four times that of
    the medians.
    """
    solves_before = client.attempted - client.failed
    passes = run_passes(client, rng, seconds)
    op_times = [t for times in passes for t in times.values()]
    medians = [statistics.median(times[name] for times in passes) for name in passes[0]]
    solved_per_pass = (client.attempted - client.failed - solves_before) / len(passes)
    value, percentile, windows = windowed_tail(op_times)
    # no readable lambda at all counts as a 100 % error
    lambda_err = max(client.rel_errors) if client.rel_errors else 1.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cmd_p50_ms": (statistics.mean(medians) * 1e3, "ms"),
        "solves_per_s": (solved_per_pass / statistics.median(pass_seconds(passes)), "1/s"),
        "lambda_err_max": (lambda_err, "rel"),
    }
    print(f"commands timed: {len(op_times)} in {len(passes)} passes of {len(passes[0])}")
    print(f"cmd_tail_ms (not bounded) = {value * 1e3:.6g} ms, the median p{percentile:.2f} of {windows} window(s)")
    return metrics


def per_layer(client: Client, seconds: float, rng: random.Random, workload: str) -> dict:
    untraced = pass_seconds(run_passes(client, rng, seconds * UNTRACED_SHARE_OF_TRACE_RUN))
    per_pass: list[dict] = []
    with Tracer() as tracer:
        def before_pass(index: int) -> None:
            tracer.new_pass()
            if index == 0:
                tracer.keep_spans()

        def after_pass(written: int) -> None:
            per_pass.append(tracer.pass_metrics(written))

        traced = pass_seconds(
            run_passes(client, rng, seconds * (1.0 - UNTRACED_SHARE_OF_TRACE_RUN), before_pass, after_pass))
    spans = tracer.write_spans(OUT_DIR / f"spans-{workload}.csv.gz")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; {len(tracer.spans)} spans written to {spans}")
    units = dict(PER_LAYER)
    # median_low: counters stay the integers one pass produced
    metrics = {name: (statistics.median_low(p[name] for p in per_pass), units[name])
               for name in units if name != "trace.overhead"}
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    meltfront = load_meltfront()
    reference = checks.load_reference()
    rundir = OUT_DIR / f"run-{os.getpid()}"
    client = Client(meltfront.cli, reference, rundir / "ops")
    try:
        setups = [set_up(client, rundir / f"inputs-{i}", args.workload, args.seed) for i in range(SETUP_REPEATS)]
        rng = random.Random(args.seed)
        if args.trace:
            metrics = per_layer(client, args.seconds, rng, args.workload)
        else:
            metrics = end_to_end(client, args.seconds, rng, setups)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for failure in client.failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {client.attempted} operations, {client.failed} failed, "
          f"error_rate = {client.failed / client.attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" if isinstance(value, float) else f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
