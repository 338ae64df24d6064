"""Per-layer tracing of meltfront from outside the package.

:class:`Tracer` replaces each layer function at the binding its callers use
(``fixed_point.eval_kernels``, ``lambda_solver.v_value``, ...) with a wrapper
that records a span: name, start, end, parent span and thread.  A layer's
self time is its span's duration minus the time its child spans cover.

Sweep cases run on a ``ThreadPoolExecutor`` thread even with ``--workers 1``,
so a span that opens on a thread with nothing open takes the open
``cli.main`` span as its parent; the parent's covered time is then the union
of those intervals.  Aggregates are kept per pass; the spans themselves are
kept in memory only for the first pass after :meth:`Tracer.keep_spans`, and
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import threading
import time
from collections import Counter
from pathlib import Path


# (module, attribute, span name, counter name, counter of (args, result)).
# Every binding through which another layer calls the function is wrapped;
# the deferred ``from .existence import certify`` in solve_lambda reads
# ``existence.certify`` at call time.
LAYERS = [
    ("cli", "main", "cli.main", None, None),
    ("cli", "build_dimensionless", "coefficients.build_dimensionless", None, None),
    ("coefficients", "eval_coefficient", "coefficients.eval_coefficient", None, None),
    ("kernels", "eval_coefficient", "coefficients.eval_coefficient", None, None),
    ("lambda_solver", "eval_coefficient", "coefficients.eval_coefficient", None, None),
    ("pde_verifier", "eval_coefficient", "coefficients.eval_coefficient", None, None),
    ("fixed_point", "eval_kernels", "kernels.eval_kernels",
     "kernels.eval_kernels.nodes", lambda args, result: args[0].n + 1),
    ("lambda_solver", "solve_profile", "fixed_point.solve_profile",
     "fixed_point.picard_iters", lambda args, result: result.iterations),
    ("lambda_solver", "v_value", "lambda_solver.v_value", None, None),
    ("lambda_solver", "v2_curve", "lambda_solver.v2_curve", None, None),
    ("cli", "solve_lambda", "lambda_solver.solve_lambda",
     "lambda_solver.outer_steps", lambda args, result: result.outer_iterations),
    ("existence", "bracket", "lambda_solver.bracket", None, None),
    ("cli", "certify", "existence.certify", None, None),
    ("existence", "certify", "existence.certify", None, None),
    ("existence", "lambda_bar", "existence.lambda_bar", None, None),
    ("lambda_solver", "sign_change_intervals", "rootfind.sign_change_intervals", None, None),
    ("lambda_solver", "bisect_root", "rootfind.bisect_root", None, None),
    ("existence", "bisect_root", "rootfind.bisect_root", None, None),
    ("rootfind", "bisect_root", "rootfind.bisect_root", None, None),
    ("cli", "physical_solution", "reconstruct.physical_solution", None, None),
    ("cli", "export_field_csv", "reconstruct.export_field_csv", None, None),
    ("cli", "export_front_csv", "reconstruct.export_front_csv", None, None),
    ("reconstruct", "temperature_at", "reconstruct.temperature_at", None, None),
    ("cli", "verify", "pde_verifier.verify", "pde_verifier.steps", lambda args, result: result.steps),
]
ROOT_SPAN = "cli.main"
EXPORT_SPANS = (
    "reconstruct.physical_solution",
    "reconstruct.export_field_csv",
    "reconstruct.export_front_csv",
    "reconstruct.temperature_at",
)

# Every per-layer metric with its unit, all per pass over the workload's
# operations; ``trace.overhead`` is added by the benchmark itself.
PER_LAYER = [
    ("kernels.eval_kernels.calls", "count"),
    ("kernels.eval_kernels.self_s", "s"),
    ("kernels.eval_kernels.nodes", "count"),
    ("kernels.eval_kernels.ns_per_node", "ns"),
    ("fixed_point.solve_profile.calls", "count"),
    ("fixed_point.solve_profile.self_s", "s"),
    ("fixed_point.picard_iters", "count"),
    ("lambda_solver.outer_steps", "count"),
    ("lambda_solver.v_value.calls", "count"),
    ("lambda_solver.solve_lambda.self_s", "s"),
    ("lambda_solver.v2_curve.calls", "count"),
    ("rootfind.sign_change_intervals.self_s", "s"),
    ("rootfind.bisect_root.calls", "count"),
    ("existence.certify.total_s", "s"),
    ("existence.lambda_bar.total_s", "s"),
    ("coefficients.eval_coefficient.calls", "count"),
    ("coefficients.eval_coefficient.self_s", "s"),
    ("coefficients.build_dimensionless.self_s", "s"),
    ("reconstruct.export.self_s", "s"),
    ("reconstruct.temperature_at.calls", "count"),
    ("pde_verifier.verify.self_s", "s"),
    ("pde_verifier.steps", "count"),
    ("pde_verifier.us_per_step", "us"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead", "ratio"),
]


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    covered = 0
    end_so_far = None
    for start, end in sorted(intervals):
        if end_so_far is None or start > end_so_far:
            covered += end - start
            end_so_far = end
        elif end > end_so_far:
            covered += end - end_so_far
            end_so_far = end
    return covered


class Tracer:
    """Span recorder installed by wrapping module attributes; use as a context manager."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._threads: dict[int, int] = {}
        self._root: list | None = None
        self._originals: list[tuple[object, str, object]] = []
        self._keeping = False
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.new_pass()

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for module_name, attr, span, counter, count in LAYERS:
            module = importlib.import_module(f"meltfront.{module_name}")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, counter, count))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name: str, counter: str | None, count):
        tracer = self
        is_root = name == ROOT_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            frame = [next(tracer._ids), name, 0, 0, None]
            if is_root and not stack:
                frame[4] = []
                tracer._root = frame
            stack.append(frame)
            frame[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if frame is tracer._root:
                    tracer._root = None
                tracer._close(frame, parent, end, cross_thread=not stack and parent is not None)
            if counter is not None:
                with tracer._lock:
                    tracer.counts[counter] += count(args, result)
            return result

        return traced

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, frame: list, parent: list | None, end: int, cross_thread: bool) -> None:
        span_id, name, start, child_ns, cross = frame
        duration = end - start
        if cross:
            child_ns += _covered_ns(cross)
        with self._lock:
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += duration - child_ns
            if parent is not None:
                if cross_thread:
                    parent[4].append((start, end))
                else:
                    parent[3] += duration
            if self._keeping:
                thread = self._threads.setdefault(threading.get_ident(), len(self._threads))
                self.spans.append((span_id, name, start, end, parent[0] if parent else 0, thread))

    def new_pass(self) -> None:
        """Start the aggregates of a new pass; stop keeping spans after the first kept pass."""
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._keeping = False

    def keep_spans(self) -> None:
        self._keeping = True

    # -- results ------------------------------------------------------------

    def pass_metrics(self, bytes_written: int) -> dict[str, float]:
        """Per-layer metrics of the current pass (everything in PER_LAYER but trace.overhead)."""
        calls, counts = self.calls, self.counts

        def self_s(*names: str) -> float:
            return sum(self.self_ns[n] for n in names) / 1e9

        nodes = counts["kernels.eval_kernels.nodes"]
        steps = counts["pde_verifier.steps"]
        return {
            "kernels.eval_kernels.calls": calls["kernels.eval_kernels"],
            "kernels.eval_kernels.self_s": self_s("kernels.eval_kernels"),
            "kernels.eval_kernels.nodes": nodes,
            "kernels.eval_kernels.ns_per_node": self.self_ns["kernels.eval_kernels"] / nodes if nodes else 0.0,
            "fixed_point.solve_profile.calls": calls["fixed_point.solve_profile"],
            "fixed_point.solve_profile.self_s": self_s("fixed_point.solve_profile"),
            "fixed_point.picard_iters": counts["fixed_point.picard_iters"],
            "lambda_solver.outer_steps": counts["lambda_solver.outer_steps"],
            "lambda_solver.v_value.calls": calls["lambda_solver.v_value"],
            "lambda_solver.solve_lambda.self_s": self_s("lambda_solver.solve_lambda"),
            "lambda_solver.v2_curve.calls": calls["lambda_solver.v2_curve"],
            "rootfind.sign_change_intervals.self_s": self_s("rootfind.sign_change_intervals"),
            "rootfind.bisect_root.calls": calls["rootfind.bisect_root"],
            "existence.certify.total_s": self.total_ns["existence.certify"] / 1e9,
            "existence.lambda_bar.total_s": self.total_ns["existence.lambda_bar"] / 1e9,
            "coefficients.eval_coefficient.calls": calls["coefficients.eval_coefficient"],
            "coefficients.eval_coefficient.self_s": self_s("coefficients.eval_coefficient"),
            "coefficients.build_dimensionless.self_s": self_s("coefficients.build_dimensionless"),
            "reconstruct.export.self_s": self_s(*EXPORT_SPANS),
            "reconstruct.temperature_at.calls": calls["reconstruct.temperature_at"],
            "pde_verifier.verify.self_s": self_s("pde_verifier.verify"),
            "pde_verifier.steps": steps,
            "pde_verifier.us_per_step": self.self_ns["pde_verifier.verify"] / 1e3 / steps if steps else 0.0,
            "cli.main.self_s": self_s("cli.main"),
            "cli.bytes_written": bytes_written,
        }

    def write_spans(self, path: Path) -> Path:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_ns,end_ns,parent,thread\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")
        return path
