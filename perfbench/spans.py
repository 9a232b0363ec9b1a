"""Timing wrappers interposed on qesolve's cross-module names, and span self times.

Nothing in qesolve is edited: while a Tracer is installed, each name in
WRAPPED is replaced on its module by a wrapper that records a span
(name, parent, start, end, error, note) and restored afterwards.  A
function imported by name into another module is a separate binding, so
both bindings are listed.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# (module, attribute) -> layer span name
WRAPPED = {
    ("qesolve.families", "make_sextic"): "families.make",
    ("qesolve.families", "make_morse"): "families.make",
    ("qesolve.cli", "make_sextic"): "families.make",
    ("qesolve.cli", "make_morse"): "families.make",
    ("qesolve.spectrum", "build_block"): "sl2.build_block",
    ("qesolve.spectrum", "eigen_solve"): "spectrum.eigen_solve",
    ("qesolve.spectrum", "common_imaginary_shift"): "spectrum.shift",
    ("qesolve.spectrum", "solve_model"): "spectrum.solve_model",
    ("qesolve.cli", "solve_model"): "spectrum.solve_model",
    ("qesolve.cli", "residual_sup"): "analysis.residual_sup",
    ("qesolve.cli", "norm_squared"): "analysis.norm_squared",
    ("qesolve.cli", "fd_verify"): "analysis.fd_verify",
    ("qesolve.cli", "is_pt_symmetric"): "analysis.pt",
    ("qesolve.cli", "build_report"): "cli.build_report",
    ("qesolve.cli", "render_report"): "cli.render",
    ("qesolve.cli", "main"): "cli.main",
}

_SPECTRUM_CORE = {
    ("qesolve.spectrum", "build_block"),
    ("qesolve.spectrum", "eigen_solve"),
    ("qesolve.spectrum", "common_imaginary_shift"),
}
_REPORT = {
    ("qesolve.cli", "build_report"),
    ("qesolve.cli", "solve_model"),
    ("qesolve.cli", "residual_sup"),
    ("qesolve.cli", "is_pt_symmetric"),
    ("qesolve.cli", "render_report"),
}
_VERIFY = {("qesolve.cli", "norm_squared"), ("qesolve.cli", "fd_verify")}

# Names each workload's input list must reach at least once; together they
# cover WRAPPED, so a moved import cannot silently zero a layer.
EXPECTED = {
    "solve_sweep": _SPECTRUM_CORE
    | {
        ("qesolve.families", "make_sextic"),
        ("qesolve.families", "make_morse"),
        ("qesolve.spectrum", "solve_model"),
    },
    "verify_small": _SPECTRUM_CORE
    | _REPORT
    | _VERIFY
    | {("qesolve.families", "make_sextic"), ("qesolve.families", "make_morse")},
    "cli_mix": _SPECTRUM_CORE
    | _REPORT
    | _VERIFY
    | {("qesolve.cli", "make_sextic"), ("qesolve.cli", "make_morse"), ("qesolve.cli", "main")},
}

ROOT_SPAN = "bench.op"

# Per-span notes kept for the layer counters.
NOTES = {
    "sl2.build_block": lambda args, result: args[1].dim,
    "spectrum.solve_model": lambda args, result: len(result[0]),
    "cli.render": lambda args, result: len(result.encode()),
    "cli.build_report": lambda args, result: result[0].verification,
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "error", "note")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.error = None
        self.note = None


class Tracer:
    """Records spans of one thread; spans nest because calls do."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls = dict.fromkeys(WRAPPED, 0)
        self._stack: list[int] = []

    def wrap(self, name, fn, key=None):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            if key is not None:
                self.calls[key] += 1
            span = Span(name, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                span.error = type(exc).__name__
                raise
            else:
                span.end = perf_counter()
                if note is not None:
                    span.note = note(args, result)
                return result
            finally:
                self._stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Interpose the wrappers for the duration of the block."""
        originals = []
        try:
            for key, name in WRAPPED.items():
                module = importlib.import_module(key[0])
                original = getattr(module, key[1])
                originals.append((module, key[1], original))
                setattr(module, key[1], self.wrap(name, original, key))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def own_times(self) -> list[float]:
        """Self seconds of each span: its duration minus its direct children's."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def self_times(self) -> dict[str, float]:
        """Self seconds summed per span name."""
        out: dict[str, float] = {}
        for s, t in zip(self.spans, self.own_times()):
            out[s.name] = out.get(s.name, 0.0) + t
        return out


# span name -> per-op self-time metric
SELF_TIME_METRICS = {
    ROOT_SPAN: "bench.harness_self_ms",
    "families.make": "families.make_ms",
    "sl2.build_block": "sl2.build_block_ms",
    "spectrum.eigen_solve": "spectrum.eigen_solve_ms",
    "spectrum.shift": "spectrum.shift_ms",
    "spectrum.solve_model": "spectrum.solve_model_self_ms",
    "analysis.residual_sup": "analysis.residual_sup_ms",
    "analysis.norm_squared": "analysis.norm_squared_ms",
    "analysis.fd_verify": "analysis.fd_verify_ms",
    "analysis.pt": "analysis.pt_ms",
    "cli.build_report": "cli.build_report_self_ms",
    "cli.render": "cli.render_ms",
    "cli.main": "cli.main_self_ms",
}

_CONVERGENCE = "ConvergenceFailureError"


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-op self times (ms) and the layer counters over one traced loop."""
    selfs = tracer.self_times()
    out = {metric: 1e3 * selfs.get(name, 0.0) / n_ops for name, metric in SELF_TIME_METRICS.items()}
    main_total = sum(s.end - s.start for s in tracer.spans if s.name == "cli.main")
    out["cli.main_ms"] = 1e3 * main_total / n_ops

    solved_blocks = set()  # solve_model spans whose eigensolve returned
    dim_sum = root_iter = norm_calls = fd_nonconverged = 0
    renders = render_bytes = 0
    reports = passed_reports = over_bound = 0
    for s in tracer.spans:
        if s.name == "sl2.build_block" and s.note is not None:
            dim_sum += s.note
        elif s.name == "spectrum.eigen_solve":
            if s.error is None:
                solved_blocks.add(s.parent)
            elif s.error == _CONVERGENCE:
                root_iter += 1
        elif s.name == "analysis.norm_squared":
            norm_calls += 1
        elif s.name == "analysis.fd_verify" and s.error == _CONVERGENCE:
            fd_nonconverged += 1
        elif s.name == "cli.render" and s.note is not None:
            renders += 1
            render_bytes += s.note
        elif s.name == "cli.build_report" and s.note is not None:
            reports += 1
            passed_reports += s.note.passed
            over_bound += s.note.fd.defect > s.note.fd.defect_bound

    gate_attempts = gate_passed = gate_fails = levels = 0
    for i, s in enumerate(tracer.spans):
        if s.name != "spectrum.solve_model" or i not in solved_blocks:
            continue
        gate_attempts += 1
        if s.error is None:
            gate_passed += 1
            levels += s.note
        elif s.error == _CONVERGENCE:
            gate_fails += 1

    out.update(
        {
            "spectrum.dim_sum": dim_sum,
            "spectrum.root_iter_fails": root_iter,
            "spectrum.residual_gate_fails": gate_fails,
            "spectrum.levels_returned": levels,
            "spectrum.gate_pass_ratio": gate_passed / gate_attempts if gate_attempts else 0.0,
            "analysis.norm_squared_calls": norm_calls,
            "analysis.fd_nonconverged": fd_nonconverged,
            "analysis.fd_over_bound": over_bound,
            "analysis.verify_pass_ratio": passed_reports / reports if reports else 0.0,
            "cli.render_bytes": render_bytes / renders if renders else 0.0,
        }
    )
    return out
