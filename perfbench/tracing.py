"""In-process instrumentation of the `tdo` layers, installed from outside.

Two separate passes, so that counting never inflates the timings:

  SpanRecorder  wraps each layer's public entry point at the site where a
                caller looks it up, and records calls and self time (a
                span's duration minus its child spans)
  WorkCounter   wraps the hot inner calls (RingScalar arithmetic, the
                per-gate simulation step) and a few entry points, and
                counts work; its numbers repeat exactly for a seed

Every site must exist: a refactor that moves an import makes `patched`
raise HarnessError instead of silently reporting a layer as zero.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (owner, attribute, span): owner is a module, or "module:Class".
SPAN_SITES = (
    ("tdo.cli", "main", "cli.main"),
    ("tdo.cli", "parse", "text.parse"),
    ("tdo.cli", "emit", "text.emit"),
    ("tdo.cli", "metrics", "circuit.metrics"),
    ("tdo.cli", "t_depth_scheduled", "circuit.t_depth_scheduled"),
    ("tdo.cli", "build", "constructions.build"),
    ("tdo.cli", "rewrite_budgeted", "rewriter.rewrite_budgeted"),
    ("tdo.cli", "equivalence_phase", "sim.equivalence_phase"),
    ("tdo.cli", "obstruction_verdict", "obstruction.obstruction_verdict"),
    ("tdo.obstruction", "apply_circuit", "obstruction.apply_circuit"),
    ("tdo.obstruction", "expectation_direct", "obstruction.expectation_direct"),
    ("tdo.sim", "induced_unitary", "sim.induced_unitary"),
    ("tdo.sim", "apply_circuit", "sim.apply_circuit"),
    ("tdo.sim:ExactMatrix", "from_columns", "sim.from_columns"),
)

SPAN_NAMES = tuple(span for _, _, span in SPAN_SITES)

# Per-layer time metrics as sums of span self times.
LAYER_TIMES = {
    "text.parse_s": ("text.parse",),
    "text.emit_s": ("text.emit",),
    "circuit.metrics_s": ("circuit.metrics", "circuit.t_depth_scheduled"),
    "rewriter.rewrite_s": ("rewriter.rewrite_budgeted",),
    "constructions.build_s": ("constructions.build",),
    "cli.self_s": ("cli.main",),
    "sim.equivalence_s": ("sim.equivalence_phase",),
    "sim.induced_unitary_s": ("sim.induced_unitary",),
    "sim.apply_circuit_s": ("sim.apply_circuit", "obstruction.apply_circuit"),
    "sim.from_columns_s": ("sim.from_columns",),
    "obstruction.verdict_s": ("obstruction.obstruction_verdict",),
    "obstruction.expectation_s": ("obstruction.expectation_direct",),
}

COUNTER_NAMES = (
    "text.gates_parsed", "text.bytes_emitted", "rewriter.gates_in", "rewriter.gates_out",
    "sim.columns", "sim.gate_applications", "sim.amplitude_updates", "sim.peak_support",
    "sim.scaled_copies", "sim.matrix_cells",
    "ring.mul", "ring.add", "ring.new", "ring.max_k",
)
_MAXIMA = ("sim.peak_support", "ring.max_k")


class HarnessError(Exception):
    """An instrumentation site is missing from the program."""


def _owner(name: str):
    module_name, _, cls = name.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls) if cls else module


@contextmanager
def patched(wrappers):
    """Install (owner, attribute, make_wrapper) triples; restore on exit."""
    saved = []
    try:
        for owner_name, attr, make in wrappers:
            owner = _owner(owner_name)
            raw = vars(owner).get(attr)
            if raw is None:
                raise HarnessError(f"{owner_name}.{attr} is gone; move the site in tracing.py")
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def reset_caches() -> None:
    """Empty every functools cache in `tdo`, so each op starts as cold as a new process."""
    for name, module in list(sys.modules.items()):
        if name == "tdo" or name.startswith("tdo."):
            for value in vars(module).values():
                if hasattr(value, "cache_info"):
                    value.cache_clear()


class SpanRecorder:
    """Calls and self seconds per span name."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self._stack: list[float] = []

    def _wrap(self, span: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                self_s[span] += elapsed - children
                calls[span] += 1
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def installed(self):
        return patched([(owner, attr, lambda fn, s=span: self._wrap(s, fn))
                        for owner, attr, span in SPAN_SITES])


class WorkCounter:
    """Exact work counters; maxima are kept for the names in _MAXIMA."""

    def __init__(self) -> None:
        self.n: Counter = Counter()
        self._in_induced = 0

    def take(self) -> dict[str, int]:
        """Counters since the last take, then start again from zero."""
        counts = {name: self.n[name] for name in COUNTER_NAMES}
        self.n.clear()
        return counts

    def _bump(self, name: str, fn, amount=lambda result, args: 1):
        n = self.n

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            n[name] += amount(result, args)
            return result

        return wrapper

    def _ring_init(self, fn):
        n = self.n

        def wrapper(scalar, *args, **kwargs):
            fn(scalar, *args, **kwargs)
            n["ring.new"] += 1
            if scalar.k > n["ring.max_k"]:
                n["ring.max_k"] = scalar.k

        return wrapper

    def _gate_step(self, fn):
        n = self.n

        def wrapper(amps, gate, width):
            out = fn(amps, gate, width)
            n["sim.gate_applications"] += 1
            n["sim.amplitude_updates"] += len(amps)
            if len(out) > n["sim.peak_support"]:
                n["sim.peak_support"] = len(out)
            return out

        return wrapper

    def _induced(self, fn):
        def wrapper(*args, **kwargs):
            self._in_induced += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_induced -= 1

        return wrapper

    def _column(self, fn):
        n = self.n

        def wrapper(*args, **kwargs):
            if self._in_induced:
                n["sim.columns"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rewrite(self, fn):
        n = self.n

        def wrapper(c, *args, **kwargs):
            out = fn(c, *args, **kwargs)
            n["rewriter.gates_in"] += len(c.gates)
            n["rewriter.gates_out"] += len(out.gates)
            return out

        return wrapper

    def installed(self):
        ring = "tdo.ring:RingScalar"
        matrix = "tdo.sim:ExactMatrix"
        return patched([
            (ring, "__mul__", lambda fn: self._bump("ring.mul", fn)),
            (ring, "__rmul__", lambda fn: self._bump("ring.mul", fn)),
            (ring, "__add__", lambda fn: self._bump("ring.add", fn)),
            (ring, "__radd__", lambda fn: self._bump("ring.add", fn)),
            (ring, "__init__", self._ring_init),
            ("tdo.sim", "_apply_gate", self._gate_step),
            ("tdo.sim", "induced_unitary", self._induced),
            ("tdo.sim", "apply_circuit", self._column),
            (matrix, "from_columns", lambda fn: self._bump(
                "sim.matrix_cells", fn, lambda m, args: m.dim * m.dim)),
            (matrix, "scaled", lambda fn: self._bump("sim.scaled_copies", fn)),
            ("tdo.cli", "parse", lambda fn: self._bump(
                "text.gates_parsed", fn, lambda c, args: len(c.gates))),
            ("tdo.cli", "emit", lambda fn: self._bump(
                "text.bytes_emitted", fn, lambda text, args: len(text.encode()))),
            ("tdo.cli", "rewrite_budgeted", self._rewrite),
        ])


def combine_counts(total: dict[str, int], part: dict[str, int]) -> None:
    """Add a counter snapshot into a total, taking maxima where they apply."""
    for name, value in part.items():
        if name in _MAXIMA:
            total[name] = max(total.get(name, 0), value)
        else:
            total[name] = total.get(name, 0) + value
