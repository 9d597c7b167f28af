"""Spans around calls into edick's modules, recorded from outside the library.

A traced pass rebinds chosen public functions of edick, in every edick module
namespace that holds them, to wrappers that record a span: name, layer,
start, end, parent span and op id. Calls a module makes into another
module's public functions (``edick.cli.run``, ``edick.converters.remap``,
``edick.dicke.inverse``, ...) are timed that way, as are the benchmark's own
calls. The original functions are restored when the pass ends. Spans stay in
memory until the pass ends.

A span's self time is its duration minus its children's durations and the
tracer's own bookkeeping for them, so the self times of all spans of an op
add up to the op's traced time less that bookkeeping.
"""

from __future__ import annotations

import contextlib
import gc
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    layer: str
    parent: int
    op: int
    start: float
    end: float = 0.0
    probe_s: float = 0.0  # time spent measuring counts after the span ended
    counts: dict = field(default_factory=dict)


def _gates_out(args, kwargs, result) -> dict:
    circuit = result[0] if isinstance(result, tuple) else result
    return {"gates_out": len(circuit.gates)}


def _layered(args, kwargs, result) -> dict:
    return {"gates_layered": len(args[0].gates)}


def _lowered(args, kwargs, result) -> dict:
    gates = args[0].gates
    mcx = sys.modules["edick"].GateKind.MCX
    return {
        "gates_in": len(gates),
        "gates_out": len(result.gates),
        "mcx_in": sum(g.kind is mcx for g in gates),
    }


def _emitted(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


def _parsed(args, kwargs, result) -> dict:
    return {"bytes": len(args[0])}


def _simulated(args, kwargs, result) -> dict:
    gates = len(args[1].gates)
    full = 1 << result.num_qubits
    return {
        "gates_applied": gates,
        "computed_bytes": gates * full * 16,
        "nonzero": int(np.count_nonzero(result.amplitudes)),
        "amplitudes": full,
    }


# (module, function, layer, probe): the layer boundaries that get spans.
# Gate constructors and per-gate helpers are left out: they run once per
# gate, and wrapping them would trace the tracer.
BOUNDARIES = [
    *(("converters", f, "converters", _gates_out) for f in (
        "build_converter", "build_edick_to_onehot", "build_edick_to_binary",
        "build_onehot_to_binary", "build_binary_to_onehot", "build_cnot_stair",
    )),
    *(("dicke", f, "dicke", _gates_out) for f in (
        "build_binomial_pipeline", "build_dicke_unitary", "build_scs",
    )),
    *(("circuit", f, "circuit.transform", None) for f in ("compose", "inverse", "remap")),
    ("circuit", "cost", "circuit.cost", _layered),
    ("decompose", "decompose_to_basis", "decompose", _lowered),
    ("qasm", "emit_text", "qasm.emit", _emitted),
    ("qasm", "parse_text", "qasm.parse", _parsed),
    ("statevector", "run", "statevector", _simulated),
    *(("statevector", f, "statevector", None) for f in ("basis_state", "zero_state", "fidelity")),
    *(("encodings", f, "encodings", None) for f in ("random_vector", "build_state", "read_state")),
    ("cli", "main", "cli", None),
]

EDICK_MODULES = (
    "edick", "edick.analysis", "edick.circuit", "edick.cli", "edick.converters",
    "edick.decompose", "edick.dicke", "edick.encodings", "edick.qasm", "edick.statevector",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self.gc_pause_s = 0.0
        self.gc_collections = [0, 0, 0]
        self._gc_start: float | None = None

    def _wrap(self, func, layer: str, probe):
        name = f"{func.__module__}.{func.__name__}"

        def traced(*args, **kwargs):
            if not self._stack:  # outside an op, e.g. in an untimed check
                return func(*args, **kwargs)
            span = Span(name, layer, self._stack[-1], self._op, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                span.counts = probe(args, kwargs, result)
                span.probe_s = time.perf_counter() - span.end
            return result

        traced.__wrapped__ = func
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        # Collections between ops, during the untimed checks, are not counted.
        if phase == "start":
            self._gc_start = time.perf_counter() if self._stack else None
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections[info["generation"]] += 1

    @contextlib.contextmanager
    def installed(self):
        """Rebind every boundary in every edick namespace; restore on exit."""
        modules = [sys.modules[m] for m in EDICK_MODULES]
        saved = []
        for module_name, func_name, layer, probe in BOUNDARIES:
            original = getattr(sys.modules[f"edick.{module_name}"], func_name)
            wrapper = self._wrap(original, layer, probe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            for module, attr, original in saved:
                setattr(module, attr, original)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one op, in the benchmark's own layer."""
        self._op = op_id
        span = Span("op", "bench", -1, op_id, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= (s.end - s.start) + s.probe_s
        return own

    def metrics(self, ops: int, untraced_s: float, traced_s: float) -> dict:
        """Per-layer metrics of one traced pass of `ops` ops."""
        own = self.self_times()
        layer_s: dict[str, float] = {}
        name_s: dict[str, float] = {}
        totals: dict[str, int] = {}
        for span, t in zip(self.spans, own):
            layer_s[span.layer] = layer_s.get(span.layer, 0.0) + t
            name_s[span.name] = name_s.get(span.name, 0.0) + t
            # A count is taken at the outermost span of its layer, so a
            # builder that calls a builder of its own layer counts once.
            if span.parent >= 0 and self.spans[span.parent].layer == span.layer:
                continue
            for key, value in span.counts.items():
                totals[f"{span.layer}.{key}"] = totals.get(f"{span.layer}.{key}", 0) + value

        def ms(layer: str) -> float:
            return 1e3 * layer_s.get(layer, 0.0) / ops

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        run_s = name_s.get("edick.statevector.run", 0.0)
        parse_s = layer_s.get("qasm.parse", 0.0)
        per_op_ms = {
            "converters.build_ms": ms("converters"),
            "dicke.build_ms": ms("dicke"),
            "circuit.transform_ms": ms("circuit.transform"),
            "circuit.cost_ms": ms("circuit.cost"),
            "decompose.lower_ms": ms("decompose"),
            "qasm.emit_ms": ms("qasm.emit"),
            "qasm.parse_ms": ms("qasm.parse"),
            "statevector.run_ms": ms("statevector"),
            "encodings.ms": ms("encodings"),
            "cli.self_ms": ms("cli"),
            "bench.self_ms": ms("bench"),
            "gc.pause_ms": 1e3 * self.gc_pause_s / ops,
        }
        counts = {
            "converters.gates_out": totals.get("converters.gates_out", 0),
            "dicke.gates_out": totals.get("dicke.gates_out", 0),
            "circuit.gates_layered": totals.get("circuit.cost.gates_layered", 0),
            "decompose.gates_in": totals.get("decompose.gates_in", 0),
            "decompose.gates_out": totals.get("decompose.gates_out", 0),
            "decompose.mcx_in": totals.get("decompose.mcx_in", 0),
            "qasm.bytes": totals.get("qasm.emit.bytes", 0),
            "statevector.gates_applied": totals.get("statevector.gates_applied", 0),
            "statevector.computed_bytes": totals.get("statevector.computed_bytes", 0),
            "gc.collections_gen2": self.gc_collections[2],
        }
        derived = {
            "converters.ns_per_gate": 1e9 * ratio(layer_s.get("converters", 0.0), counts["converters.gates_out"]),
            "decompose.expansion_ratio": ratio(counts["decompose.gates_out"], counts["decompose.gates_in"]),
            "qasm.parse_mb_per_s": ratio(totals.get("qasm.parse.bytes", 0), parse_s) / 1e6,
            "statevector.us_per_gate": 1e6 * ratio(run_s, counts["statevector.gates_applied"]),
            "statevector.support_ratio": ratio(
                totals.get("statevector.nonzero", 0), totals.get("statevector.amplitudes", 0)
            ),
            "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        }
        return {**per_op_ms, **counts, **derived}

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as out:
            for span, own in zip(self.spans, self.self_times()):
                record = {
                    "name": span.name, "layer": span.layer, "op": span.op, "parent": span.parent,
                    "start": span.start, "end": span.end, "self": own, **span.counts,
                }
                out.write(json.dumps(record) + "\n")
