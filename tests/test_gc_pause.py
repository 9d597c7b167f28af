"""The cyclic garbage collector pauses while the library makes gate lists.

Every entry point that can make thousands of gates runs under
`circuit._acyclic`: the collector is off inside the call when it was on
before, and the call leaves it as it found it, on return and on error,
nested or from several threads at once. The pause is safe because no gate
list holds a reference cycle, which `test_gate_lists_hold_no_reference_cycles`
checks over every direction, method and pipeline target.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

import edick.circuit
import edick.converters
import edick.decompose
import edick.dicke
import edick.qasm
from edick import (
    BinomialSpec,
    Direction,
    EncodingKind,
    EvenMethod,
    build_adder,
    build_binomial_pipeline,
    build_converter,
    build_dicke_unitary,
    cost,
    decompose_to_basis,
    emit_text,
    inverse,
    parse_text,
    remap,
)
from edick.converters import ConverterPlan, _converter

SMALL, _ = build_converter(Direction.EDICK_TO_BINARY, 6, EvenMethod.RECURSION)
TEXT = emit_text(decompose_to_basis(SMALL))
SPEC = BinomialSpec(5, 0.3, EncodingKind.BINARY, EvenMethod.EXPAND_TO_POW2)

# Each wrapped entry point, called the way a library user would.
CALLS = {
    "inverse": lambda: inverse(SMALL),
    "remap": lambda: remap(SMALL, list(range(SMALL.num_qubits))[::-1], SMALL.num_qubits + 1),
    "_converter": lambda: _converter(ConverterPlan(9, EvenMethod.EXPAND_TO_POW2, Direction.ONEHOT_TO_BINARY)),
    "build_adder": lambda: build_adder(4, 3),
    "decompose_to_basis": lambda: decompose_to_basis(SMALL),
    "build_binomial_pipeline": lambda: build_binomial_pipeline(SPEC),
    "build_dicke_unitary": lambda: build_dicke_unitary(5),
    "parse_text": lambda: parse_text(TEXT),
    "parse_text, line path": lambda: parse_text(TEXT.replace("\n", "\n\n")),
}

# Calls that refuse their input after the pause has begun.
REFUSALS = {
    "parse_text": lambda: parse_text(TEXT + "cx q[0],q[0];\n"),
    "remap": lambda: remap(SMALL, [0] * SMALL.num_qubits, SMALL.num_qubits),
    "build_adder": lambda: build_adder(0, 1),
    "build_dicke_unitary": lambda: build_dicke_unitary(1),
}


@pytest.fixture
def collector():
    """Yields; restores the collector's state however the test ends."""
    was_enabled = gc.isenabled()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", CALLS)
def test_each_entry_point_leaves_the_collector_as_it_found_it(collector, name: str, enabled: bool) -> None:
    (gc.enable if enabled else gc.disable)()
    CALLS[name]()
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", REFUSALS)
def test_a_refusal_leaves_the_collector_as_it_found_it(collector, name: str, enabled: bool) -> None:
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(ValueError):
        REFUSALS[name]()
    assert gc.isenabled() is enabled


def _recording(real, seen: list[bool]):
    """`real`, appending to `seen` whether the collector is on at each call."""

    def spied(*args):
        seen.append(gc.isenabled())
        return real(*args)

    return spied


@pytest.mark.parametrize("name", CALLS)
def test_each_entry_point_runs_with_the_collector_off(
    collector, monkeypatch: pytest.MonkeyPatch, name: str
) -> None:
    # Every entry point makes its circuit through _derived or expands through _expand.
    seen: list[bool] = []
    for module in (edick.circuit, edick.converters, edick.decompose, edick.dicke, edick.qasm):
        monkeypatch.setattr(module, "_derived", _recording(edick.circuit._derived, seen))
    monkeypatch.setattr(edick.decompose, "_expand", _recording(edick.decompose._expand, seen))
    gc.enable()
    CALLS[name]()
    assert seen and not any(seen)
    assert gc.isenabled()


def test_lowering_runs_paused_and_the_pipeline_resumes(collector, monkeypatch: pytest.MonkeyPatch) -> None:
    seen: list[bool] = []
    monkeypatch.setattr(edick.decompose, "_expand", _recording(edick.decompose._expand, seen))
    gc.enable()
    circuit, _ = build_binomial_pipeline(SPEC)
    assert gc.isenabled()
    cost(circuit, edick.circuit.Granularity.TWO_QUBIT_BASIS)
    assert seen and not any(seen)
    assert gc.isenabled()


def test_each_wrapped_function_keeps_its_name() -> None:
    # bench/spans.py names its spans by __module__ and __name__.
    for module, name in [(edick.circuit, "inverse"), (edick.circuit, "remap"),
                         (edick.converters, "_converter"), (edick.converters, "build_adder"),
                         (edick.decompose, "decompose_to_basis"), (edick.dicke, "build_binomial_pipeline"),
                         (edick.dicke, "build_dicke_unitary"), (edick.qasm, "parse_text")]:
        function = getattr(module, name)
        assert (function.__module__, function.__name__) == (module.__name__, name)
        assert function.__wrapped__.__name__ == name


def _every_converter_and_pipeline() -> None:
    for direction in Direction:
        for method in EvenMethod:
            circuit, _ = build_converter(direction, 12, method)
            lowered = decompose_to_basis(inverse(circuit))
            assert parse_text(emit_text(lowered)).gates == lowered.gates
    for target in EncodingKind:
        circuit, _ = build_binomial_pipeline(BinomialSpec(6, 0.4, target, EvenMethod.RECURSION))
        parse_text(emit_text(decompose_to_basis(circuit)))


def test_gate_lists_hold_no_reference_cycles(collector) -> None:
    # The pause's premise: with the collector off, nothing the library built is left for it.
    # Once first: a process's first bulk parse leaves about 300 objects in cycles, closures
    # that inspect makes when numpy reads a function signature the first time it is called.
    _every_converter_and_pipeline()
    gc.collect()
    gc.disable()
    _every_converter_and_pipeline()
    assert gc.collect() == 0


def _work(count: int) -> list:
    results = []
    for n in range(5, 5 + count):
        circuit, _ = build_converter(Direction.ONEHOT_TO_BINARY, n, EvenMethod.RECURSION)
        lowered = decompose_to_basis(circuit)
        results.append((circuit.gates, lowered.gates, parse_text(emit_text(lowered)).gates))
    return results


def test_threads_building_at_once_leave_the_collector_on(collector) -> None:
    gc.enable()
    expected = _work(12)
    results: dict[int, list] = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        threads = [threading.Thread(target=lambda i=i: results.__setitem__(i, [_work(12) for _ in range(3)]))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(results) == [0, 1, 2, 3]
    assert all(rounds == [expected] * 3 for rounds in results.values())
    assert gc.isenabled()
