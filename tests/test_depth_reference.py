"""cost() against the dict-based greedy layering it replaced.

`_reference_depth` keeps, per qubit, the last layer that touched it in a
dict, and tracks the top layer as it goes; `cost` indexes a list by qubit
and takes the top layer at the end. Both must agree on every circuit, at
logical and at two-qubit-basis granularity.
"""

from __future__ import annotations

import random

import pytest

from edick import (
    BinomialSpec,
    Circuit,
    Direction,
    EncodingKind,
    EvenMethod,
    Gate,
    GateKind,
    Granularity,
    build_binomial_pipeline,
    build_converter,
    cost,
    decompose_to_basis,
)

SIZES = [*range(2, 41), 257, 513]


def _reference_depth(gates: tuple[Gate, ...]) -> int:
    free: dict[int, int] = {}
    top = 0
    for g in gates:
        layer = free.get(g.target, 0)
        for q in g.controls:
            if free.get(q, 0) > layer:
                layer = free[q]
        layer += 1
        free[g.target] = layer
        for q in g.controls:
            free[q] = layer
        if layer > top:
            top = layer
    return top


def _assert_depths_match(circuit: Circuit) -> None:
    logical = cost(circuit)
    assert (logical.depth, logical.size) == (_reference_depth(circuit.gates), len(circuit.gates))
    lowered = decompose_to_basis(circuit)
    basis = cost(circuit, Granularity.TWO_QUBIT_BASIS)
    assert (basis.depth, basis.size) == (_reference_depth(lowered.gates), len(lowered.gates))


@pytest.mark.parametrize("method", list(EvenMethod), ids=lambda m: m.value)
@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
def test_converter_depths_match_the_reference(direction: Direction, method: EvenMethod) -> None:
    for n in SIZES:
        _assert_depths_match(build_converter(direction, n, method)[0])


@pytest.mark.parametrize("target", list(EncodingKind), ids=lambda kind: kind.value)
def test_binomial_pipeline_depths_match_the_reference(target: EncodingKind) -> None:
    for method in EvenMethod:
        for n in range(2, 41):
            spec = BinomialSpec.from_probability(n, 0.37, target, method)
            _assert_depths_match(build_binomial_pipeline(spec)[0])


_ARITY = {
    GateKind.X: 0, GateKind.H: 0, GateKind.RY: 0, GateKind.PHASE: 0, GateKind.CNOT: 1,
    GateKind.CPHASE: 1, GateKind.CRY: 1, GateKind.CCRY: 2, GateKind.TOFFOLI: 2,
}
_ANGLED = {GateKind.RY, GateKind.PHASE, GateKind.CPHASE, GateKind.CRY, GateKind.CCRY}


@pytest.mark.parametrize("seed", range(20))
def test_random_circuits_with_mcx_match_the_reference(seed: int) -> None:
    rng = random.Random(seed)
    width = rng.randint(1, 12)
    gates = []
    for _ in range(rng.randint(0, 120)):
        kinds = [k for k in GateKind if _ARITY.get(k, 3) < width]
        kind = rng.choice(kinds)
        count = _ARITY[kind] if kind in _ARITY else rng.randint(3, width - 1)
        qubits = rng.sample(range(width), count + 1)
        angle = rng.uniform(-3.0, 3.0) if kind in _ANGLED else None
        gates.append(Gate(kind, qubits[0], tuple(qubits[1:]), angle))
    _assert_depths_match(Circuit(width, tuple(gates)))


def test_a_one_qubit_circuit_without_gates_has_depth_and_size_zero() -> None:
    for granularity in Granularity:
        report = cost(Circuit(1), granularity)
        assert (report.depth, report.size) == (0, 0)
