"""Every circuit's gates fit its register, checked here rather than by Circuit.

Built and derived circuits (the builders, compose, inverse, remap and
lowering) skip Circuit's width scan, so this test scans them: each gate's
qubits lie in [0, num_qubits), and its controls are distinct and differ
from its target. The converters of every direction, binary-to-onehot
included, and the binomial pipeline are scanned too.

Builders, Gate.inverse and lowering make their gates without Gate's checks,
so each scanned gate is also rebuilt through Gate(): the checked constructor
must accept its fields and give back an equal gate, with int qubits and a
finite float angle or none.
"""

from __future__ import annotations

import math
from operator import attrgetter

import pytest

from edick import (
    BinomialSpec,
    Circuit,
    Direction,
    EncodingKind,
    EvenMethod,
    Gate,
    build_adder,
    build_binomial_pipeline,
    build_cnot_stair,
    build_converter,
    build_dicke_unitary,
    build_scs,
    cnot,
    compose,
    decompose_to_basis,
    inverse,
    remap,
    x,
)

SIZES = (*range(2, 12), 16, 17, 31, 32, 33, 63, 64)
TRIALS = (*range(2, 10), 33, 64)


def assert_fits(circuit: Circuit) -> None:
    n = circuit.num_qubits
    assert n >= 1
    targets = list(map(attrgetter("target"), circuit.gates))
    controls = list(map(attrgetter("controls"), circuit.gates))
    qubits = targets + [q for cs in controls for q in cs]
    assert not qubits or (min(qubits) >= 0 and max(qubits) < n), circuit.label
    for t, cs in zip(targets, controls):
        assert not cs or (t not in cs and len(set(cs)) == len(cs)), (circuit.label, t, cs)
    for g in {id(g): g for g in circuit.gates}.values():  # by object: 1.0 == 1 and -0.0 == 0.0
        assert Gate(g.kind, g.target, g.controls, g.angle) == g, (circuit.label, g)
        assert type(g.target) is int and all(type(q) is int for q in g.controls), (circuit.label, g)
        angle = g.angle
        assert angle is None or (type(angle) is float and math.isfinite(angle)), (circuit.label, g)


def assert_derived_fit(circuit: Circuit) -> None:
    """What compose, inverse and remap derive from a circuit."""
    n = circuit.num_qubits
    assert_fits(compose(circuit, inverse(circuit)))
    assert_fits(remap(circuit, [n - q for q in range(n)], n + 1))


def converters(n: int):
    yield build_cnot_stair(n)
    for direction in Direction:
        for method in EvenMethod:
            yield build_converter(direction, n, method)[0]


@pytest.mark.parametrize("n", SIZES)
def test_builder_circuits_fit_their_registers(n: int) -> None:
    for circuit in converters(n):
        assert_derived_fit(circuit)
    assert_derived_fit(build_dicke_unitary(n))
    assert_derived_fit(build_scs(n, n - 1))
    assert_derived_fit(build_adder(n.bit_length(), n))


@pytest.mark.parametrize("n", SIZES)
def test_lowered_circuits_fit_their_registers(n: int) -> None:
    for circuit in converters(n):
        assert_fits(decompose_to_basis(circuit))


@pytest.mark.parametrize("target", list(EncodingKind), ids=lambda kind: kind.value)
def test_binomial_pipelines_fit_their_registers(target: EncodingKind) -> None:
    for n in TRIALS:
        for method in EvenMethod:
            circuit, plan = build_binomial_pipeline(
                BinomialSpec.from_probability(n, 0.37, target, method)
            )
            assert circuit.num_qubits == plan.total_qubits
            assert_fits(circuit)
            assert_fits(decompose_to_basis(circuit))


def test_remap_refuses_images_outside_the_register() -> None:
    c = Circuit(3, (cnot(0, 1),))
    with pytest.raises(ValueError):
        remap(c, {0: 0, 1: 1, 2: 3}, 3)  # qubit 2 has no gate
    with pytest.raises(ValueError):
        remap(c, [0, 1, 7], 4)
    with pytest.raises(ValueError):
        remap(c, {0: 0, 1: 1, 2: -1}, 3)  # negative, on an unused qubit
    with pytest.raises(ValueError):
        remap(c, [-1, 0, 1], 3)
    with pytest.raises(ValueError):
        remap(Circuit(1, (x(0),)), [0], 0)
    with pytest.raises(ValueError):
        remap(c, [0, 1, 2], -2)


@pytest.mark.parametrize("image", [1.0, True, "1"], ids=repr)
def test_remap_refuses_images_that_are_not_integers(image: object) -> None:
    c = Circuit(3, (cnot(0, 1),))
    with pytest.raises(ValueError, match="integers"):
        remap(c, [0, image, 2], 3)  # qubit 1 carries the gate's target
    with pytest.raises(ValueError, match="integers"):
        remap(c, {0: 0, 1: 2, 2: image}, 3)  # qubit 2 has no gate
