"""Encoding converters: staircase unfolding, binary compression, adder, stair."""

from __future__ import annotations

import numpy as np
import pytest

from edick import (
    Circuit,
    ConverterPlan,
    Direction,
    EvenMethod,
    GateKind,
    Statevector,
    basis_state,
    binary_width,
    build_adder,
    build_binary_to_onehot,
    build_cnot_stair,
    build_converter,
    build_edick_to_binary,
    build_edick_to_onehot,
    build_onehot_to_binary,
    cnot,
    cost,
    fidelity,
    inverse,
    random_vector,
    run,
)

METHODS = list(EvenMethod)


def hot_index(state: Statevector) -> int:
    """Index of the single occupied basis state, amplitude checked to be 1."""
    amps = np.asarray(state.amplitudes)
    (indices,) = np.nonzero(np.abs(amps) > 1e-9)
    assert len(indices) == 1
    index = int(indices[0])
    assert amps[index] == pytest.approx(1.0, abs=1e-9)
    return index


def staircase_in(level: int) -> int:
    """Level i of the unfolding input: i+1 right-aligned ones (flag attached)."""
    return (1 << (level + 1)) - 1


def test_binary_width_values() -> None:
    assert [binary_width(n) for n in (2, 3, 4, 5, 8, 9, 16, 17)] == [1, 2, 2, 3, 3, 4, 4, 5]
    with pytest.raises(ValueError):
        binary_width(1)


# -- staircase -> one-hot -----------------------------------------------------


def test_unfolding_gate_list_for_four_levels() -> None:
    circuit = build_edick_to_onehot(4)
    assert circuit.gates == (cnot(0, 1), cnot(2, 3), cnot(0, 2), cnot(1, 2))
    report = cost(circuit)
    assert (report.depth, report.size) == (3, 4)


def test_unfolding_trace_four_levels() -> None:
    # Level 2 input |0111>, intermediate states after each gate, output |0100>.
    circuit = build_edick_to_onehot(4)
    state = basis_state(4, 0b0111)
    seen = []
    for gate in circuit.gates:
        state = run(state, Circuit(4, (gate,)))
        seen.append(hot_index(state))
    assert seen == [0b0111, 0b0110, 0b0110, 0b0100]


def test_unfolding_trace_five_levels() -> None:
    circuit = build_edick_to_onehot(5)
    assert hot_index(run(basis_state(5, 0b11111), circuit)) == 0b10000


def test_unfolding_endpoints_four_levels() -> None:
    circuit = build_edick_to_onehot(4)
    assert hot_index(run(basis_state(4, 0b0001), circuit)) == 0b0001
    assert hot_index(run(basis_state(4, 0b1111), circuit)) == 0b1000
    back = inverse(circuit)
    assert hot_index(run(basis_state(4, 0b0001), back)) == 0b0001
    assert hot_index(run(basis_state(4, 0b1000), back)) == 0b1111


@pytest.mark.parametrize("num_levels", range(2, 13))
def test_unfolding_maps_every_level(num_levels: int) -> None:
    circuit = build_edick_to_onehot(num_levels)
    assert circuit.num_qubits == num_levels
    for level in range(num_levels):
        out = run(basis_state(num_levels, staircase_in(level)), circuit)
        assert hot_index(out) == 1 << level


def test_unfolding_is_linear_on_superpositions() -> None:
    num_levels = 6
    circuit = build_edick_to_onehot(num_levels)
    rng = np.random.default_rng(11)
    for _ in range(5):
        vector = random_vector(num_levels, rng)
        source = np.zeros(1 << num_levels, dtype=np.complex128)
        expected = np.zeros(1 << num_levels, dtype=np.complex128)
        for level, alpha in enumerate(vector.alphas):
            source[staircase_in(level)] = alpha
            expected[1 << level] = alpha
        out = run(Statevector(num_levels, source), circuit)
        assert fidelity(out, Statevector(num_levels, expected)) >= 1 - 1e-9


# -- CNOT stair baseline ------------------------------------------------------


@pytest.mark.parametrize("num_levels", range(3, 9))
def test_stair_matches_unfolding_action(num_levels: int) -> None:
    stair = build_cnot_stair(num_levels)
    for level in range(num_levels):
        out = run(basis_state(num_levels, staircase_in(level)), stair)
        assert hot_index(out) == 1 << level


@pytest.mark.parametrize("num_levels", range(3, 13))
def test_stair_costs_are_quadratic(num_levels: int) -> None:
    report = cost(build_cnot_stair(num_levels))
    assert report.size == num_levels * (num_levels - 1) // 2
    assert report.depth == 2 * num_levels - 3


# -- adder --------------------------------------------------------------------


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_adder_shifts_every_basis_state_exactly(num_qubits: int) -> None:
    dim = 1 << num_qubits
    for shift in range(dim):
        circuit = build_adder(num_qubits, shift)
        for source in range(dim):
            out = run(basis_state(num_qubits, source), circuit)
            # exact amplitude 1, so no global phase either
            assert hot_index(out) == (source + shift) % dim


def test_adder_inverse_subtracts() -> None:
    back = inverse(build_adder(3, 1))
    assert hot_index(run(basis_state(3, 0b100), back)) == 0b011


def test_adder_contains_only_fourier_gates() -> None:
    kinds = {g.kind for g in build_adder(4, 5).gates}
    assert kinds == {GateKind.H, GateKind.CPHASE, GateKind.PHASE}


# -- staircase -> binary ------------------------------------------------------


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("num_levels", range(2, 11))
def test_compression_maps_every_level(method: EvenMethod, num_levels: int) -> None:
    circuit, plan = build_edick_to_binary(num_levels, method)
    assert plan.total_qubits == circuit.num_qubits
    assert plan.num_levels == num_levels
    for level in range(num_levels):
        out = run(basis_state(plan.total_qubits, (1 << level) - 1), circuit)
        assert hot_index(out) == level


@pytest.mark.parametrize("method", METHODS)
def test_compression_seven_levels_end_states(method: EvenMethod) -> None:
    # Seven levels on six data qubits; every level lands on its binary index.
    circuit, plan = build_edick_to_binary(7, method)
    got = [
        hot_index(run(basis_state(plan.total_qubits, (1 << level) - 1), circuit))
        for level in range(7)
    ]
    assert got == [0, 1, 2, 3, 4, 5, 6]


def test_compression_is_linear_on_superpositions() -> None:
    rng = np.random.default_rng(23)
    for num_levels, method in [(6, EvenMethod.RECURSION), (7, EvenMethod.EXPAND_TO_POW2)]:
        circuit, plan = build_edick_to_binary(num_levels, method)
        total = plan.total_qubits
        for _ in range(5):
            vector = random_vector(num_levels, rng)
            source = np.zeros(1 << total, dtype=np.complex128)
            expected = np.zeros(1 << total, dtype=np.complex128)
            for level, alpha in enumerate(vector.alphas):
                source[(1 << level) - 1] = alpha
                expected[level] = alpha
            out = run(Statevector(total, source), circuit)
            assert fidelity(out, Statevector(total, expected)) >= 1 - 1e-9


def test_recursion_method_never_allocates_ancilla() -> None:
    for num_levels in range(2, 301):
        _, plan = build_edick_to_binary(num_levels, EvenMethod.RECURSION)
        assert plan.ancilla == 0
        assert plan.total_qubits == num_levels - 1


def test_pow2_method_ancilla_stays_below_levels() -> None:
    for num_levels in range(2, 301):
        _, plan = build_edick_to_binary(num_levels, EvenMethod.EXPAND_TO_POW2)
        assert plan.ancilla <= num_levels - 1


def test_pow2_method_adds_nothing_at_self_similar_sizes() -> None:
    for k in range(1, 9):
        _, plan = build_edick_to_binary(2**k + 1, EvenMethod.EXPAND_TO_POW2)
        assert plan.ancilla == 0


# -- one-hot <-> binary compositions ------------------------------------------


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("num_levels", range(3, 9))
def test_onehot_to_binary_levels(method: EvenMethod, num_levels: int) -> None:
    circuit, plan = build_onehot_to_binary(num_levels, method)
    for level in range(num_levels):
        out = run(basis_state(plan.total_qubits, 1 << level), circuit)
        assert hot_index(out) == (level << 1) | 1


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("num_levels", range(3, 9))
def test_binary_to_onehot_levels(method: EvenMethod, num_levels: int) -> None:
    circuit, plan = build_binary_to_onehot(num_levels, method)
    for level in range(num_levels):
        out = run(basis_state(plan.total_qubits, (level << 1) | 1), circuit)
        assert hot_index(out) == 1 << level


@pytest.mark.parametrize("num_levels", [3, 5, 6, 8])
def test_round_trip_preserves_random_vectors(num_levels: int) -> None:
    forward, plan = build_onehot_to_binary(num_levels, EvenMethod.RECURSION)
    loop = Circuit(plan.total_qubits, forward.gates + inverse(forward).gates)
    rng = np.random.default_rng(num_levels)
    for _ in range(5):
        vector = random_vector(num_levels, rng)
        source = np.zeros(1 << plan.total_qubits, dtype=np.complex128)
        for level, alpha in enumerate(vector.alphas):
            source[1 << level] = alpha
        start = Statevector(plan.total_qubits, source)
        assert fidelity(run(start, loop), start) >= 1 - 1e-9


def test_build_converter_dispatch() -> None:
    for direction in Direction:
        circuit, plan = build_converter(direction, 5)
        assert plan.direction is direction
        assert circuit.num_qubits == plan.total_qubits
    circuit, plan = build_converter(Direction.EDICK_TO_ONEHOT, 6)
    assert plan.method is None
    assert plan.ancilla == 0


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("direction", list(Direction))
def test_each_converter_scans_no_circuit(
    direction: Direction, method: EvenMethod, monkeypatch: pytest.MonkeyPatch
) -> None:
    # The gates come from checked arguments, so Circuit's width scan never runs.
    scanned = []
    post_init = Circuit.__post_init__

    def counting(self: Circuit) -> None:
        scanned.append(self.label)
        post_init(self)

    monkeypatch.setattr(Circuit, "__post_init__", counting)
    for num_levels in (2, 5, 8, 11, 20):
        build_converter(direction, num_levels, method)
    assert scanned == []


NAMED_BUILDERS = {
    Direction.EDICK_TO_ONEHOT: lambda n, m: build_edick_to_onehot(n),
    Direction.CNOT_STAIR: lambda n, m: build_cnot_stair(n),
    Direction.EDICK_TO_BINARY: build_edick_to_binary,
    Direction.ONEHOT_TO_BINARY: build_onehot_to_binary,
    Direction.BINARY_TO_ONEHOT: build_binary_to_onehot,
}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("direction", list(Direction))
def test_each_named_builder_is_build_converter_for_its_direction(
    direction: Direction, method: EvenMethod
) -> None:
    for num_levels in (2, 5, 8, 11, 20):
        circuit, plan = build_converter(direction, num_levels, method)
        named = NAMED_BUILDERS[direction](num_levels, method)
        if direction in (Direction.EDICK_TO_ONEHOT, Direction.CNOT_STAIR):
            named = (named, plan)  # these two return the circuit alone
        assert named[0].gates == circuit.gates
        assert named[0].num_qubits == circuit.num_qubits
        assert named[0].label == circuit.label
        assert named[1] == plan


@pytest.mark.parametrize("method", METHODS)
def test_compression_touches_every_ancilla_it_sizes(method: EvenMethod) -> None:
    # Too few ancillas would empty the free list; one too many would sit idle.
    for num_levels in range(2, 130):
        circuit, plan = build_edick_to_binary(num_levels, method)
        touched = {q for g in circuit.gates for q in g.qubits}
        assert set(range(plan.ancilla)) <= touched, num_levels


def test_builders_reject_tiny_level_counts() -> None:
    for builder in (build_edick_to_onehot, build_cnot_stair):
        with pytest.raises(ValueError):
            builder(1)
    with pytest.raises(ValueError):
        build_edick_to_binary(1)
    with pytest.raises(ValueError):
        build_adder(0, 1)


def test_plan_validation() -> None:
    with pytest.raises(ValueError):
        ConverterPlan(1, None, None)


def test_labels_name_the_conversion() -> None:
    assert build_edick_to_onehot(5).label == "edick_to_onehot_5"
    circuit, _ = build_edick_to_binary(6, EvenMethod.RECURSION)
    assert circuit.label == "edick_to_binary_6"
    circuit, _ = build_onehot_to_binary(4)
    assert circuit.label == "onehot_to_binary_4"
    circuit, _ = build_binary_to_onehot(4)
    assert circuit.label == "binary_to_onehot_4"
