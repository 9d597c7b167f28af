"""Basis-gate lowering: every rewrite must equal its source gate exactly."""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
import pytest

from edick import (
    BinomialSpec,
    Circuit,
    Direction,
    EncodingKind,
    EvenMethod,
    GateKind,
    Granularity,
    Statevector,
    build_binomial_pipeline,
    build_converter,
    ccry,
    cnot,
    cost,
    cphase,
    cry,
    decompose_to_basis,
    emit_text,
    h,
    mcx,
    run,
    run_rows,
    ry,
    toffoli,
    x,
    zero_state,
)
from edick.decompose import _PRIMITIVE, _borrowed

ANGLES = [0.3, 1.1, -0.8, np.pi / 2]


def _lowered(gate) -> list:
    """`gate` lowered alone, on a register of its own qubits."""
    return list(decompose_to_basis(Circuit(max(gate.qubits) + 1, (gate,))).gates)


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Column j is the circuit applied to basis state j."""
    dim = 1 << circuit.num_qubits
    columns = []
    for j in range(dim):
        amps = np.zeros(dim, dtype=np.complex128)
        amps[j] = 1.0
        columns.append(np.asarray(run(Statevector(circuit.num_qubits, amps), circuit).amplitudes))
    return np.stack(columns, axis=1)


def assert_same_unitary(gate, width: int) -> None:
    native = unitary_of(Circuit(width, (gate,)))
    lowered = unitary_of(Circuit(width, tuple(_lowered(gate))))
    np.testing.assert_allclose(lowered, native, atol=1e-13)


def test_primitives_pass_through_unchanged() -> None:
    for gate in (x(0), h(1), cnot(0, 1), cphase(0.4, 0, 1)):
        if gate.kind in _PRIMITIVE:
            assert _lowered(gate) == [gate]


@pytest.mark.parametrize("theta", ANGLES)
def test_cry_lowering_is_exact(theta: float) -> None:
    assert_same_unitary(cry(theta, 0, 1), 2)
    assert_same_unitary(cry(theta, 1, 0), 2)


@pytest.mark.parametrize("theta", ANGLES)
def test_ccry_lowering_is_exact(theta: float) -> None:
    assert_same_unitary(ccry(theta, 0, 1, 2), 3)
    assert_same_unitary(ccry(theta, 2, 0, 1), 3)


def test_toffoli_lowering_is_exact_and_sized() -> None:
    assert_same_unitary(toffoli(0, 1, 2), 3)
    gates = _lowered(toffoli(0, 1, 2))
    assert len(gates) == 15
    assert sum(1 for g in gates if g.kind is GateKind.CNOT) == 6


@pytest.mark.parametrize("controls", [3, 4, 5])
def test_mcx_lowering_is_exact(controls: int) -> None:
    gate = mcx(list(range(controls)), controls)
    assert_same_unitary(gate, controls + 1)


def test_lowered_circuits_contain_only_basis_gates() -> None:
    source = Circuit(4, (cry(0.5, 0, 1), ccry(0.2, 1, 2, 3), mcx([0, 1, 2], 3)))
    lowered = decompose_to_basis(source)
    assert all(g.kind in _PRIMITIVE for g in lowered.gates)
    np.testing.assert_allclose(unitary_of(lowered), unitary_of(source), atol=1e-12)


def test_decompose_to_basis_keeps_width_and_label() -> None:
    source = Circuit(3, (toffoli(0, 1, 2),), label="t")
    lowered = decompose_to_basis(source)
    assert lowered.num_qubits == 3
    assert lowered.label == "t"


def test_lowering_a_basis_circuit_changes_nothing() -> None:
    source = Circuit(2, (h(0), cnot(0, 1), x(1)))
    assert decompose_to_basis(source).gates == source.gates


@pytest.mark.parametrize("lam", ANGLES)
def test_cphase_lowering_is_exact(lam: float) -> None:
    assert_same_unitary(cphase(lam, 0, 1), 2)
    gates = _lowered(cphase(lam, 0, 1))
    assert len(gates) == 5


def test_lowering_keeps_the_sign_of_zero_angles() -> None:
    # cry(0.0) and cry(-0.0) compare equal but lower to ry(0.0), ry(-0.0) and
    # ry(-0.0), ry(0.0): a lowering that reused one for the other would print wrong.
    gates = (
        cry(0.0, 0, 1),
        cry(-0.0, 0, 1),
        ccry(0.0, 0, 1, 2),
        ccry(-0.0, 0, 1, 2),
        cry(0.0, 0, 1),
        ccry(-0.0, 0, 1, 2),
    )
    assert gates[0] == gates[1] and gates[2] == gates[3]
    expected = Circuit(3, tuple(g for gate in gates for g in _lowered(gate)))
    assert emit_text(decompose_to_basis(Circuit(3, gates))) == emit_text(expected)


def _cry_by_gates(theta: float, c: int, t: int) -> list:
    half = theta / 2.0
    return [ry(half, t), cnot(c, t), ry(-half, t), cnot(c, t)]


def _ccry_by_gates(theta: float, c0: int, c1: int, t: int) -> list:
    # The RY multiplexor with angles (0, 0, 0, theta) on (c0, c1).
    quarter = theta / 2.0 / 2.0
    return [
        ry(quarter, t), cnot(c0, t), ry(-quarter, t), cnot(c1, t),
        ry(quarter, t), cnot(c0, t), ry(-quarter, t), cnot(c1, t),
    ]


def _exact(gates) -> list:
    return [(g.kind, g.target, g.controls, None if g.angle is None else g.angle.hex()) for g in gates]


@pytest.mark.parametrize("theta", [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 0.7, -2.9])
def test_shared_template_rotations_match_the_gate_by_gate_expansion(theta: float) -> None:
    # The CRY and CCRY templates reuse one RY object per value and sign of zero.
    assert _exact(_lowered(cry(theta, 0, 1))) == _exact(_cry_by_gates(theta, 0, 1))
    expected = _ccry_by_gates(theta, 2, 0, 1)
    assert _exact(_lowered(ccry(theta, 2, 0, 1))) == _exact(expected)
    lowered = decompose_to_basis(Circuit(3, (ccry(theta, 2, 0, 1), cry(theta, 0, 1))))
    assert _exact(lowered.gates) == _exact(expected + _cry_by_gates(theta, 0, 1))


def _dense_ccry(theta: float, c0: int, c1: int, t: int) -> np.ndarray:
    # RY(theta) on t wherever c0 and c1 are both 1; qubit 0 is the highest bit.
    bit = {q: 1 << (2 - q) for q in range(3)}
    cos, sin = math.cos(theta / 2), math.sin(theta / 2)
    u = np.eye(8, dtype=np.complex128)
    for j in range(8):
        if j & bit[c0] and j & bit[c1] and not j & bit[t]:
            k = j | bit[t]
            u[j, j], u[j, k], u[k, j], u[k, k] = cos, -sin, sin, cos
    return u


@pytest.mark.parametrize("theta", [0.0, -0.0, 5e-324, -5e-324, 0.7, -2.9, math.pi])
def test_ccry_lowering_equals_the_dense_ccry_in_every_qubit_order(theta: float) -> None:
    for c0, c1, t in itertools.permutations(range(3)):
        lowered = unitary_of(Circuit(3, tuple(_lowered(ccry(theta, c0, c1, t)))))
        np.testing.assert_allclose(lowered, _dense_ccry(theta, c0, c1, t), rtol=0, atol=1e-15)


def test_a_lowered_ccry_is_eight_gates_over_two_ry_and_two_cnot_objects() -> None:
    gates = decompose_to_basis(Circuit(3, (ccry(0.7, 2, 0, 1),))).gates
    assert len(gates) == 8
    for kind in (GateKind.RY, GateKind.CNOT):
        assert len({id(g) for g in gates if g.kind is kind}) == 2
    for theta in (0.0, -0.0):
        signs = {math.copysign(1.0, g.angle) for g in _lowered(ccry(theta, 0, 1, 2))
                 if g.kind is GateKind.RY}
        assert signs == {1.0, -1.0}


def test_lowered_toffolis_share_one_h_and_one_phase_object_per_qubit_and_sign() -> None:
    # The MCX lowers to a chain of Toffolis over the idle qubits 5 and 6.
    circuit = Circuit(7, (toffoli(0, 1, 2), toffoli(2, 1, 0), toffoli(3, 4, 2),
                          mcx((0, 1, 2, 3), 4), toffoli(0, 1, 2)))
    calls = []
    for _ in range(2):
        gates = decompose_to_basis(circuit).gates
        assert len(gates) == 15 * (4 + 8)
        objects: dict[tuple, set[int]] = {}
        for g in gates:
            if g.kind is not GateKind.CNOT:
                objects.setdefault((g.kind, g.target, g.angle), set()).add(id(g))
        assert {(kind, angle) for kind, _, angle in objects} == {
            (GateKind.H, None), (GateKind.PHASE, math.pi / 4), (GateKind.PHASE, -math.pi / 4)
        }
        assert all(len(ids) == 1 for ids in objects.values())  # one per qubit, kind and sign
        calls.append((gates, set().union(*objects.values())))  # the gates keep their ids apart
    assert not calls[0][1] & calls[1][1]  # no table outlives its call
    lone = [g for g in _lowered(toffoli(0, 1, 2)) if g.kind is not GateKind.CNOT]
    assert len(lone) == 9
    assert len({id(g) for g in lone}) == len(set(lone)) == 6


@pytest.mark.parametrize("method", list(EvenMethod))
@pytest.mark.parametrize("target", list(EncodingKind))
def test_lowered_binomial_pipelines_prepare_the_logical_state(
    target: EncodingKind, method: EvenMethod
) -> None:
    for n in (2, 3, 5, 8, 12):
        circuit, _ = build_binomial_pipeline(BinomialSpec.from_probability(n, 0.37, target, method))
        start = zero_state(circuit.num_qubits)
        np.testing.assert_allclose(
            run(start, decompose_to_basis(circuit)).amplitudes,
            run(start, circuit).amplitudes,
            rtol=0,
            atol=1e-12,
        )


def test_lowered_edick_binomial_size_has_its_closed_form() -> None:
    # n RYs, n-1 CRYs of 4 gates plus 2 CNOTs each, and (n-1)(n-2)/2 CCRYs of 8
    # gates plus 2 CNOTs each.
    for n in range(2, 65):
        spec = BinomialSpec.from_probability(n, 0.37, EncodingKind.EDICK, EvenMethod.RECURSION)
        circuit, _ = build_binomial_pipeline(spec)
        size = cost(circuit, Granularity.TWO_QUBIT_BASIS).size
        assert size == n + 6 * (n - 1) + 5 * (n - 1) * (n - 2), n


def test_repeated_gates_lower_like_their_first_copy() -> None:
    gates = (toffoli(0, 1, 2), mcx([0, 1, 2], 3), cphase(0.4, 1, 3))
    gates += gates
    lowered = decompose_to_basis(Circuit(4, gates))
    assert lowered.gates == tuple(g for gate in gates for g in _lowered(gate))


def test_a_circuit_with_nothing_to_lower_is_returned_as_it_is() -> None:
    source = Circuit(2, (h(0), cnot(0, 1), x(1)), label="basis")
    assert decompose_to_basis(source) is source


def _random_state(width: int, rng: np.random.Generator) -> Statevector:
    amps = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
    return Statevector(width, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_borrowed_qubit_mcx_matches_the_dense_mcx(k: int) -> None:
    # k controls, a target, the k-2 qubits to borrow and one spare, shuffled;
    # every qubit of the random states, borrowed ones included, is in superposition.
    rng = np.random.default_rng(k)
    width = 2 * k
    order = [int(q) for q in rng.permutation(width)]
    gate = mcx(order[:k], order[k])
    source = Circuit(width, (gate,))
    lowered = decompose_to_basis(source)
    assert len(lowered.gates) == 4 * (k - 2) * 15
    touched = {q for g in lowered.gates for q in g.qubits}
    assert touched == {*gate.qubits, *_borrowed(gate.controls, gate.target, width)}
    for _ in range(3):
        state = _random_state(width, rng)
        np.testing.assert_allclose(
            run(state, lowered).amplitudes, run(state, source).amplitudes, rtol=0, atol=1e-13
        )


def test_borrowed_qubits_are_the_idle_ones_nearest_the_target() -> None:
    # Inside the span 2..12, by distance to 5, ties to the lower index.
    assert _borrowed((2, 9, 11, 12), 5, 14) == [4, 6]
    assert _borrowed((2, 9, 11, 12, 13), 5, 14) == [4, 6, 3]
    # Too few inside: then the nearest outside the span.
    assert _borrowed((3, 4, 5, 6), 2, 9) == [1, 0]
    assert _borrowed((1, 3, 4, 5, 6), 7, 10) == [2, 8, 9]
    # What the register cannot supply is left short; width 0 (the inner gates of
    # the controlled-power recursion) borrows nothing.
    assert _borrowed((0, 1, 2, 3, 4), 5, 7) == [6]
    assert _borrowed((0, 2, 4), 6, 0) == []


def test_too_few_idle_qubits_keep_the_controlled_power_recursion() -> None:
    for k, width in ((3, 4), (4, 6), (5, 7), (6, 10)):
        gate = mcx(list(range(1, k + 1)), 0)
        lowered = decompose_to_basis(Circuit(width, (gate,)))
        assert lowered.gates == tuple(_lowered(gate))


def test_lone_mcx_lowering_is_unchanged() -> None:
    # On a register of its own qubits an MCX has no idle qubit to borrow.
    digest = hashlib.sha256()
    for k in range(3, 7):
        for gate in (mcx(list(range(k)), k), mcx(list(range(k, 0, -1)), 0)):
            digest.update(emit_text(Circuit(k + 1, tuple(_lowered(gate)))).encode())
    assert digest.hexdigest() == "0a8ad5ce8f31efbed0e913e8e2a0ad80b0e64bc6104a1f3f5ccb6e2dbd90d8be"


RECURSION_DIRECTIONS = ("edick-to-binary", "onehot-to-binary", "binary-to-onehot")


@pytest.mark.parametrize("direction", RECURSION_DIRECTIONS)
def test_lowered_recursion_maps_every_level_up_to_17_qubits(direction: str) -> None:
    n = 4
    while True:
        circuit, plan = build_converter(Direction(direction), n, EvenMethod.RECURSION)
        if plan.total_qubits > 17:
            break
        lowered = decompose_to_basis(circuit)
        inputs = [plan.input_index(level) for level in range(n)]
        outputs = [plan.output_index(level) for level in range(n)]
        block = run_rows(inputs, np.eye(n), lowered, outputs)
        for level in range(n):
            assert abs(block[level, level] - 1.0) < 1e-9, (n, level)
        n += 1
    assert n >= 18


@pytest.mark.parametrize("direction", RECURSION_DIRECTIONS)
def test_lowered_recursion_keeps_log_depth_at_1024_levels(direction: str) -> None:
    circuit, _ = build_converter(Direction(direction), 1024, EvenMethod.RECURSION)
    report = cost(circuit, Granularity.TWO_QUBIT_BASIS)
    assert report.depth <= 3000
    assert report.size <= 90000
