"""Basis-gate lowering: every rewrite must equal its source gate exactly."""

from __future__ import annotations

import numpy as np
import pytest

from edick import (
    Circuit,
    GateKind,
    Statevector,
    ccry,
    cnot,
    cphase,
    cry,
    decompose_gate,
    decompose_to_basis,
    emit_text,
    h,
    mcx,
    run,
    ry,
    toffoli,
    x,
)
from edick.decompose import _PRIMITIVE

ANGLES = [0.3, 1.1, -0.8, np.pi / 2]


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
    lowered = unitary_of(Circuit(width, tuple(decompose_gate(gate))))
    np.testing.assert_allclose(lowered, native, atol=1e-13)


def test_primitives_pass_through_unchanged() -> None:
    for gate in (x(0), h(1), cnot(0, 1), cphase(0.4, 0, 1)):
        if gate.kind in _PRIMITIVE:
            assert decompose_gate(gate) == [gate]


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
    gates = decompose_gate(toffoli(0, 1, 2))
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
    gates = decompose_gate(cphase(lam, 0, 1))
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
    expected = Circuit(3, tuple(g for gate in gates for g in decompose_gate(gate)))
    assert emit_text(decompose_to_basis(Circuit(3, gates))) == emit_text(expected)


def _cry_by_gates(theta: float, c: int, t: int) -> list:
    half = theta / 2.0
    return [ry(half, t), cnot(c, t), ry(-half, t), cnot(c, t)]


def _ccry_by_gates(theta: float, c0: int, c1: int, t: int) -> list:
    half = theta / 2.0
    return (
        _cry_by_gates(half, c1, t) + [cnot(c0, c1)]
        + _cry_by_gates(-half, c1, t) + [cnot(c0, c1)]
        + _cry_by_gates(half, c0, t)
    )


def _exact(gates) -> list:
    return [(g.kind, g.target, g.controls, None if g.angle is None else g.angle.hex()) for g in gates]


@pytest.mark.parametrize("theta", [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 0.7, -2.9])
def test_shared_template_rotations_match_the_gate_by_gate_expansion(theta: float) -> None:
    # The CRY and CCRY templates reuse one RY object per value and sign of zero.
    assert _exact(decompose_gate(cry(theta, 0, 1))) == _exact(_cry_by_gates(theta, 0, 1))
    expected = _ccry_by_gates(theta, 2, 0, 1)
    assert _exact(decompose_gate(ccry(theta, 2, 0, 1))) == _exact(expected)
    lowered = decompose_to_basis(Circuit(3, (ccry(theta, 2, 0, 1), cry(theta, 0, 1))))
    assert _exact(lowered.gates) == _exact(expected + _cry_by_gates(theta, 0, 1))


def test_repeated_gates_lower_like_their_first_copy() -> None:
    gates = (toffoli(0, 1, 2), mcx([0, 1, 2], 3), cphase(0.4, 1, 3))
    gates += gates
    lowered = decompose_to_basis(Circuit(4, gates))
    assert lowered.gates == tuple(g for gate in gates for g in decompose_gate(gate))


def test_a_circuit_with_nothing_to_lower_is_returned_as_it_is() -> None:
    source = Circuit(2, (h(0), cnot(0, 1), x(1)), label="basis")
    assert decompose_to_basis(source) is source
