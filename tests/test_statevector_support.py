"""Support-restricted arithmetic steps of `run`: bit-identical to dense, and really taken."""

from __future__ import annotations

import re

import numpy as np
import pytest

from edick import (
    Circuit,
    EvenMethod,
    Gate,
    GateKind,
    Statevector,
    basis_state,
    cnot,
    h,
    run,
    x,
)
from edick import statevector
from edick.cli import _DIRECTION_CHOICES, _resolve
from edick.encodings import random_vector

_ALWAYS = -(1 << 40)  # every arithmetic step is restricted, whatever the support
_NEVER = 1 << 40  # no step is restricted


@pytest.fixture
def restricted(monkeypatch: pytest.MonkeyPatch) -> list[Gate]:
    """Every gate `run` applies on the restricted path while the test runs."""
    applied: list[Gate] = []
    apply = statevector._apply_on_support

    def counting(amps, gate, num_qubits, support, mark):
        applied.append(gate)
        return apply(amps, gate, num_qubits, support, mark)

    monkeypatch.setattr(statevector, "_apply_on_support", counting)
    return applied


def _random_gate(rng: np.random.Generator, num_qubits: int) -> Gate:
    kind = [GateKind.H, GateKind.RY, GateKind.PHASE, GateKind.CRY, GateKind.CPHASE, GateKind.CCRY][
        rng.integers(6)
    ]
    arity = {GateKind.CRY: 1, GateKind.CPHASE: 1, GateKind.CCRY: 2}.get(kind, 0)
    qubits = [int(q) for q in rng.permutation(num_qubits)[: arity + 1]]
    angle = None if kind is GateKind.H else float(rng.uniform(-np.pi, np.pi))
    return Gate(kind, qubits[0], tuple(qubits[1:]), angle)


def test_restricted_gates_equal_the_dense_kernel_on_random_sparse_states() -> None:
    n, rng = 6, np.random.default_rng(7)
    mark = np.zeros(1 << n, dtype=bool)
    met = {0: 0, 1: 0, 2: 0}  # pairs of an active gate with 0, 1 or 2 members in the support
    for _ in range(300):
        nonzero = rng.choice(1 << n, size=int(rng.integers(1, 12)), replace=False)
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[nonzero] = rng.normal(size=nonzero.size) + 1j * rng.normal(size=nonzero.size)
        amps /= np.linalg.norm(amps)
        # The support may hold indices whose amplitude is zero; it must hold every nonzero one.
        extra = rng.choice(1 << n, size=int(rng.integers(0, 4)), replace=False)
        support = np.union1d(nonzero, extra)
        rng.shuffle(support)
        for _ in range(4):  # the returned support feeds the next gate
            gate = _random_gate(rng, n)
            bit = 1 << (n - 1 - gate.target)
            controls = sum(1 << (n - 1 - c) for c in gate.controls)
            members = set(support.tolist())
            for low in range(1 << n):
                if low & bit == 0 and low & controls == controls:
                    met[(low in members) + (low | bit in members)] += 1
            dense = amps.copy()
            statevector._apply_inplace(dense.reshape([2] * n), gate, n)
            support = statevector._apply_on_support(amps, gate, n, support, mark)
            assert np.array_equal(amps, dense), gate
            assert set(np.flatnonzero(amps).tolist()) <= set(support.tolist()), gate
            assert np.unique(support).size == support.size
            assert not mark.any()
    assert min(met.values()) > 0, met


def _contract_inputs(direction: str, n: int, method: EvenMethod):
    circuit, total, level_in, _ = _resolve(direction, n, method)
    inputs = [basis_state(total, level_in(level)) for level in range(n)]
    rng = np.random.default_rng(n)
    for _ in range(3):
        amps = np.zeros(1 << total, dtype=np.complex128)
        for level, alpha in enumerate(random_vector(n, rng).alphas):
            amps[level_in(level)] = alpha
        inputs.append(Statevector(total, amps))
    return circuit, inputs


@pytest.mark.parametrize("method", list(EvenMethod), ids=lambda m: m.value)
@pytest.mark.parametrize("direction", _DIRECTION_CHOICES)
def test_restricted_runs_are_bit_identical_to_dense_runs(
    direction: str, method: EvenMethod, monkeypatch: pytest.MonkeyPatch, restricted: list[Gate]
) -> None:
    arithmetic = False
    for n in range(2, 13):
        circuit, inputs = _contract_inputs(direction, n, method)
        monkeypatch.setattr(statevector, "_RESTRICT_OVERHEAD", _NEVER)
        before = len(restricted)
        dense = [run(s, Circuit(circuit.num_qubits, circuit.gates)).amplitudes for s in inputs]
        assert len(restricted) == before
        monkeypatch.setattr(statevector, "_RESTRICT_OVERHEAD", _ALWAYS)
        for i, (state, expected) in enumerate(zip(inputs, dense)):
            # One circuit object: the first run goes gate by gate, later runs use its plan.
            assert np.array_equal(run(state, circuit).amplitudes, expected), (n, i)
        arithmetic |= any(g.kind not in statevector._PERMUTATIONS for g in circuit.gates)
    assert bool(restricted) == arithmetic


def test_default_rule_restricts_small_supports_and_stays_dense_once_too_wide(
    restricted: list[Gate],
) -> None:
    n = 15  # 2**15 amplitudes: restricted while 8 * |support| + 8192 < 32768
    layer = tuple(h(q) for q in range(n))
    # |+>^n is unchanged by X, so the second layer returns the state to a basis
    # state and the last three gates meet at most 8 amplitudes.
    circuit = Circuit(n, layer + (x(0), x(1)) + layer + (x(2), x(3)) + layer[:3])
    state = basis_state(n, 0)
    dense = state.amplitudes.copy()
    for gate in circuit.gates:
        statevector._apply_inplace(dense.reshape([2] * n), gate, n)
    assert np.count_nonzero(dense) == 8
    for _ in range(2):  # the first run, then the fused plan with its gathers
        assert np.array_equal(run(state, circuit).amplitudes, dense)
        # Supports 1, 2, ..., 2048 qualify; 4096 does not, and from there on
        # every step is dense, even once the support is small again.
        assert restricted == list(layer[:12])
        restricted.clear()


def test_norm_drift_is_reported_on_the_restricted_path(
    monkeypatch: pytest.MonkeyPatch, restricted: list[Gate]
) -> None:
    apply = statevector._apply_inplace

    def drifting(tensor, gate, num_qubits):
        apply(tensor, gate, num_qubits)
        if gate.kind is GateKind.H:
            tensor *= 1.001

    monkeypatch.setattr(statevector, "_apply_inplace", drifting)
    monkeypatch.setattr(statevector, "_RESTRICT_OVERHEAD", _ALWAYS)
    gate = h(2)
    circuit = Circuit(3, (x(0), cnot(0, 1), gate, cnot(1, 2)))
    for _ in range(3):  # the first run and fused runs
        with pytest.raises(AssertionError, match=re.escape(f"after {gate}")):
            run(basis_state(3, 0), circuit)
    assert restricted == [gate] * 3
