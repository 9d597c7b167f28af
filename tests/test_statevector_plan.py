"""Re-simulation plan of `run`: fused permutation gathers are exact and opt-in by reuse."""

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
    toffoli,
    x,
)
from edick import statevector
from edick.cli import _DIRECTION_CHOICES, _resolve
from edick.encodings import random_vector


@pytest.fixture
def plans(monkeypatch: pytest.MonkeyPatch) -> list[list]:
    """Every plan `run` builds while the test runs, in build order."""
    built: list[list] = []
    fuse = statevector._fuse

    def recording(circuit: Circuit) -> list:
        built.append(fuse(circuit))
        return built[-1]

    monkeypatch.setattr(statevector, "_fuse", recording)
    return built


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
def test_rerun_of_one_circuit_is_bit_identical_to_its_first_run(
    direction: str, method: EvenMethod, plans: list[list]
) -> None:
    gathers = 0
    for n in range(2, 13):
        circuit, inputs = _contract_inputs(direction, n, method)
        # A fresh equal circuit per input is always a first run: gate by gate.
        unfused = [run(s, Circuit(circuit.num_qubits, circuit.gates)).amplitudes for s in inputs]
        assert plans == []
        first = run(inputs[0], circuit).amplitudes
        assert np.array_equal(first, unfused[0])
        for i, (state, expected) in enumerate(zip(inputs, unfused)):
            assert np.array_equal(run(state, circuit).amplitudes, expected), (n, i)
        assert len(plans) == 1
        gathers += sum(isinstance(step, np.ndarray) for _, step in plans.pop())
    assert gathers > 0


def test_one_shot_runs_and_equal_copies_never_build_a_plan(plans: list[list]) -> None:
    circuit, _, level_in, _ = _resolve("onehot-to-binary", 9, EvenMethod.EXPAND_TO_POW2)
    copy = Circuit(circuit.num_qubits, circuit.gates, circuit.label)
    state = basis_state(circuit.num_qubits, level_in(4))
    run(state, circuit)
    assert plans == []
    for _ in range(3):  # equal gates, different object: each run is a first run
        run(state, copy)
        run(state, circuit)
    assert plans == []
    run(state, circuit)
    assert len(plans) == 1
    assert any(isinstance(step, np.ndarray) for _, step in plans[0])


def _drifting_h(monkeypatch: pytest.MonkeyPatch) -> None:
    apply = statevector._apply_inplace

    def drifting(tensor, gate, num_qubits):
        apply(tensor, gate, num_qubits)
        if gate.kind is GateKind.H:
            tensor *= 1.001

    monkeypatch.setattr(statevector, "_apply_inplace", drifting)


def test_norm_drift_is_reported_on_first_and_fused_runs(
    monkeypatch: pytest.MonkeyPatch, plans: list[list]
) -> None:
    gate = h(2)
    circuit = Circuit(3, (x(0), cnot(0, 1), gate, cnot(1, 2), toffoli(0, 1, 2)))
    _drifting_h(monkeypatch)
    for _ in range(3):
        with pytest.raises(AssertionError, match=re.escape(f"after {gate}")):
            run(basis_state(3, 0), circuit)
    assert len(plans) == 1
    assert [type(step) for _, step in plans[0]] == [np.ndarray, Gate, np.ndarray]


def test_norm_drift_in_a_gather_names_its_gate_range(plans: list[list]) -> None:
    circuit = Circuit(3, (x(0), cnot(0, 1), h(2), cnot(1, 2), toffoli(0, 1, 2)))
    run(basis_state(3, 0), circuit)
    run(basis_state(3, 0), circuit)
    plans[0][-1][1][:] = 0  # every output amplitude now copies input amplitude 0
    with pytest.raises(AssertionError, match=re.escape("gates 3..4")):
        run(basis_state(3, 0), circuit)
