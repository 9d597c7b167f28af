"""Dense path of `run_batch`: fused permutation gathers are exact, and built once per call."""

from __future__ import annotations

import re

import numpy as np
import pytest

from edick import Circuit, EvenMethod, Gate, basis_state, cnot, h, run, toffoli, x
from edick import statevector
from edick.cli import _resolve
from edick.statevector import run_batch


@pytest.fixture
def plans(monkeypatch: pytest.MonkeyPatch) -> list[list]:
    """Every dense plan built while the test runs, in build order; no step is sparse."""
    built: list[list] = []
    make_plan = statevector._plan

    def recording(circuit: Circuit, fuse: bool) -> list:
        built.append(make_plan(circuit, fuse))
        return built[-1]

    monkeypatch.setattr(statevector, "_plan", recording)
    monkeypatch.setattr(statevector, "_sparse_pays", lambda rows, states, size: False)
    return built


def test_fused_plan_is_built_once_per_call_and_only_for_several_states(plans: list[list]) -> None:
    circuit, _, level_in, _ = _resolve("onehot-to-binary", 11, EvenMethod.EXPAND_TO_POW2)
    states = [basis_state(circuit.num_qubits, level_in(level)) for level in range(11)]
    single = [run(s, circuit).amplitudes for s in states]
    assert len(plans) == 11
    assert not any(isinstance(step, np.ndarray) for plan in plans for _, _, step in plan)
    plans.clear()
    batched = [o.amplitudes for o in run_batch(states, circuit)]
    assert len(plans) == 1
    assert any(isinstance(step, np.ndarray) for _, _, step in plans[0])
    assert all(np.array_equal(a, b) for a, b in zip(batched, single, strict=True))


def test_plan_steps_start_at_their_first_gate() -> None:
    gates = (x(0), cnot(0, 1), h(2), cnot(1, 2), toffoli(0, 1, 2), x(1))
    plan = statevector._plan(Circuit(3, gates), fuse=True)
    assert [(start, type(step)) for start, _, step in plan] == [
        (0, np.ndarray), (2, Gate), (3, np.ndarray)
    ]
    assert plan[2][1] == "the gather of gates 3..5"
    unfused = statevector._plan(Circuit(3, gates), fuse=False)
    assert [(start, step) for start, _, step in unfused] == list(enumerate(gates))


def test_norm_drift_is_named_on_fused_and_gate_by_gate_plans(
    monkeypatch: pytest.MonkeyPatch, plans: list[list]
) -> None:
    mixed = statevector._mixed
    monkeypatch.setattr(
        statevector, "_mixed", lambda kind, angle, a, b: tuple(v * 1.001 for v in mixed(kind, angle, a, b))
    )
    gate = h(2)
    circuit = Circuit(3, (x(0), cnot(0, 1), gate, cnot(1, 2), toffoli(0, 1, 2)))
    for states in (1, 2):
        with pytest.raises(AssertionError, match=re.escape(f"after {gate}")):
            list(run_batch([basis_state(3, 0)] * states, circuit))
    assert [[type(step) for _, _, step in plan] for plan in plans] == [
        [Gate] * 5, [np.ndarray, Gate, np.ndarray]
    ]


def test_norm_drift_in_a_gather_names_its_gate_range(
    monkeypatch: pytest.MonkeyPatch, plans: list[list]
) -> None:
    make_plan = statevector._plan

    def corrupted(circuit: Circuit, fuse: bool) -> list:
        plan = make_plan(circuit, fuse)
        plan[-1][2][:] = 0  # every output amplitude now copies input amplitude 0
        return plan

    monkeypatch.setattr(statevector, "_plan", corrupted)
    circuit = Circuit(3, (x(0), cnot(0, 1), h(2), cnot(1, 2), toffoli(0, 1, 2)))
    with pytest.raises(AssertionError, match=re.escape("gates 3..4")):
        list(run_batch([basis_state(3, 0)] * 2, circuit))
