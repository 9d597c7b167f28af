"""`run_batch`: each state's result equals `run` and dense gate-by-gate simulation, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

from edick import Circuit, Direction, EvenMethod, Statevector, basis_state, build_converter, run
from edick import statevector
from edick.encodings import random_vector

# `_sparse_pays` forced each way: every arithmetic step on the union, or none.
_RULES = {"sparse": lambda rows, states, size: True, "dense": lambda rows, states, size: False}


def _dense_reference(state: Statevector, circuit: Circuit) -> np.ndarray:
    n, amps = circuit.num_qubits, state.amplitudes.copy()
    for gate in circuit.gates:
        statevector._apply_inplace(amps.reshape([2] * n), gate, n)
    return amps


def _contract(direction: Direction, n: int, method: EvenMethod):
    """The circuit, its inputs (every level, then three random vectors) and a score per output."""
    circuit, plan = build_converter(direction, n, method)
    total = plan.total_qubits
    inputs = [basis_state(total, plan.input_index(level)) for level in range(n)]
    scores = [lambda amps, k=plan.output_index(level): float(abs(amps[k])) for level in range(n)]
    rng = np.random.default_rng(n)
    for _ in range(3):
        alphas = random_vector(n, rng).alphas
        source = np.zeros(1 << total, dtype=np.complex128)
        expected = np.zeros(1 << total, dtype=np.complex128)
        for level, alpha in enumerate(alphas):
            source[plan.input_index(level)] = alpha
            expected[plan.output_index(level)] = alpha
        inputs.append(Statevector(total, source))
        scores.append(lambda amps, e=expected: float(abs(np.vdot(amps, e))))
    return circuit, inputs, scores


@pytest.mark.parametrize("method", list(EvenMethod), ids=lambda m: m.value)
@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
def test_run_batch_equals_per_state_runs_bit_for_bit(
    direction: Direction, method: EvenMethod, monkeypatch: pytest.MonkeyPatch
) -> None:
    dense: list[int] = []  # the gates each dense state has left
    go_dense = statevector._dense

    def recording(amps, gates, num_qubits):
        dense.append(len(gates))
        return go_dense(amps, gates, num_qubits)

    for n in range(2, 13):
        circuit, inputs, scores = _contract(direction, n, method)
        arithmetic = [k for k, g in enumerate(circuit.gates) if g.kind not in statevector._PERMUTATIONS]
        reference = [_dense_reference(s, circuit) for s in inputs]
        fidelities = [score(amps).hex() for score, amps in zip(scores, reference)]
        for i, state in enumerate(inputs):
            assert np.array_equal(run(state, circuit).amplitudes, reference[i]), (n, i)
        for rule in _RULES:
            for chunk in (statevector._CHUNK, 1):
                monkeypatch.setattr(statevector, "_sparse_pays", _RULES[rule])
                monkeypatch.setattr(statevector, "_CHUNK", chunk)
                monkeypatch.setattr(statevector, "_dense", recording)
                outputs = [o.amplitudes for o in statevector.run_batch(inputs, circuit)]
                monkeypatch.undo()
                assert len(outputs) == len(inputs)
                for i, amps in enumerate(outputs):
                    assert np.array_equal(amps, reference[i]), (n, rule, chunk, i)
                    assert scores[i](amps).hex() == fidelities[i], (n, rule, chunk, i)
                # Under the dense rule each state leaves the union at the first arithmetic
                # gate, and goes on alone. Permutation gates alone never leave the union.
                left = [len(circuit.gates) - arithmetic[0]] * len(inputs) if arithmetic else []
                assert dense == (left if rule == "dense" else []), (n, rule, chunk)
                dense.clear()


def test_inputs_are_read_when_taken_so_one_buffer_serves_every_state() -> None:
    circuit, inputs, _ = _contract(Direction.ONEHOT_TO_BINARY, 9, EvenMethod.RECURSION)
    expected = [run(s, circuit).amplitudes for s in inputs]

    def refilled():
        buffer = np.zeros_like(inputs[0].amplitudes)
        for state in inputs:
            buffer[:] = state.amplitudes
            yield Statevector(state.num_qubits, buffer)

    outputs = statevector.run_batch(refilled(), circuit)
    assert all(np.array_equal(o.amplitudes, e) for o, e in zip(outputs, expected, strict=True))


def test_run_batch_checks_every_width_and_yields_nothing_for_no_states() -> None:
    circuit = Circuit(3, ())
    assert list(statevector.run_batch([], circuit)) == []
    with pytest.raises(ValueError, match="does not match"):
        list(statevector.run_batch([basis_state(3, 1), basis_state(2, 1)], circuit))


def test_chunks_are_capped_by_state_count_and_by_held_amplitudes(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setattr(statevector, "_BLOCK_MAX", 19)
    states = [basis_state(4, k) for k in range(3)] + [Statevector(4, np.full(16, 0.25))]
    states += [basis_state(4, k) for k in range(3, 5)]
    sizes = [[index.size for index, _ in chunk] for chunk in statevector._chunks(states, 4)]
    assert sizes == [[1, 1, 1, 16], [1, 1]]
    monkeypatch.setattr(statevector, "_CHUNK", 2)
    sizes = [[index.size for index, _ in chunk] for chunk in statevector._chunks(states, 4)]
    assert sizes == [[1, 1], [1, 16], [1, 1]]
