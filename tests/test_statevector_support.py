"""Sparse steps of `run_rows` and `run`: bit-identical to the dense kernel, and taken while they pay."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from edick import Circuit, EncodingKind, Gate, GateKind, Statevector, basis_state, build_state
from edick import cnot, cphase, dicke_state, h, run, ry, statevector, toffoli, x, zero_state
from edick.encodings import random_vector

_ARITHMETIC = [GateKind.H, GateKind.RY, GateKind.PHASE, GateKind.CRY, GateKind.CPHASE, GateKind.CCRY]
_CONTROLS = {GateKind.CRY: 1, GateKind.CPHASE: 1, GateKind.CCRY: 2, GateKind.CNOT: 1, GateKind.TOFFOLI: 2}


@pytest.fixture
def sparse_steps(monkeypatch: pytest.MonkeyPatch) -> list[tuple[int, int, int]]:
    """Every (rows, states, size) the sparse rule is asked about, and it always says yes."""
    asked: list[tuple[int, int, int]] = []

    def always(rows, states, size):
        asked.append((rows, states, size))
        return True

    monkeypatch.setattr(statevector, "_sparse_pays", always)
    return asked


def _batch(states: list[Statevector]) -> tuple[np.ndarray, np.ndarray]:
    """The union of the states' nonzero rows, and the block of their amplitudes there, a column per state."""
    rows = np.unique(np.concatenate([np.flatnonzero(s.amplitudes) for s in states]))
    return rows, np.array([s.amplitudes[rows] for s in states]).T


def _outputs(states: list[Statevector], circuit: Circuit) -> np.ndarray:
    """`statevector.run_rows` on the union of the states' nonzero rows, read at every index: a row per state."""
    block = statevector.run_rows(*_batch(states), circuit, np.arange(1 << circuit.num_qubits))
    return np.ascontiguousarray(block.T)


def _random_gate(rng: np.random.Generator, num_qubits: int) -> Gate:
    kinds = _ARITHMETIC + [GateKind.X, GateKind.CNOT, GateKind.TOFFOLI]
    kind = kinds[rng.integers(len(kinds))]
    qubits = [int(q) for q in rng.permutation(num_qubits)[: _CONTROLS.get(kind, 0) + 1]]
    angle = float(rng.uniform(-np.pi, np.pi)) if kind in _ARITHMETIC[1:] else None
    return Gate(kind, qubits[0], tuple(qubits[1:]), angle)


def _sparse_state(rng: np.random.Generator, num_qubits: int) -> Statevector:
    nonzero = rng.choice(1 << num_qubits, size=min(int(rng.integers(1, 10)), 1 << num_qubits), replace=False)
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[nonzero] = rng.normal(size=nonzero.size) + 1j * rng.normal(size=nonzero.size)
    return Statevector(num_qubits, amps / np.linalg.norm(amps))


def test_sparse_steps_equal_the_dense_kernel_on_random_sparse_batches(
    sparse_steps: list,
) -> None:
    n, rng = 6, np.random.default_rng(7)
    met = {0: 0, 1: 0, 2: 0}  # pairs of an active gate with 0, 1 or 2 members nonzero in a state
    for _ in range(150):
        # States of one batch have different supports, so the union holds rows that
        # are zero in some of them; permutation gates move the rows between steps.
        states = [_sparse_state(rng, n) for _ in range(int(rng.integers(1, 4)))]
        gates = tuple(_random_gate(rng, n) for _ in range(6))
        expected = []
        for state in states:
            amps = state.amplitudes.copy()
            for gate in gates:
                bit = 1 << (n - 1 - gate.target)
                controls = sum(1 << (n - 1 - c) for c in gate.controls)
                if gate.kind in _ARITHMETIC:
                    for low in range(1 << n):
                        if low & bit == 0 and low & controls == controls:
                            met[int(amps[low] != 0) + int(amps[low | bit] != 0)] += 1
                statevector._apply_inplace(amps.reshape([2] * n), gate, n)
            expected.append(amps)
        outputs = _outputs(states, Circuit(n, gates))
        assert all(np.array_equal(o, e) for o, e in zip(outputs, expected, strict=True))
    assert min(met.values()) > 0, met
    assert sparse_steps


def test_default_rule_goes_dense_once_and_for_good_when_the_union_is_too_wide(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    n = 15  # 2**15 amplitudes
    layer = tuple(h(q) for q in range(n))
    # |+>^n is unchanged by X, so the second layer returns the state to a basis
    # state and the last three gates meet at most 8 amplitudes.
    circuit = Circuit(n, layer + (x(0), x(1)) + layer + (x(2), x(3)) + layer[:3])
    asked: list[tuple[int, bool]] = []
    rule = statevector._sparse_pays

    def recording(rows, states, size):
        asked.append((rows, rule(rows, states, size)))
        return asked[-1][1]

    monkeypatch.setattr(statevector, "_sparse_pays", recording)
    for states in (1, 2):
        inputs = [basis_state(n, 0)] * states
        expected = inputs[0].amplitudes.copy()
        for gate in circuit.gates:
            statevector._apply_inplace(expected.reshape([2] * n), gate, n)
        assert np.count_nonzero(expected) == 8
        assert all(np.array_equal(o, expected) for o in _outputs(inputs, circuit))
        # One state: rows 1 .. 4096 pay (4 * 4096 + 2048 < 32768) and 8192 does not.
        # Two states share the fixed cost and pay for 8192 rows too. After the first
        # refusal the rule is not asked again: every later step is dense.
        last = 12 if states == 1 else 13
        assert asked == [(1 << k, True) for k in range(last + 1)] + [(2 << last, False)]
        asked.clear()


@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
def test_norm_drift_names_the_arithmetic_gate(
    sparse: bool, monkeypatch: pytest.MonkeyPatch
) -> None:
    mixed = statevector._mixed

    def drifting(kind, angle, a, b):
        new_a, new_b = mixed(kind, angle, a, b)
        return (new_a * 1.001, new_b * 1.001) if kind is GateKind.H else (new_a, new_b)

    monkeypatch.setattr(statevector, "_mixed", drifting)
    monkeypatch.setattr(statevector, "_sparse_pays", lambda rows, states, size: sparse)
    gate = h(2)
    circuit = Circuit(3, (x(0), cnot(0, 1), gate, cnot(1, 2), toffoli(0, 1, 2)))
    for states in (1, 3):
        with pytest.raises(AssertionError, match=re.escape(f"after {gate}")):
            _outputs([basis_state(3, 0)] * states, circuit)


@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
def test_a_nan_amplitude_fails_the_norm_check(sparse: bool, monkeypatch: pytest.MonkeyPatch) -> None:
    mixed = statevector._mixed

    def poisoned(kind, angle, a, b):
        new_a, new_b = mixed(kind, angle, a, b)
        return new_a, new_b * np.nan

    monkeypatch.setattr(statevector, "_mixed", poisoned)
    monkeypatch.setattr(statevector, "_sparse_pays", lambda rows, states, size: sparse)
    gate = Gate(GateKind.RY, 1, (), 0.5)
    with pytest.raises(AssertionError, match=re.escape(f"after {gate}")):
        run(basis_state(2, 0), Circuit(2, (gate,)))


_MIXED = Circuit(3, (x(0), h(1), cnot(1, 2), ry(0.3, 2), toffoli(0, 1, 2), cphase(0.4, 0, 2), h(0), x(1)))
_MIXED_ARITHMETIC = [g for g in _MIXED.gates if g.kind not in statevector._PERMUTATIONS]
# How many arithmetic steps go sparse before the rest goes dense: none, some, all.
_STEPS = pytest.mark.parametrize("steps", [0, 2, 4], ids=["dense", "sparse-then-dense", "sparse"])


def _sparse_for(steps: int):
    """A `_sparse_pays` that lets the first `steps` arithmetic steps go sparse and no more."""
    asked: list[int] = []

    def rule(rows, states, size):
        asked.append(rows)
        return len(asked) <= steps

    return rule


@_STEPS
def test_run_states_are_not_checked_again(steps: int, monkeypatch: pytest.MonkeyPatch) -> None:
    inputs = [basis_state(3, 0), basis_state(3, 5)]
    expected = [run(s, _MIXED).amplitudes for s in inputs]
    checked: list[Statevector] = []
    post_init = Statevector.__post_init__

    def recording(self):
        checked.append(self)
        post_init(self)

    monkeypatch.setattr(Statevector, "__post_init__", recording)
    outputs = []
    for state in inputs:
        monkeypatch.setattr(statevector, "_sparse_pays", _sparse_for(steps))
        outputs.append(run(state, _MIXED))
    assert all(np.array_equal(o.amplitudes, e) for o, e in zip(outputs, expected, strict=True))
    assert checked == []
    # A state made by a caller is still checked.
    Statevector(1, [1.0, 0.0])
    assert len(checked) == 1
    with pytest.raises(ValueError, match="normalized"):
        Statevector(1, [0.5, 0.0])


def test_library_states_are_not_checked_again(monkeypatch: pytest.MonkeyPatch) -> None:
    """`basis_state`, `zero_state`, `build_state` and `dicke_state` equal a zeros-and-loop reference, unchecked."""
    checked: list[Statevector] = []
    post_init = Statevector.__post_init__

    def recording(self):
        checked.append(self)
        post_init(self)

    monkeypatch.setattr(Statevector, "__post_init__", recording)
    made: list[tuple[Statevector, np.ndarray]] = []
    rng = np.random.default_rng(5)
    rows = {EncodingKind.ONE_HOT: lambda i: 1 << i, EncodingKind.BINARY: lambda i: i,
            EncodingKind.EDICK: lambda i: (1 << i) - 1}
    levels = {EncodingKind.ONE_HOT: lambda n: n, EncodingKind.BINARY: lambda n: 1 << n,
              EncodingKind.EDICK: lambda n: n + 1}
    for n in range(1, 6):
        basis = np.eye(1 << n, dtype=np.complex128)
        made += [(basis_state(n, index), basis[index]) for index in range(1 << n)]
        made.append((zero_state(n), basis[0]))
        for kind in EncodingKind:
            for count in range(2, levels[kind](n) + 1):
                vector = random_vector(count, rng)
                reference = np.zeros(1 << n, dtype=np.complex128)
                for level, alpha in enumerate(vector.alphas):
                    reference[rows[kind](level)] = alpha
                made.append((build_state(kind, vector, n), reference))
        for weight in range(n + 1):
            reference = np.zeros(1 << n, dtype=np.complex128)
            for index in range(1 << n):
                if index.bit_count() == weight:
                    reference[index] = 1.0 / math.sqrt(math.comb(n, weight))
            made.append((dicke_state(n, weight), reference))
    for state, reference in made:
        assert state.amplitudes.dtype == np.complex128 and np.array_equal(state.amplitudes, reference)
    assert checked == []
    # A state made by a caller is still checked.
    Statevector(1, [1.0, 0.0])
    assert len(checked) == 1
    with pytest.raises(ValueError, match="normalized"):
        Statevector(1, [0.5, 0.0])


@_STEPS
def test_dense_takes_one_norm_per_arithmetic_gate_left(steps: int, monkeypatch: pytest.MonkeyPatch) -> None:
    inputs = [basis_state(3, 0), basis_state(3, 5)]  # made first: `Statevector` takes a norm too
    drifts: list[float] = []
    checked: list[object] = []
    norm_drift, check = statevector._norm_drift, statevector._check

    def drift(amps):
        drifts.append(norm_drift(amps))
        return drifts[-1]

    def recording(value, label):
        checked.append(label)
        check(value, label)

    monkeypatch.setattr(statevector, "_norm_drift", drift)
    monkeypatch.setattr(statevector, "_check", recording)
    monkeypatch.setattr(statevector, "_sparse_pays", _sparse_for(steps))
    _outputs(inputs, _MIXED)
    # The sparse steps check the batch once each; then each state alone, per arithmetic gate.
    dense = _MIXED_ARITHMETIC[steps:]
    assert checked == _MIXED_ARITHMETIC[:steps] + dense * len(inputs)
    assert len(drifts) == len(dense) * len(inputs)
    # A drift at the first dense step names its gate.
    monkeypatch.setattr(statevector, "_norm_drift", lambda amps: 1.0)
    monkeypatch.setattr(statevector, "_sparse_pays", _sparse_for(steps))
    if dense:
        with pytest.raises(AssertionError, match=re.escape(f"after {dense[0]}")):
            _outputs(inputs, _MIXED)


@_STEPS
def test_run_rows_equals_per_state_runs_at_the_read_indices(
    steps: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    """Bit for bit, from the held rows when sparse to the end, else from each dense state."""
    made: list[int] = []
    state = statevector._state

    def recording(num_qubits, rows, values):
        made.append(num_qubits)
        return state(num_qubits, rows, values)

    rng = np.random.default_rng(3)
    for _ in range(30):
        states = [_sparse_state(rng, 3) for _ in range(int(rng.integers(1, 4)))]
        rows, block = _batch(states)
        read = rng.integers(0, 8, size=int(rng.integers(0, 12)))  # any order, repeats too
        expected = np.array([run(s, _MIXED).amplitudes[read] for s in states]).T
        monkeypatch.setattr(statevector, "_sparse_pays", _sparse_for(steps))
        monkeypatch.setattr(statevector, "_state", recording)
        got = statevector.run_rows(rows, block, _MIXED, read)
        monkeypatch.undo()
        assert got.shape == (read.size, block.shape[1]) and got.dtype == np.complex128
        assert np.array_equal(got, expected)
        # Sparse to the end makes no dense state; otherwise every state goes dense.
        assert made == ([] if steps == len(_MIXED_ARITHMETIC) else [3] * block.shape[1])
        made.clear()
