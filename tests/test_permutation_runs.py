"""Runs of permutation gates moved as one int per qubit: bit for bit the rows that gate-by-gate steps give."""

from __future__ import annotations

import numpy as np
import pytest

from edick import Circuit, Direction, EvenMethod, Statevector, build_converter, cnot, h, mcx, ry, run, toffoli, x
from edick import statevector
from edick.cli import main

# `_per_qubit_pays` forced each way: every permutation run as one int per qubit, or none.
_RULES = {"per-qubit": lambda gates, width: True, "per-gate": lambda gates, width: False}


def _random_run(rng: np.random.Generator, n: int, length: int) -> list:
    """X, CNOT, Toffoli and MCX with 3..6 controls on distinct qubits of `n`."""
    gates = []
    for _ in range(length):
        controls = int(rng.integers(0, min(6, n - 1) + 1))
        target, *rest = (int(q) for q in rng.choice(n, controls + 1, replace=False))
        make = {0: lambda: x(target), 1: lambda: cnot(rest[0], target), 2: lambda: toffoli(*rest, target)}
        gates.append(make.get(controls, lambda: mcx(rest, target))())
    return gates


def _moved(value: int, gates, n: int) -> int:
    """One basis index through the gates, by Python integer arithmetic."""
    for gate in gates:
        if all(value >> (n - 1 - c) & 1 for c in gate.controls):
            value ^= 1 << (n - 1 - gate.target)
    return value


def _dense_reference(state: Statevector, circuit: Circuit) -> np.ndarray:
    n, amps = circuit.num_qubits, state.amplitudes.copy()
    for gate in circuit.gates:
        statevector._apply_inplace(amps.reshape([2] * n), gate, n)
    return amps


@pytest.mark.parametrize("rows", [1, 7, 8, 9, 63, 64, 65, 1000])
def test_a_per_qubit_run_moves_every_held_row_count(rows: int) -> None:
    n, rng = 12, np.random.default_rng(rows)
    idx = rng.choice(1 << n, rows, replace=False).astype(np.int64)
    gates = _random_run(rng, n, 60)
    assert {len(g.controls) for g in gates} >= {0, 1, 2, 3, 4, 5, 6}
    moved = statevector._permuted(idx, tuple(gates), n)
    assert moved.dtype == np.int64 and moved.shape == (rows,)
    assert moved.tolist() == [_moved(int(v), gates, n) for v in idx]


@pytest.mark.parametrize("method", list(EvenMethod), ids=lambda m: m.value)
@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
def test_run_rows_is_the_same_bit_for_bit_with_the_rule_forced_each_way(
    direction: Direction, method: EvenMethod, monkeypatch: pytest.MonkeyPatch
) -> None:
    for n in range(2, 21):
        circuit, plan = build_converter(direction, n, method)
        if plan.total_qubits > 20:
            continue
        trials = np.random.default_rng(n).standard_normal((3, n))
        columns = np.concatenate((np.eye(n), trials / np.linalg.norm(trials, axis=1)[:, None])).T
        width = circuit.num_qubits
        read = np.arange(1 << width) if width <= 12 else plan.output_rows()
        outputs = {}
        for rule in _RULES:
            monkeypatch.setattr(statevector, "_per_qubit_pays", _RULES[rule])
            outputs[rule] = statevector.run_rows(plan.input_rows(), columns, circuit, read)
        assert outputs["per-qubit"].tobytes() == outputs["per-gate"].tobytes(), n


@pytest.mark.parametrize(
    "argv",
    [
        ["--direction", "binary-to-onehot", "--n", "15", "--method", "expand-pow2"],
        ["--direction", "edick-to-binary", "--n", "16", "--method", "recursion"],
        ["--direction", "edick-to-onehot", "--n", "17", "--method", "expand-pow2"],
        ["--direction", "cnot-stair", "--n", "15"],
    ],
    ids=["adders", "spreading", "unfolding", "stair"],
)
def test_verify_prints_the_same_bytes_with_the_rule_forced_each_way(
    argv: list[str], capsys, monkeypatch: pytest.MonkeyPatch
) -> None:
    printed = []
    for rule in _RULES:
        monkeypatch.setattr(statevector, "_per_qubit_pays", _RULES[rule])
        assert main(["verify", *argv, "--trials", "20", "--seed", "1"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert printed[0].endswith("verify: PASS\n")


def _states(n: int, rng: np.random.Generator) -> list[Statevector]:
    """A state on a few rows, which stays sparse through a few arithmetic gates at 12 qubits, and one on every row."""
    few = np.zeros(1 << n, np.complex128)
    few[rng.choice(1 << n, 5, replace=False)] = rng.standard_normal(5)
    full = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return [Statevector(n, v / np.linalg.norm(v)) for v in (few, full)]


@pytest.mark.parametrize("rule", [*_RULES, "default"])
def test_runs_at_the_start_and_the_end_and_a_permutation_only_circuit(
    rule: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    n, rng = 12, np.random.default_rng(4)
    if rule in _RULES:
        monkeypatch.setattr(statevector, "_per_qubit_pays", _RULES[rule])
    first, last = _random_run(rng, n, 2 * n), _random_run(rng, n, 3 * n)
    middle = [h(2), *_random_run(rng, n, 3), ry(0.3, 5), *_random_run(rng, n, n + 1), h(0)]
    for gates in (first + middle + last, first + last, first[:1]):
        circuit = Circuit(n, tuple(gates))
        for state in _states(n, rng):
            assert run(state, circuit).amplitudes.tobytes() == _dense_reference(state, circuit).tobytes()


def _spy(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """The length of each run that `_permuted` moves."""
    lengths: list[int] = []
    permuted = statevector._permuted

    def recording(idx, gates, n):
        lengths.append(len(gates))
        return permuted(idx, gates, n)

    monkeypatch.setattr(statevector, "_permuted", recording)
    return lengths


def test_verify_of_a_cnot_stair_takes_one_per_qubit_run(capsys, monkeypatch: pytest.MonkeyPatch) -> None:
    lengths = _spy(monkeypatch)
    assert main(["verify", "--direction", "cnot-stair", "--n", "15"]) == 0
    assert lengths == [len(build_converter(Direction.CNOT_STAIR, 15)[0].gates)]
    assert "verify: PASS" in capsys.readouterr().out


def test_a_run_of_at_most_the_register_width_goes_gate_by_gate(monkeypatch: pytest.MonkeyPatch) -> None:
    n, rng = 12, np.random.default_rng(8)
    lengths = _spy(monkeypatch)
    state = _states(n, rng)[0]
    for length, expected in [(1, []), (n, []), (n + 1, [n + 1])]:
        circuit = Circuit(n, (*_random_run(rng, n, length), h(1), *_random_run(rng, n, length)))
        assert run(state, circuit).amplitudes.tobytes() == _dense_reference(state, circuit).tobytes()
        assert lengths == expected * 2, length
        lengths.clear()
