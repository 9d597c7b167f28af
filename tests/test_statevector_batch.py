"""`run_rows`: each state's outputs equal `run` and dense gate-by-gate simulation, bit for bit."""

from __future__ import annotations

import math

import numpy as np
import pytest

from edick import Circuit, Direction, EvenMethod, Statevector, basis_state, build_converter, h, run, x
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


def _outputs(states: list[Statevector], circuit: Circuit) -> np.ndarray:
    """`run_rows` on the union of the states' nonzero rows, read at every index: a row per state."""
    rows = np.unique(np.concatenate([np.flatnonzero(s.amplitudes) for s in states]))
    block = np.array([s.amplitudes[rows] for s in states]).T
    outputs = statevector.run_rows(rows, block, circuit, np.arange(1 << circuit.num_qubits))
    return np.ascontiguousarray(outputs.T)


@pytest.mark.parametrize("method", list(EvenMethod), ids=lambda m: m.value)
@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
def test_run_rows_equals_per_state_runs_bit_for_bit(
    direction: Direction, method: EvenMethod, monkeypatch: pytest.MonkeyPatch
) -> None:
    dense: list[int] = []  # the gates each dense state has left
    go_dense = statevector._dense

    def recording(amps, gates, num_qubits):
        if gates:
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
                outputs = _outputs(inputs, circuit)
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


def test_run_rows_checks_every_width_and_reads_nothing_for_no_states() -> None:
    circuit = Circuit(3, ())
    assert statevector.run_rows([1, 2], np.zeros((2, 0)), circuit, np.arange(8)).shape == (8, 0)
    with pytest.raises(ValueError, match="register width"):
        statevector.run_rows([0], np.ones((1, 1)), Circuit(25, ()), [0])


def test_run_refuses_amplitudes_changed_since_the_state_was_made() -> None:
    state = basis_state(3, 0)
    state.amplitudes[5] = 1.0
    with pytest.raises(ValueError, match="every column must be normalized"):
        run(state, Circuit(3, (x(0),)))


_HALF = np.full((2, 1), math.sqrt(0.5))


@pytest.mark.parametrize(
    "rows, amplitudes, match",
    [
        ([[0, 1]], _HALF, "1-D array of integers"),
        ([0.0, 1.0], _HALF, "1-D array of integers"),
        ([True, False], _HALF, "1-D array of integers"),
        ([1, 1], _HALF, "distinct"),
        ([-1, 1], _HALF, "in 0..7"),
        ([0, 8], _HALF, "in 0..7"),
        ([0, 1, 2], _HALF, r"\(3, B\) block"),
        ([0, 1], _HALF[:, 0], r"\(2, B\) block"),
        ([0, 1], _HALF * 1.001, "normalized"),
        ([0, 1], np.hstack([_HALF, np.full((2, 1), np.nan)]), "normalized"),
        ([0], [[object()]], "complex numbers"),
    ],
    ids=["2-d", "float", "bool", "duplicate", "negative", "too-high", "row-count", "1-d-block",
         "unnormalized", "nan", "object"],
)
def test_run_rows_rejects_a_bad_batch_at_the_call(rows, amplitudes, match: str) -> None:
    with pytest.raises(ValueError, match=match):
        statevector.run_rows(rows, amplitudes, Circuit(3, (x(0),)), [0])


@pytest.mark.parametrize(
    "read", [[8], [-1], [0, 1 << 40], [[0, 1]], 3, [0.0], [True], []],
    ids=["too-high", "negative", "far-too-high", "2-d", "scalar", "float", "bool", "empty-list"],
)
def test_run_rows_rejects_a_bad_read_at_the_call(read) -> None:
    with pytest.raises(ValueError, match=r"read must be a 1-D array of basis indices in 0\.\.7"):
        statevector.run_rows([0, 1], _HALF, Circuit(3, (x(0),)), read)


def test_run_rows_reads_zero_where_no_row_is_held() -> None:
    # X on qubit 0 moves rows 0 and 1 to 4 and 5; rows 0..3 and 6, 7 hold nothing.
    read = np.arange(8, dtype=np.uint8)
    block = statevector.run_rows([0, 1], np.hstack([_HALF, [[1.0], [0.0]]]), Circuit(3, (x(0),)), read)
    expected = np.zeros((8, 2), dtype=np.complex128)
    expected[4:6] = np.hstack([_HALF, [[1.0], [0.0]]])
    assert np.array_equal(block, expected)
    assert not np.signbit(block.view(np.float64)).any()  # zeros, not negative zeros
    assert statevector.run_rows([0], [[1.0]], Circuit(3, ()), np.array([], np.int64)).shape == (0, 1)
    assert statevector.run_rows([1, 2], np.zeros((2, 0)), Circuit(3, ()), [0, 7]).shape == (2, 0)


def test_column_drifts_give_the_norm_rule_of_np_linalg_norm() -> None:
    """`_drifts` accepts and rejects the columns that |np.linalg.norm(column) - 1| <= tol does."""
    rng = np.random.default_rng(11)
    # Scales that put a column well inside, near and past the tolerance, and at zero.
    scales = [1.0, 1 + 1e-13, 1 - 3e-11, 1 + 8e-11, 1 - 1.2e-10, 1 + 4e-10, 1.5, 0.0]
    verdicts = set()
    for _ in range(200):
        shape = (int(rng.integers(1, 40)), int(rng.integers(0, 12)))
        block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        block /= np.linalg.norm(block, axis=0)
        block *= rng.choice(scales, size=shape[1])
        if shape[1] and rng.random() < 0.3:
            block[rng.integers(shape[0]), rng.integers(shape[1])] = rng.choice([np.nan, complex(0, np.nan)])
        block = np.ascontiguousarray(block)
        for piece in (block, block[:0], block[:, :0]):  # and with no rows, and with no columns
            expected = np.abs(np.linalg.norm(piece, axis=0) - 1.0) <= statevector._NORM_TOL
            assert np.array_equal(statevector._drifts(piece) <= statevector._NORM_TOL, expected), piece
            verdicts.update(expected.tolist())
    assert verdicts == {True, False}


def test_chunks_are_capped_by_state_count_and_by_held_amplitudes(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """`_sparse` takes at most `_CHUNK` columns and `_BLOCK_MAX` held amplitudes, and one at least."""
    counts: list[int] = []
    sparse = statevector._sparse

    def recording(idx, columns, circuit):
        counts.append(columns.shape[1])
        return sparse(idx, columns, circuit)

    monkeypatch.setattr(statevector, "_sparse", recording)
    rows, block = np.arange(4), np.eye(4, 10)  # 4 rows, 10 columns, all normalized
    block[0, 4:] = 1.0
    for chunk, held, expected in [(64, 1 << 19, [10]), (64, 19, [4, 4, 2]), (3, 19, [3, 3, 3, 1]),
                                  (64, 3, [1] * 10)]:
        monkeypatch.setattr(statevector, "_CHUNK", chunk)
        monkeypatch.setattr(statevector, "_BLOCK_MAX", held)
        outputs = statevector.run_rows(rows, block, Circuit(2, (h(0),)), rows)
        assert outputs.shape == (4, 10) and counts == expected, (chunk, held)
        counts.clear()
