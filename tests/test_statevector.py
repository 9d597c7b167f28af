"""Embedded simulator: state construction, gate semantics, fidelity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from edick import (
    Circuit,
    Statevector,
    basis_state,
    ccry,
    cnot,
    cphase,
    cry,
    fidelity,
    h,
    mcx,
    phase,
    run,
    ry,
    toffoli,
    x,
    zero_state,
)


def amplitudes_of(state: Statevector) -> np.ndarray:
    return np.asarray(state.amplitudes)


def test_zero_and_basis_states() -> None:
    z = zero_state(3)
    assert amplitudes_of(z)[0] == 1.0
    b = basis_state(3, 5)
    assert amplitudes_of(b)[5] == 1.0
    assert float(np.sum(np.abs(amplitudes_of(b)) ** 2)) == pytest.approx(1.0)


def test_state_validation() -> None:
    with pytest.raises(ValueError):
        basis_state(2, 4)
    with pytest.raises(ValueError):
        Statevector(2, np.array([1.0, 0.0], dtype=np.complex128))  # wrong length
    with pytest.raises(ValueError):
        Statevector(2, [0.5, 0, 0, 0])  # not normalized
    with pytest.raises(ValueError, match="complex numbers"):
        Statevector(1, [object(), 1])
    with pytest.raises(ValueError):
        zero_state(25)  # above the simulation cap


@pytest.mark.parametrize("amps", [[math.nan, 0.0], [1.0, math.nan], [complex(math.nan, 0.0), 0.0]])
def test_nan_amplitudes_are_not_normalized(amps: list) -> None:
    with pytest.raises(ValueError, match="normalized"):
        Statevector(1, np.array(amps, dtype=np.complex128))


@pytest.mark.parametrize("index", [1.5, 1.0, True, False, "1", None])
def test_basis_index_must_be_an_integer(index: object) -> None:
    with pytest.raises(ValueError, match="integer"):
        basis_state(2, index)


@pytest.mark.parametrize("width", [True, 2.0, "2", None])
def test_register_width_must_be_an_integer(width: object) -> None:
    with pytest.raises(ValueError, match="register width must be an integer"):
        zero_state(width)
    with pytest.raises(ValueError, match="register width must be an integer"):
        Statevector(width, np.array([1.0, 0.0, 0.0, 0.0]))


def test_numpy_integer_register_width_is_stored_as_int() -> None:
    assert type(zero_state(np.int64(2)).num_qubits) is int
    assert type(Statevector(np.int32(1), np.array([1.0, 0.0])).num_qubits) is int


def test_numpy_integer_basis_index_is_accepted() -> None:
    assert basis_state(2, np.int64(3)).amplitudes[3] == 1.0


@pytest.mark.parametrize("width", [0, 49, 64])
def test_register_width_is_checked_before_allocating(width: int) -> None:
    # 2**49 amplitudes are 8 PiB: an allocation would fail, not raise ValueError.
    with pytest.raises(ValueError, match="register width"):
        zero_state(width)
    with pytest.raises(ValueError, match="register width"):
        basis_state(width, 0)


def test_x_flips_the_addressed_qubit() -> None:
    # Qubit 0 is the leftmost bit of the ket string.
    state = run(zero_state(3), Circuit(3, (x(0),)))
    assert amplitudes_of(state)[4] == 1.0
    state = run(state, Circuit(3, (x(2),)))
    assert amplitudes_of(state)[5] == 1.0


def test_h_creates_uniform_pair() -> None:
    state = run(zero_state(1), Circuit(1, (h(0),)))
    np.testing.assert_allclose(amplitudes_of(state), [1 / math.sqrt(2)] * 2)


def test_ry_rotates_zero_to_cos_sin() -> None:
    theta = 0.8
    state = run(zero_state(1), Circuit(1, (ry(theta, 0),)))
    np.testing.assert_allclose(
        amplitudes_of(state), [math.cos(theta / 2), math.sin(theta / 2)], atol=1e-15
    )


def test_phase_gates_touch_only_the_one_component() -> None:
    lam = 0.9
    state = run(basis_state(1, 1), Circuit(1, (phase(lam, 0),)))
    assert amplitudes_of(state)[1] == pytest.approx(np.exp(1j * lam))
    # cphase fires only when control and target are both 1
    state = run(basis_state(2, 3), Circuit(2, (cphase(lam, 0, 1),)))
    assert amplitudes_of(state)[3] == pytest.approx(np.exp(1j * lam))
    state = run(basis_state(2, 2), Circuit(2, (cphase(lam, 0, 1),)))
    assert amplitudes_of(state)[2] == 1.0


def test_cnot_and_toffoli_truth_tables() -> None:
    for source, expected in [(0, 0), (1, 1), (2, 3), (3, 2)]:
        out = run(basis_state(2, source), Circuit(2, (cnot(0, 1),)))
        assert amplitudes_of(out)[expected] == 1.0
    for source, expected in [(6, 7), (7, 6), (5, 5), (3, 3)]:
        out = run(basis_state(3, source), Circuit(3, (toffoli(0, 1, 2),)))
        assert amplitudes_of(out)[expected] == 1.0


def test_mcx_fires_on_all_controls_set() -> None:
    gate = mcx([0, 1, 2], 3)
    out = run(basis_state(4, 0b1110), Circuit(4, (gate,)))
    assert amplitudes_of(out)[0b1111] == 1.0
    out = run(basis_state(4, 0b0110), Circuit(4, (gate,)))
    assert amplitudes_of(out)[0b0110] == 1.0


def test_controlled_rotations_match_block_matrices() -> None:
    theta = 1.1
    out = run(basis_state(2, 2), Circuit(2, (cry(theta, 0, 1),)))
    np.testing.assert_allclose(
        amplitudes_of(out)[2:], [math.cos(theta / 2), math.sin(theta / 2)], atol=1e-15
    )
    out = run(basis_state(3, 6), Circuit(3, (ccry(theta, 0, 1, 2),)))
    np.testing.assert_allclose(
        amplitudes_of(out)[6:], [math.cos(theta / 2), math.sin(theta / 2)], atol=1e-15
    )
    # Unsatisfied controls leave the state alone.
    out = run(basis_state(3, 2), Circuit(3, (ccry(theta, 0, 1, 2),)))
    assert amplitudes_of(out)[2] == 1.0


def test_run_applies_gates_in_order() -> None:
    bell = Circuit(2, (h(0), cnot(0, 1)))
    out = run(zero_state(2), bell)
    np.testing.assert_allclose(
        amplitudes_of(out), [1 / math.sqrt(2), 0.0, 0.0, 1 / math.sqrt(2)], atol=1e-15
    )


def test_run_rejects_width_mismatch() -> None:
    with pytest.raises(ValueError):
        run(zero_state(2), Circuit(3, (x(0),)))
    with pytest.raises(ValueError):
        run(zero_state(2), Circuit(2, (x(2),)))


def test_fidelity_is_abs_overlap() -> None:
    a = run(zero_state(1), Circuit(1, (h(0),)))
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(zero_state(1), basis_state(1, 1)) == pytest.approx(0.0)
    assert fidelity(zero_state(1), a) == pytest.approx(1 / math.sqrt(2))
    with pytest.raises(ValueError):
        fidelity(zero_state(1), zero_state(2))


def test_states_compare_and_hash_by_identity() -> None:
    a, b = basis_state(1, 0), basis_state(1, 0)
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a)
    table = {a: "a", b: "b"}
    assert table[a] == "a" and table[b] == "b"
