"""The level -> basis contract that every converter plan carries.

The closed forms below are written out here, independently of the table
behind `ConverterPlan.input_index` and `output_index`.
"""

from __future__ import annotations

import numpy as np
import pytest

from edick import (
    BinomialSpec,
    ConverterPlan,
    Direction,
    EncodingKind,
    EvenMethod,
    basis_state,
    build_binomial_pipeline,
    build_cnot_stair,
    build_converter,
    level_to_basis,
    run,
)

SIZES = [*range(2, 41), 257, 513]
SIMULATED = range(2, 13)
PLAN_SIZES = [*range(2, 131), 257, 513, 1024, 1025]


def staircase_in(level: int) -> int:
    """Unfolding input: level + 1 right-aligned ones (the flag attached)."""
    return (1 << (level + 1)) - 1


def edick(level: int) -> int:
    return (1 << level) - 1


def onehot(level: int) -> int:
    return 1 << level


def binary(level: int) -> int:
    return level


def flagged_binary(level: int) -> int:
    """The binary register left of a |1> flag qubit."""
    return (level << 1) | 1


CLOSED_FORMS = {
    Direction.EDICK_TO_ONEHOT: (staircase_in, onehot),
    Direction.EDICK_TO_BINARY: (edick, binary),
    Direction.ONEHOT_TO_BINARY: (onehot, flagged_binary),
    Direction.BINARY_TO_ONEHOT: (flagged_binary, onehot),
    Direction.CNOT_STAIR: (staircase_in, onehot),
}


def test_every_direction_has_a_closed_form_and_cnot_stair_is_last() -> None:
    assert set(CLOSED_FORMS) == set(Direction)
    assert list(Direction)[-1] is Direction.CNOT_STAIR
    assert Direction("cnot-stair") is Direction.CNOT_STAIR


@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
@pytest.mark.parametrize("method", list(EvenMethod), ids=lambda m: m.value)
def test_plan_indices_match_the_closed_forms(direction: Direction, method: EvenMethod) -> None:
    level_in, level_out = CLOSED_FORMS[direction]
    for n in SIZES:
        _, plan = build_converter(direction, n, method)
        for level in range(n):
            assert plan.input_index(level) == level_in(level), (n, level)
            assert plan.output_index(level) == level_out(level), (n, level)


@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
@pytest.mark.parametrize("method", list(EvenMethod), ids=lambda m: m.value)
def test_plan_rows_are_every_level_index_as_one_int64_array(direction: Direction, method: EvenMethod) -> None:
    for n in PLAN_SIZES:
        plan = ConverterPlan(n, method, direction)
        if plan.total_qubits > 63:  # past int64
            for rows in (plan.input_rows, plan.output_rows):
                with pytest.raises(ValueError, match="at most 63 qubits"):
                    rows()
            continue
        for rows, index in ((plan.input_rows(), plan.input_index), (plan.output_rows(), plan.output_index)):
            assert rows.dtype == np.int64 and rows.shape == (n,), n
            assert rows.tolist() == [index(level) for level in range(n)], n


@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
def test_levels_outside_the_plan_raise(direction: Direction) -> None:
    _, plan = build_converter(direction, 6)
    for level in (-1, 6, 7):
        with pytest.raises(ValueError, match="outside 0..5"):
            plan.input_index(level)
        with pytest.raises(ValueError, match="outside 0..5"):
            plan.output_index(level)


@pytest.mark.parametrize("n", SIZES)
def test_build_converter_builds_the_cnot_stair(n: int) -> None:
    circuit, plan = build_converter(Direction.CNOT_STAIR, n)
    assert circuit.gates == build_cnot_stair(n).gates
    assert circuit.num_qubits == n
    assert plan == ConverterPlan(n, None, Direction.CNOT_STAIR)
    assert (plan.total_qubits, plan.ancilla) == (n, 0)


@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
@pytest.mark.parametrize("method", list(EvenMethod), ids=lambda m: m.value)
def test_a_plan_works_out_the_register_its_builder_uses(
    direction: Direction, method: EvenMethod
) -> None:
    # The builder's plan is the one its arguments alone give, its width is
    # the circuit's, and its leftmost ancillas are |0> at both ends.
    for n in PLAN_SIZES:
        circuit, plan = build_converter(direction, n, method)
        assert plan == ConverterPlan(n, method, direction), n
        assert plan.total_qubits == circuit.num_qubits, n
        data = plan.total_qubits - plan.ancilla
        for level in range(n):
            assert plan.input_index(level) >> data == 0, (n, level)
            assert plan.output_index(level) >> data == 0, (n, level)


@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
@pytest.mark.parametrize("method", list(EvenMethod), ids=lambda m: m.value)
def test_each_input_level_lands_on_its_output_index(
    direction: Direction, method: EvenMethod
) -> None:
    for n in SIMULATED:
        circuit, plan = build_converter(direction, n, method)
        for level in range(n):
            state = run(basis_state(plan.total_qubits, plan.input_index(level)), circuit)
            value = abs(state.amplitudes[plan.output_index(level)])
            assert value >= 1 - 1e-9, (n, level, value)


@pytest.mark.parametrize("target", list(EncodingKind), ids=lambda t: t.value)
@pytest.mark.parametrize("method", list(EvenMethod), ids=lambda m: m.value)
def test_binomial_plans_agree_with_level_to_basis(
    target: EncodingKind, method: EvenMethod
) -> None:
    for n in [*range(2, 41), 64]:
        spec = BinomialSpec.from_probability(n, 0.37, target, method)
        circuit, plan = build_binomial_pipeline(spec)
        flag = int(target is EncodingKind.ONE_HOT)  # the unfolding's |1> flag
        for k in range(n + 1):
            assert plan.output_index(k) == level_to_basis(target, k, circuit.num_qubits)
            assert plan.input_index(k) == (edick(k) << flag) | flag
        if plan.total_qubits <= 63:  # the int64 rows
            assert plan.output_rows().tolist() == [plan.output_index(k) for k in range(n + 1)]
            assert plan.input_rows().tolist() == [plan.input_index(k) for k in range(n + 1)]
