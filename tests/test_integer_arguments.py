"""Counts, widths and levels are integers: anything else raises ValueError.

Every entry point applies one rule: bools and values without `__index__`
are refused, and numpy integers are accepted and come back as `int`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from edick import (
    BinomialSpec,
    ConverterPlan,
    Direction,
    EncodingKind,
    EvenMethod,
    SweepRow,
    basis_state,
    binary_width,
    build_adder,
    build_binomial_pipeline,
    build_cnot_stair,
    build_converter,
    build_dicke_unitary,
    build_edick_to_onehot,
    build_scs,
    dicke_state,
    level_to_basis,
    random_vector,
    zero_state,
)

_PLAN = build_converter(Direction.EDICK_TO_BINARY, 6)[1]
_ROW = SweepRow(4, "recursion", 4, 4, 4, 4, 4, 0.0)

# Each entry point as a function of the one argument under test.
ENTRY_POINTS = {
    **{
        f"build_converter[{d.value}]": lambda v, d=d: build_converter(d, v, EvenMethod.RECURSION)
        for d in Direction
    },
    "binary_width": binary_width,
    "build_edick_to_onehot": build_edick_to_onehot,
    "build_cnot_stair": build_cnot_stair,
    "build_dicke_unitary": build_dicke_unitary,
    "build_scs[n]": lambda v: build_scs(v, 2),
    "build_scs[k]": lambda v: build_scs(5, v),
    "build_adder[num_qubits]": lambda v: build_adder(v, 1),
    "build_adder[shift]": lambda v: build_adder(3, v),
    "level_to_basis[level]": lambda v: level_to_basis(EncodingKind.BINARY, v, 3),
    "level_to_basis[width]": lambda v: level_to_basis(EncodingKind.BINARY, 2, v),
    "input_index": _PLAN.input_index,
    "output_index": _PLAN.output_index,
    "from_probability": lambda v: BinomialSpec.from_probability(v, 0.3),
    **{
        f"SweepRow[{key}]": lambda v, key=key: replace(_ROW, **{key: v})
        for key in ("num_levels", "depth_logical", "depth_basis", "size_logical", "size_basis",
                    "ancilla")
    },
    "ConverterPlan[num_levels]": lambda v: ConverterPlan(v, None, None),
    "dicke_state[num_qubits]": lambda v: dicke_state(v, 2),
    "dicke_state[weight]": lambda v: dicke_state(5, v),
    "random_vector": lambda v: random_vector(v, np.random.default_rng(5)).num_levels,
    "zero_state": zero_state,
    "basis_state[index]": lambda v: basis_state(3, v),
}

# A value each entry point accepts, so its non-integer twins are in range.
GOOD = {name: 4 for name in ENTRY_POINTS}
GOOD.update({"build_scs[k]": 2, "build_adder[shift]": 3, "level_to_basis[level]": 2})
GOOD.update({"input_index": 3, "output_index": 3, "build_adder[num_qubits]": 3})
GOOD.update({"dicke_state[weight]": 2})


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("kind", ["float", "bool", "str", "none"])
def test_non_integers_raise_value_error(name: str, kind: str) -> None:
    good = GOOD[name]
    bad = {"float": float(good), "bool": True, "str": str(good), "none": None}[kind]
    with pytest.raises(ValueError, match="must be an integer"):
        ENTRY_POINTS[name](bad)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_numpy_integers_are_accepted_and_come_back_as_int(name: str) -> None:
    expected = ENTRY_POINTS[name](GOOD[name])
    got = ENTRY_POINTS[name](np.int64(GOOD[name]))
    assert _ints(got) == _ints(expected)
    assert all(type(v) is int for v in _ints(got)), _ints(got)


def _ints(result: object) -> list[int]:
    """The integers a result hands back: itself, or its count and width fields."""
    if isinstance(result, tuple):
        return [v for part in result for v in _ints(part)]
    if isinstance(result, (int, np.integer)):
        return [result]
    fields = ("num_levels", "total_qubits", "ancilla", "num_qubits", "trials", "weight",
              "depth_logical", "depth_basis", "size_logical", "size_basis")
    return [getattr(result, f) for f in fields if hasattr(result, f)]


def test_binomial_trials_are_checked_before_the_pipeline_is_built() -> None:
    spec = BinomialSpec.from_probability(np.int64(4), 0.3, EncodingKind.BINARY)
    assert type(spec.trials) is int
    circuit, plan = build_binomial_pipeline(spec)
    assert circuit.label == "binomial_pipeline_4_binary" and plan.num_levels == 5
