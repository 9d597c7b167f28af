"""Gate and circuit IR: validation, inversion, remapping, cost model."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import re
from unittest import mock

import numpy as np
import pytest

from edick import (
    BinomialSpec,
    Circuit,
    CostReport,
    Direction,
    EncodingKind,
    EvenMethod,
    Gate,
    GateKind,
    Granularity,
    build_binomial_pipeline,
    build_converter,
    ccry,
    cnot,
    compose,
    cost,
    cphase,
    decompose_to_basis,
    emit_text,
    h,
    inverse,
    mcx,
    parse_text,
    phase,
    remap,
    ry,
    toffoli,
    x,
)
from edick.cli import main


def test_constructors_carry_kind_and_operands() -> None:
    g = ccry(0.5, 2, 4, 1)
    assert g.kind is GateKind.CCRY
    assert g.controls == (2, 4)
    assert g.target == 1
    assert g.angle == 0.5
    assert cnot(3, 0).controls == (3,)
    assert x(2).controls == ()
    assert toffoli(0, 1, 2).kind is GateKind.TOFFOLI


def test_mcx_collapses_small_control_counts() -> None:
    assert mcx((), 3) == x(3)
    assert mcx([0], 3).kind is GateKind.CNOT
    assert mcx([0, 1], 3).kind is GateKind.TOFFOLI
    assert mcx([0, 1, 2], 3).kind is GateKind.MCX
    assert mcx([0, 1, 2], 3).controls == (0, 1, 2)


def test_gate_rejects_bad_operands() -> None:
    with pytest.raises(ValueError):
        Gate(GateKind.CNOT, 1, (1,), None)  # control equals target
    with pytest.raises(ValueError):
        cnot(-1, 0)
    with pytest.raises(ValueError):
        Gate(GateKind.X, 0, (), 0.3)  # X takes no angle
    with pytest.raises(ValueError):
        Gate(GateKind.RY, 0, (), None)  # RY needs one
    with pytest.raises(ValueError):
        Gate(GateKind.RY, 0, (), math.inf)
    with pytest.raises(ValueError):
        Gate(GateKind.MCX, 5, (0, 1), None)  # too few controls for MCX


@pytest.mark.parametrize(
    "args, message",
    [
        ((GateKind.CNOT, 1, (1,)), "control and target qubits must be distinct"),
        ((GateKind.TOFFOLI, 2, (0, 2)), "control and target qubits must be distinct"),
        ((GateKind.CNOT, 0, (-1,)), "qubit indices must be non-negative"),
        ((GateKind.MCX, 3, (0, 1, -2)), "qubit indices must be non-negative"),
        ((GateKind.X, 0, (), 0.3), "x takes no angle"),
        ((GateKind.RY, 0, (), None), "ry needs a finite angle"),
        ((GateKind.CPHASE, 0, (1,), math.nan), "cphase needs a finite angle"),
        ((GateKind.MCX, 5, (0, 1)), "MCX needs at least 3 controls; use CNOT or TOFFOLI below that"),
        ((GateKind.CCRY, 5, (0,), 0.1), "ccry takes 2 control(s), got 1"),
        (("x", 0), "gate kind must be a GateKind, got 'x'"),
        (([1], 0), "gate kind must be a GateKind, got [1]"),
        ((None, 0), "gate kind must be a GateKind, got None"),
        ((GateKind.RY, 0, (), 10**400), "ry needs a finite angle"),
        ((GateKind.CPHASE, 0, (1,), -(10**400)), "cphase needs a finite angle"),
    ],
)
def test_gate_messages_are_exact(args, message: str) -> None:
    with pytest.raises(ValueError) as info:
        Gate(*args)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "args",
    [
        (GateKind.X, 0.5),
        (GateKind.X, True),
        (GateKind.H, "0"),
        (GateKind.CNOT, 1, (False,)),
        (GateKind.CNOT, 1, (2.0,)),
        (GateKind.TOFFOLI, 2, (0, 1.0)),
        (GateKind.MCX, True, (2, 3, 4)),
        (GateKind.MCX, 5, (0, 1, None)),
    ],
    ids=str,
)
def test_gate_rejects_qubit_indices_that_are_not_integers(args) -> None:
    with pytest.raises(ValueError, match="qubit indices must be integers"):
        Gate(*args)


@pytest.mark.parametrize("controls", [[0], [0, 1], [0, 1, 2], {0: 1}, None], ids=str)
def test_gate_rejects_controls_that_are_not_a_tuple(controls) -> None:
    kind = {1: GateKind.CNOT, 2: GateKind.TOFFOLI, 3: GateKind.MCX}.get(len(controls or ()), GateKind.CNOT)
    with pytest.raises(ValueError, match="controls must be a tuple"):
        Gate(kind, 5, controls)


@pytest.mark.parametrize(
    "angle", [True, False, "0.5", 1j, object()], ids=["True", "False", "str", "complex", "object"]
)
def test_gate_rejects_angles_that_are_not_real(angle) -> None:
    with pytest.raises(ValueError, match="ry takes a real angle"):
        Gate(GateKind.RY, 0, (), angle)


def test_gate_normalizes_integral_indices_and_real_angles() -> None:
    gate = Gate(GateKind.CCRY, np.int64(3), (np.int32(0), np.uint8(1)), np.float32(0.5))
    assert gate == ccry(0.5, 0, 1, 3)
    assert type(gate.target) is int and all(type(c) is int for c in gate.controls)
    assert type(gate.angle) is float
    assert type(Gate(GateKind.CNOT, 1, (np.int64(0),)).controls[0]) is int
    assert type(Gate(GateKind.X, np.int16(2)).target) is int
    assert repr(Gate(GateKind.PHASE, 0, (), 1).angle) == "1.0"
    assert repr(ry(np.float64(0.25), 0).angle) == "0.25"


# Every refusal of Gate(...), then inputs with two faults: the check that runs
# first names its fault. The order is kind, controls container, control count,
# angle, qubit types (target first), sign, distinctness.
_GATE_REFUSALS = [
    ((GateKind.CNOT, 1, ("a",)), "qubit indices must be integers, got 'a'"),
    (("cnot", 1, (0,)), "gate kind must be a GateKind, got 'cnot'"),
    ((GateKind.CNOT, 1, [0]), "controls must be a tuple of qubit indices, got [0]"),
    ((GateKind.MCX, 3, (0, 1)), "MCX needs at least 3 controls; use CNOT or TOFFOLI below that"),
    ((GateKind.TOFFOLI, 3, (0,)), "toffoli takes 2 control(s), got 1"),
    ((GateKind.RY, 0, (), "0.5"), "ry takes a real angle, got '0.5'"),
    ((GateKind.CRY, 0, (1,), None), "cry needs a finite angle"),
    ((GateKind.CCRY, 0, (1, 2), -math.inf), "ccry needs a finite angle"),
    ((GateKind.H, 0, (), 0.0), "h takes no angle"),
    ((GateKind.X, 1.0), "qubit indices must be integers, got 1.0"),
    ((GateKind.MCX, 4, (0, 1, -1)), "qubit indices must be non-negative"),
    ((GateKind.X, -1), "qubit indices must be non-negative"),
    ((GateKind.MCX, 4, (0, 1, 0)), "control and target qubits must be distinct"),
    # two faults each
    (("x", 0, [1], 0.5), "gate kind must be a GateKind, got 'x'"),
    ((GateKind.CNOT, 1, [1, 2]), "controls must be a tuple of qubit indices, got [1, 2]"),
    ((GateKind.CRY, 1, (0, 2), None), "cry takes 1 control(s), got 2"),
    ((GateKind.MCX, 5, (0, 1), 0.5), "MCX needs at least 3 controls; use CNOT or TOFFOLI below that"),
    ((GateKind.RY, -1, (), 1j), "ry takes a real angle, got 1j"),
    ((GateKind.RY, 0.5, (), math.nan), "ry needs a finite angle"),
    ((GateKind.X, -1, (), 0.3), "x takes no angle"),
    ((GateKind.CNOT, "a", (1.5,)), "qubit indices must be integers, got 'a'"),
    ((GateKind.CNOT, 1.5, (-1,)), "qubit indices must be integers, got 1.5"),
    ((GateKind.TOFFOLI, 1, (1, 2.0)), "qubit indices must be integers, got 2.0"),
    ((GateKind.CNOT, -1, (-1,)), "qubit indices must be non-negative"),
    ((GateKind.TOFFOLI, 0, (0, -1)), "qubit indices must be non-negative"),
]


@pytest.mark.parametrize("args, message", _GATE_REFUSALS, ids=repr)
def test_gate_refusals_name_the_first_fault(args, message: str) -> None:
    with pytest.raises(ValueError) as info:
        Gate(*args)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "args, fields",
    [
        ((GateKind.X, np.int64(2)), (2, (), None)),
        ((GateKind.MCX, np.uint16(4), (np.int8(0), 1, np.int64(2))), (4, (0, 1, 2), None)),
        ((GateKind.RY, 0, (), 1), (0, (), 1.0)),
        ((GateKind.CPHASE, 1, (0,), np.float32(0.5)), (1, (0,), 0.5)),
        ((GateKind.CRY, 1, (0,), np.float64(-0.25)), (1, (0,), -0.25)),
        ((GateKind.CCRY, 2, (0, 1), 10**20), (2, (0, 1), 1e20)),
    ],
    ids=repr,
)
def test_gate_stores_int_qubits_and_float_angles(args, fields) -> None:
    gate = Gate(*args)
    assert (gate.target, gate.controls, gate.angle) == fields
    assert type(gate.target) is int and all(type(c) is int for c in gate.controls)
    assert gate.angle is None or type(gate.angle) is float


@pytest.mark.parametrize("zero", [-0.0, np.float64(-0.0), np.float32(-0.0)], ids=repr)
def test_gate_keeps_a_negative_zero_angle(zero) -> None:
    angle = Gate(GateKind.PHASE, 0, (), zero).angle
    assert type(angle) is float and math.copysign(1.0, angle) == -1.0


def test_gate_keeps_its_dataclass_behaviour() -> None:
    gate = Gate(kind=GateKind.CPHASE, target=2, controls=(0,), angle=0.5)
    assert gate == cphase(0.5, 0, 2) and hash(gate) == hash(cphase(0.5, 0, 2))
    assert gate != cphase(0.5, 1, 2)
    assert repr(gate) == "Gate(kind=<GateKind.CPHASE: 'cphase'>, target=2, controls=(0,), angle=0.5)"
    assert dataclasses.replace(gate, target=3) == cphase(0.5, 0, 3)
    with pytest.raises(ValueError, match="distinct"):
        dataclasses.replace(gate, target=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        gate.target = 4
    assert copy.deepcopy(gate) == gate and pickle.loads(pickle.dumps(gate)) == gate
    assert {GateKind.X: 1}[GateKind("x")] == 1 and hash(GateKind.X) == hash(GateKind.X)


def test_gate_inverse_negates_angles_only() -> None:
    assert cnot(0, 1).inverse() == cnot(0, 1)
    assert ry(0.7, 2).inverse() == ry(-0.7, 2)
    assert cphase(0.3, 0, 1).inverse() == cphase(-0.3, 0, 1)
    assert toffoli(0, 1, 2).inverse() == toffoli(0, 1, 2)


def test_remap_moves_every_operand_of_a_ccry() -> None:
    (g,) = remap(Circuit(3, (ccry(0.2, 0, 1, 2),)), {0: 5, 1: 3, 2: 0}, 6).gates
    assert g.controls == (5, 3)
    assert g.target == 0
    assert g.angle == 0.2


def test_remap_relabels_gates_without_the_checked_constructor(monkeypatch) -> None:
    circuit = Circuit(4, (h(0), cnot(0, 1), ccry(0.3, 1, 2, 3), mcx((0, 1, 2), 3)))
    expected = (h(4), cnot(4, 2), ccry(0.3, 2, 0, 1), mcx((4, 2, 0), 1))
    checked = []
    init = Gate.__init__

    def counting(self, *args, **kwargs) -> None:
        checked.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Gate, "__init__", counting)
    moved = remap(circuit, [4, 2, 0, 1], 5)
    assert checked == []
    assert moved.gates == expected


def test_library_paths_never_call_the_checked_constructor(capsys) -> None:
    # Gate(...) checks what callers write; what the library builds goes through _gate.
    with mock.patch.object(Gate, "__init__", side_effect=AssertionError("Gate() was called")):
        for direction in Direction:
            for method in EvenMethod:
                circuit, _ = build_converter(direction, 12, method)
                lowered = decompose_to_basis(circuit)
                assert parse_text(emit_text(lowered)).gates == lowered.gates
        for target in EncodingKind:
            spec = BinomialSpec.from_probability(5, 0.3, target, EvenMethod.RECURSION)
            decompose_to_basis(build_binomial_pipeline(spec)[0])
        verify = ["verify", "--direction", "binary-to-onehot", "--n", "8", "--method", "recursion"]
        assert main([*verify, "--trials", "2"]) == 0
        with pytest.raises(AssertionError, match="Gate\\(\\) was called"):
            x(0)
    assert capsys.readouterr().out.endswith("verify: PASS\n")


def test_qubits_property_lists_controls_then_target() -> None:
    assert toffoli(4, 2, 0).qubits == (4, 2, 0)
    assert h(3).qubits == (3,)


def test_circuit_rejects_out_of_range_gates() -> None:
    with pytest.raises(ValueError):
        Circuit(2, (cnot(0, 2),))
    with pytest.raises(ValueError):
        Circuit(0, ())


@pytest.mark.parametrize("gates", [(1,), 5, None, "x", (h(0), None), [(0, 1)]], ids=repr)
def test_circuit_refuses_gates_that_are_not_gates(gates) -> None:
    with pytest.raises(ValueError, match="gates must be"):
        Circuit(2, gates)


@pytest.mark.parametrize("label", [5, None, b"x", ("a",), 1.5], ids=repr)
def test_circuit_and_compose_refuse_labels_that_are_not_str(label) -> None:
    message = f"circuit label must be a str, got {label!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        Circuit(2, (), label=label)
    with pytest.raises(ValueError, match=re.escape(message)):
        compose(Circuit(2, ()), Circuit(2, ()), label=label)
    assert inverse(Circuit(2, (), label="five")).label == "inverse(five)"


def test_compose_concatenates_and_checks_width() -> None:
    a = Circuit(2, (h(0),))
    b = Circuit(2, (cnot(0, 1),))
    ab = compose(a, b, label="bell")
    assert ab.gates == (h(0), cnot(0, 1))
    assert ab.label == "bell"
    with pytest.raises(ValueError):
        compose(a, Circuit(3, ()))


def test_inverse_reverses_and_inverts_gates() -> None:
    c = Circuit(2, (h(0), ry(0.4, 1), cnot(0, 1)))
    assert inverse(c).gates == (cnot(0, 1), ry(-0.4, 1), h(0))


def test_inverse_is_an_involution() -> None:
    c = Circuit(3, (h(0), cphase(0.3, 0, 2), toffoli(0, 1, 2), ry(-1.1, 1)))
    assert inverse(inverse(c)).gates == c.gates


def test_remap_accepts_dict_and_sequence() -> None:
    c = Circuit(2, (cnot(0, 1),))
    moved = remap(c, {0: 2, 1: 0}, 3)
    assert moved.num_qubits == 3
    assert moved.gates == (cnot(2, 0),)
    also = remap(c, [2, 0], 3)
    assert also.gates == moved.gates


def test_remap_rejects_partial_or_colliding_mappings() -> None:
    c = Circuit(2, (cnot(0, 1),))
    with pytest.raises(ValueError):
        remap(c, {0: 2}, 3)  # qubit 1 unmapped
    with pytest.raises(ValueError):
        remap(c, {0: 1, 1: 1}, 3)  # collision
    with pytest.raises(ValueError):
        remap(c, {0: 0, 1: 5}, 3)  # lands outside the new register


@pytest.mark.parametrize("width", [True, 2.0, 3.0, "3", None])
def test_register_widths_must_be_integers(width: object) -> None:
    c = Circuit(2, (cnot(0, 1),))
    with pytest.raises(ValueError, match="register width must be an integer"):
        Circuit(width, (x(0),))
    with pytest.raises(ValueError, match="register width must be an integer"):
        remap(c, [0, 1], width)


def test_numpy_integer_register_widths_are_stored_as_int() -> None:
    c = Circuit(np.int64(2), (cnot(0, 1),))
    moved = remap(c, [1, 0], np.int32(3))
    assert type(c.num_qubits) is int and type(moved.num_qubits) is int
    assert (c.num_qubits, moved.num_qubits) == (2, 3)
    assert cost(moved).depth == 1


def test_depth_counts_greedy_layers() -> None:
    # Disjoint pairs share a layer; a gate waits on every qubit it touches.
    c = Circuit(4, (cnot(0, 1), cnot(2, 3), cnot(0, 2), cnot(1, 2)))
    report = cost(c)
    assert report.depth == 3
    assert report.size == 4
    assert report.granularity is Granularity.LOGICAL


def test_empty_circuit_has_zero_cost() -> None:
    report = cost(Circuit(3, ()))
    assert (report.depth, report.size) == (0, 0)


def test_cost_report_validation() -> None:
    with pytest.raises(ValueError):
        CostReport(5, 3, Granularity.LOGICAL)  # depth above size
    with pytest.raises(ValueError):
        CostReport(0, 3, Granularity.LOGICAL)


def test_basis_granularity_counts_decomposed_gates() -> None:
    c = Circuit(3, (toffoli(0, 1, 2),))
    logical = cost(c, Granularity.LOGICAL)
    basis = cost(c, Granularity.TWO_QUBIT_BASIS)
    assert logical.size == 1
    assert basis.size == 15
    assert basis.depth <= basis.size


def test_basis_depth_equals_logical_depth_for_basis_circuits() -> None:
    c = Circuit(3, (h(0), cnot(0, 1), cnot(1, 2), x(0), phase(0.4, 2)))
    assert cost(c, Granularity.TWO_QUBIT_BASIS).depth == cost(c).depth
