"""The bulk parse of emitted QASM: the same circuits as the line path.

A body in emitted form is checked by one pattern and read in one numpy pass,
with one Gate per distinct row. Any other body goes through the line path.
Both must give equal gates, signed zeros included, or the same error.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from unittest import mock

import pytest

import edick.qasm
from edick import (
    BinomialSpec,
    Circuit,
    Direction,
    EncodingKind,
    EvenMethod,
    Gate,
    build_binomial_pipeline,
    build_converter,
    decompose_to_basis,
    emit_text,
    parse_text,
)

_PREFIX = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\n'


def _line_path(text: str):
    """parse_text with the bulk pass switched off."""
    with mock.patch.object(edick.qasm, "_bulk", lambda text: None):
        return parse_text(text)


def _same_as_line_path(text: str) -> None:
    """parse_text gives the line path's gates, signed zeros included, or raises its error."""
    try:
        expected = _line_path(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            parse_text(text)
        assert str(raised.value) == str(exc)
    else:
        assert _signed(parse_text(text).gates) == _signed(expected.gates)


def _signed(gates) -> list:
    return [(g, None if g.angle is None else g.angle.hex()) for g in gates]


def _bulk_parse(text: str) -> Circuit:
    """parse_text, failing if the text left the bulk pass: the line path calls Gate()."""
    with mock.patch.object(Gate, "__init__", side_effect=AssertionError("the line path ran")):
        return parse_text(text)


def _check_round_trip(circuit: Circuit, crlf: bool) -> None:
    text = emit_text(circuit)
    parsed = _bulk_parse(text) if circuit.gates else parse_text(text)
    assert type(parsed) is Circuit
    assert parsed.num_qubits == circuit.num_qubits and len(parsed) == len(circuit.gates)
    assert parsed.gates == circuit.gates
    # Equal gates may differ in the sign of a zero angle; the text tells them apart.
    assert emit_text(parsed) == text
    if crlf:  # \r\n line ends take the line path, which must read the same gates
        assert _signed(parse_text(text.replace("\n", "\r\n")).gates) == _signed(parsed.gates)


_SIZES = [*range(2, 41), 257, 513, 1025]


@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
def test_every_lowered_converter_round_trips_through_the_bulk_pass(direction, n) -> None:
    # The unfoldings ignore the method, so they are checked once per size.
    methods = list(EvenMethod)
    if direction in (Direction.CNOT_STAIR, Direction.EDICK_TO_ONEHOT):
        methods = methods[-1:]
    for method in methods:
        _check_round_trip(decompose_to_basis(build_converter(direction, n, method)[0]), n <= 40)


@pytest.mark.parametrize("n", range(2, 21))
def test_every_lowered_binomial_pipeline_round_trips_through_the_bulk_pass(n) -> None:
    for target in EncodingKind:
        for method in EvenMethod:
            spec = BinomialSpec.from_probability(n, 0.3, target, method)
            _check_round_trip(decompose_to_basis(build_binomial_pipeline(spec)[0]), True)


def test_signed_zeros_keep_their_sign_and_their_own_gates() -> None:
    body = ["u1(0.0) q[0];", "u1(-0.0) q[0];", "ry(-0.0) q[1];", "cu1(0.0) q[2],q[3];", "cu1(-0.0) q[2],q[3];"]
    parsed = parse_text(_PREFIX + "\n".join(body * 2) + "\n")
    signs = [g.angle.hex() for g in parsed.gates]
    assert signs == ["0x0.0p+0", "-0x0.0p+0", "-0x0.0p+0", "0x0.0p+0", "-0x0.0p+0"] * 2
    assert len({id(g) for g in parsed.gates}) == len(body)


def test_repeated_rows_share_one_gate() -> None:
    body = ["h q[0];", "cx q[0],q[1];", "ry(0.5) q[2];", "ccx q[0],q[1],q[3];", "cx q[1],q[0];"]
    text = _PREFIX + "\n".join(body * 3) + "\n"
    gates = _bulk_parse(text).gates
    assert gates == _line_path(text).gates
    assert [id(g) for g in gates] == [id(g) for g in gates[: len(body)]] * 3
    assert len({id(g) for g in gates}) == len(body)


def test_a_parsed_circuit_is_a_plain_circuit() -> None:
    built = decompose_to_basis(build_converter(Direction.EDICK_TO_BINARY, 9, EvenMethod.RECURSION)[0])
    text = emit_text(built)
    reference = Circuit(built.num_qubits, built.gates)
    parsed = _bulk_parse(text)
    assert type(parsed) is Circuit and type(parsed.gates) is tuple
    assert repr(parsed) == repr(reference) and parsed == reference and hash(parsed) == hash(reference)
    with pytest.raises(dataclasses.FrozenInstanceError):
        parsed.gates = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        parsed.gates[0].target = 0
    assert pickle.loads(pickle.dumps(parsed)) == reference
    assert copy.deepcopy(parsed) == reference
    assert dataclasses.replace(parsed, label="x") == dataclasses.replace(reference, label="x")


def test_an_empty_body_takes_the_line_path() -> None:
    empty = parse_text(_PREFIX)
    assert empty.gates == () and len(empty) == 0 and empty.num_qubits == 4


# Lines that are in emitted form up to one thing that the bulk pass must catch.
_BAD_LINES = [
    "x q[4];",  # outside the register
    "cx q[1],q[1];",  # repeated operand
    "ccx q[0],q[2],q[0];",
    "ccx q[3],q[3],q[1];",
    "ccx q[0],q[1],q[1];",
    "cx q[0];",  # wrong arity
    "x q[0],q[1];",
    "ccx q[0],q[1];",
    "ry(inf) q[0];",  # angle not finite, or not a float
    "u1(nan) q[0];",
    "cu1(-inf) q[0],q[1];",
    "ry(1e999) q[0];",
    "ry(half) q[0];",
    "ry() q[0];",
    "ry(1.0)) q[0];",
    "ry(1.0 q[0];",
    "ry q[0];",  # angle missing, or where none belongs
    "x(1.0) q[0];",
    "cx(0.5) q[0],q[1];",
    "x q[12345678901];",  # index of more than 9 digits
    "x q[];",
    "x q[a];",
    "x q[-1];",
    "x q[0] ;",
    "x q[0],;",
    "x q[0]",
    "x  q[0];",
    "X q[0];",
    "cz q[0],q[1];",
    "ry(0.1234567890123456789012345) q[0];",  # over 24 bytes of angle
    "ry(1e) q[0];",  # texts of emitted-angle bytes that float() refuses, or reads
    "ry(.5) q[0];",
    "ry(5.) q[0];",
    "ry(-) q[0];",
    "ry(+1) q[0];",
    "ry(1e+100) q[0];",
    "u1(1e-300) q[0];",
    "ry(1.0\x0c) q[0];",  # a control byte that splits the line for the line path
    "u1(\x1c0.5) q[0];",
    "ccxx q[0],q[1],q[2];",  # a name that runs on, or an angle after a name that takes none
    "ccx(0.5) q[0],q[1],q[2];",
    "cu1 q[0],q[1];",
    "x r[0];",  # not q[...], or not joined by a comma
    "cx q[0],r[1];",
    "cx q[0],xq[1];",
    "cx q[0],,q[1];",
    "cx q[0]xq[1];",
    "x aq[0];",
    "x q[0]:",
]


@pytest.mark.parametrize("line", _BAD_LINES)
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_bad_line_raises_from_parse_text_with_the_line_path_message(line: str, where: str) -> None:
    good = ["h q[0];", "cx q[0],q[1];", "u1(0.25) q[2];"]
    body = {"first": [line, *good], "middle": [*good, line, *good], "last": [*good, line]}[where]
    _same_as_line_path(_PREFIX + "\n".join(body) + "\n")


@pytest.mark.parametrize("line", ["x q[:];", "x q[1:];", "cx q[0],q[?];", "cx q[2/],q[1];"])
def test_an_index_that_is_not_digits_is_refused_in_a_wide_register(line: str) -> None:
    # ":" and "?" sit just past "9": read as digits, they would land inside q[99].
    _same_as_line_path('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[99];\n' + line + "\n")


@pytest.mark.parametrize("ending", ["", ";", "\r", " ", "x", "\n\n", "\n "])
def test_a_body_that_does_not_end_in_one_newline_takes_the_line_path(ending: str) -> None:
    _same_as_line_path(_PREFIX + "h q[0];\nx q[1];" + ending)


def test_many_distinct_angles_on_a_narrow_register() -> None:
    # More distinct angles than the register is wide, on rows that differ only in the target.
    text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
    text += "".join(f"ry({i / 7!r}) q[{i % 2}];\n" for i in range(1, 30))
    assert _bulk_parse(text).gates == _line_path(text).gates


def test_angles_in_emitted_form_take_the_bulk_pass() -> None:
    angles = [0.5, -0.0, 1e-05, -2.5e16, 3.141592653589793, 1.2345678901234567e-17, 1e22]
    text = _PREFIX + "".join(f"ry({a!r}) q[{i % 4}];\n" for i, a in enumerate(angles))
    assert [g.angle for g in _bulk_parse(text).gates] == angles


@pytest.mark.parametrize(
    "angles",
    [
        ["0.1234567890123456789012345"],  # over 24 bytes: the line path reads it
        ["0.12345678901234567890123e5", "0.12345678901234567890123e6"],  # the same first 24 bytes
        ["0.7853981633974483", "0.7853981633977483"],  # one byte apart, in the second word
        ["0.7853981633974483", "0.7853981633974483", "-0.0", "0.0", "1e-320"],
    ],
)
def test_angle_texts_are_told_apart_byte_for_byte(angles: list[str]) -> None:
    _same_as_line_path(_PREFIX + "".join(f"ry({a}) q[{i % 4}];\n" for i, a in enumerate(angles)))


@pytest.mark.parametrize(
    ("width", "line", "bulk"),
    [
        (100000, "cx q[99999],q[0];", True),  # past the 5-digit registers of the emitted tests
        # Control sets whose keys c0 * width + c1 + 1 agree modulo 2**32 stay apart.
        (100000, "ccx q[42950],q[0],q[1];\nccx q[0],q[32704],q[2];\nx q[99998];", True),
        (524287, "cx q[0],q[1];\ncx q[8192],q[2];\nx q[524286];", True),
        (999999999, "ccx q[0],q[999999998],q[5];", False),  # row keys past int64: line path
        (2000000, "cu1(0.5) q[1999999],q[0];", False),
    ],
)
def test_wide_registers_parse_as_on_the_line_path(width: int, line: str, bulk: bool) -> None:
    text = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{width}];\nh q[1];\n{line}\n'
    parsed = _bulk_parse(text) if bulk else parse_text(text)
    assert parsed.num_qubits == width and parsed.gates == _line_path(text).gates
    if not bulk:
        assert edick.qasm._bulk(text) is None
