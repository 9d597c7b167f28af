"""OPENQASM 2.0 emission and parsing: byte-exact round trips, strict errors."""

from __future__ import annotations

import numpy as np
import pytest

from edick import (
    Circuit,
    Gate,
    GateKind,
    ccry,
    cnot,
    cphase,
    cry,
    decompose_to_basis,
    emit_text,
    h,
    mcx,
    parse_text,
    phase,
    ry,
    toffoli,
    x,
)


def test_emit_layout_is_fixed() -> None:
    circuit = Circuit(2, (h(0), cnot(0, 1)))
    assert emit_text(circuit) == (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[2];\n"
        "h q[0];\n"
        "cx q[0],q[1];\n"
    )


def test_angles_are_emitted_with_repr() -> None:
    text = emit_text(Circuit(1, (ry(0.1, 0),)))
    assert "ry(0.1) q[0];" in text
    text = emit_text(Circuit(2, (cphase(0.30000000000000004, 0, 1),)))
    assert "cu1(0.30000000000000004) q[0],q[1];" in text


def test_round_trip_is_byte_identical() -> None:
    circuit = Circuit(
        4,
        (
            x(0),
            h(1),
            ry(0.7, 2),
            phase(-0.2, 3),
            cnot(0, 3),
            cphase(1.25, 1, 2),
            toffoli(0, 1, 2),
        ),
    )
    text = emit_text(circuit)
    parsed = parse_text(text)
    assert parsed.num_qubits == 4
    assert parsed.gates == circuit.gates
    assert emit_text(parsed) == text


def test_emit_rejects_non_qasm_gates() -> None:
    for gate, width in (
        (cry(0.5, 0, 1), 2),
        (ccry(0.5, 0, 1, 2), 3),
        (mcx([0, 1, 2], 3), 4),
    ):
        with pytest.raises(ValueError, match="decompose"):
            emit_text(Circuit(width, (gate,)))


def test_parse_skips_blanks_and_comments() -> None:
    text = (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "\n"
        "// a comment\n"
        "qreg q[1];\n"
        "x q[0];\n"
    )
    parsed = parse_text(text)
    assert parsed.gates == (x(0),)


def test_parse_rejects_malformed_programs() -> None:
    with pytest.raises(ValueError, match="header"):
        parse_text('include "qelib1.inc";\nqreg q[1];\n')
    with pytest.raises(ValueError, match="qreg"):
        parse_text("OPENQASM 2.0;\n" 'include "qelib1.inc";\n' "x q[0];\n")
    good_prefix = "OPENQASM 2.0;\n" 'include "qelib1.inc";\n' "qreg q[2];\n"
    with pytest.raises(ValueError, match="unsupported"):
        parse_text(good_prefix + "measure q[0];\n")
    with pytest.raises(ValueError, match="operands"):
        parse_text(good_prefix + "cx q[0];\n")
    with pytest.raises(ValueError, match="parameter"):
        parse_text(good_prefix + "ry q[0];\n")


def test_parse_rejects_out_of_register_operands() -> None:
    text = "OPENQASM 2.0;\n" 'include "qelib1.inc";\n' "qreg q[1];\n" "x q[1];\n"
    with pytest.raises(ValueError, match=r"^line 4: .*register width 1"):
        parse_text(text)
    text = (
        "OPENQASM 2.0;\n" 'include "qelib1.inc";\n' "qreg q[3];\n"
        "h q[2];\n" "ccx q[0],q[1],q[3];\n"
    )
    with pytest.raises(ValueError, match=r"^line 5: .*register width 3"):
        parse_text(text)


def test_parse_rejects_an_empty_register() -> None:
    with pytest.raises(ValueError, match=r"^line 3: .*at least one qubit"):
        parse_text("OPENQASM 2.0;\n" 'include "qelib1.inc";\n' "qreg q[0];\n")
    with pytest.raises(ValueError, match=r"^line 3: .*at least one qubit"):
        parse_text("OPENQASM 2.0;\n" 'include "qelib1.inc";\n' "qreg q[0];\n" "x q[0];\n")


@pytest.mark.parametrize(
    "text", [None, b"OPENQASM 2.0;\n", 0, ["OPENQASM 2.0;"], bytearray(b"OPENQASM 2.0;\n")], ids=repr)
def test_parse_refuses_what_is_not_a_str(text) -> None:
    with pytest.raises(ValueError, match="QASM text must be a str"):
        parse_text(text)


_PREFIX = "OPENQASM 2.0;\n" 'include "qelib1.inc";\n' "qreg q[2];\n"


def test_parse_errors_name_the_source_line_counting_blanks_and_comments() -> None:
    text = (
        "OPENQASM 2.0;\n"
        "// first comment\n"
        "\n"
        'include "qelib1.inc";\n'
        "qreg q[2];\n"
        "// second comment\n"
        "\n"
        "x q[0];\n"
        "measure q[0];\n"
    )
    with pytest.raises(ValueError, match=r"^line 9: unsupported statement"):
        parse_text(text)
    with pytest.raises(ValueError, match=r"^line 4: expected qreg declaration"):
        parse_text("// a comment\nOPENQASM 2.0;\n\nx q[0];\n")
    with pytest.raises(ValueError, match=r"^line 3: missing OPENQASM 2.0 header"):
        parse_text("\n// a comment\nqreg q[1];\n")


_VERSION, _INCLUDE = "OPENQASM 2.0;\n", 'include "qelib1.inc";\n'


# Header walks, with their messages recorded before the header and the gate
# lines were read from one list of numbered statements.
@pytest.mark.parametrize(
    "text, message",
    [
        ("", "missing OPENQASM 2.0 header"),
        ("\n  \n// c\n\t// d\n", "missing OPENQASM 2.0 header"),
        (_VERSION, "missing qreg declaration"),
        (_VERSION + _INCLUDE + "// c\n\n", "missing qreg declaration"),
        (_INCLUDE + _VERSION + "qreg q[1];\n", "line 1: missing OPENQASM 2.0 header"),
        (_VERSION + "// a\n\n" + _INCLUDE + "// b\n\nqreg q[0];\nx q[0];\n",
         "line 7: a circuit needs at least one qubit"),
        (_PREFIX + "x q[0];\nqreg q[3];\n", "line 5: unsupported statement 'qreg q[3];'"),
        ("// top\r\nOPENQASM 2.0;\r\n// mid\r\n\r\ninclude \"qelib1.inc\";\r\n  // more\r\n"
         "qreg q[2];\r\n// g\r\ncx q[0],q[1];\r\nmeasure q[0];\r\n", "line 10: unsupported statement 'measure q[0];'"),
    ],
    ids=["empty", "only-comments", "version-only", "no-qreg", "include-first", "qreg-0", "second-qreg", "crlf"],
)
def test_header_errors_are_pinned(text: str, message: str) -> None:
    with pytest.raises(ValueError) as info:
        parse_text(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "statement, message",
    [
        ("u1(inf) q[0];", "finite angle"),
        ("ry(nan) q[1];", "finite angle"),
        ("cx q[1],q[1];", "distinct"),
        ("x q[2];", "register width 2"),
        ("cu1(0.5) q[0],q[3];", "register width 2"),
        ("ry(half) q[0];", "float"),
        ("x q0;", "bad operand"),
    ],
)
def test_gate_errors_name_the_source_line(statement: str, message: str) -> None:
    text = _PREFIX + "h q[0];\n\n" + statement + "\n"
    with pytest.raises(ValueError, match=rf"^line 6: .*{message}"):
        parse_text(text)


def test_a_repeated_bad_line_is_reported_at_its_first_occurrence() -> None:
    text = _PREFIX + "x q[0];\nx q[2];\nx q[0];\nx q[2];\n"
    with pytest.raises(ValueError, match=r"^line 5: "):
        parse_text(text)


def test_repeated_lines_parse_to_equal_gates_and_keep_signed_zeros() -> None:
    body = ["u1(0.0) q[0];", "u1(-0.0) q[0];", "cx q[0],q[1];", "ry(-0.0) q[1];"]
    text = _PREFIX + "\n".join(body * 3) + "\n"
    parsed = parse_text(text)
    assert parsed.gates == parse_text(_PREFIX + "\n".join(body) + "\n").gates * 3
    assert emit_text(parsed) == text


# One gate of every kind, with operands given as numpy integers and angles
# as ints and numpy floats as well as plain Python values.
_EVERY_KIND = [
    x(np.int64(2)),
    h(0),
    ry(np.float64(0.25), 1),
    ry(-0.0, 0),
    phase(3, np.int32(1)),
    cnot(np.uint8(0), 2),
    cphase(np.float32(1.5), 2, 0),
    cry(1e-300, 0, 1),
    ccry(-2.5, 2, 0, 1),
    toffoli(1, np.int16(2), 0),
    Gate(GateKind.MCX, 3, (0, 2, 1)),
]


def test_every_gate_kind_is_covered() -> None:
    assert {g.kind for g in _EVERY_KIND} == set(GateKind)


@pytest.mark.parametrize("gate", _EVERY_KIND, ids=lambda g: g.kind.value)
def test_every_accepted_gate_emits_lines_that_parse_back_to_equal_gates(gate) -> None:
    circuit = decompose_to_basis(Circuit(4, (gate,)))
    text = emit_text(circuit)
    parsed = parse_text(text)
    assert parsed.gates == circuit.gates
    assert [float.hex(g.angle) for g in parsed.gates if g.angle is not None] == [
        float.hex(g.angle) for g in circuit.gates if g.angle is not None
    ]
    assert emit_text(parsed) == text
