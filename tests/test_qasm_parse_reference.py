"""parse_text against the operand-splitting gate parser, and the bulk pass against the line path.

`_reference_parse_gate` and `_reference_parse_operands` are the gate-line
parser as it was before canonical lines took a single-pattern fast path.
Each generated program is parsed twice, once by that parser alone (the bulk
pass switched off), and both must give the same gates (signed zeros
included) or the same error. Near-canonical programs, which the bulk pass
reads or hands on, are held against the line path the same way.
`_reference_parse` is the line path as it was when the header was walked
statement by statement apart from the gate loop; generated header variants
are held against it.
"""

from __future__ import annotations

import re
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import edick.qasm
from edick import Circuit, Gate, GateKind, parse_text

_GATE_RE = re.compile(r"^(x|h|cx|ccx|ry|u1|cu1)(?:\(([^)]+)\))? ([^;]+);$")
_QUBIT_RE = re.compile(r"^q\[(\d+)\]$")
_KINDS = {
    "x": GateKind.X, "h": GateKind.H, "cx": GateKind.CNOT, "ccx": GateKind.TOFFOLI,
    "ry": GateKind.RY, "u1": GateKind.PHASE, "cu1": GateKind.CPHASE,
}
_ARITY = {"x": 1, "h": 1, "ry": 1, "u1": 1, "cx": 2, "cu1": 2, "ccx": 3}
_TAKES_ANGLE = {"ry", "u1", "cu1"}


def _reference_parse_operands(text: str) -> tuple[int, ...]:
    qubits = []
    for token in text.split(","):
        match = _QUBIT_RE.match(token.strip())
        if match is None:
            raise ValueError(f"bad operand {token.strip()!r}")
        qubits.append(int(match.group(1)))
    return tuple(qubits)


def _reference_parse_gate(line: str, num_qubits: int) -> Gate:
    match = _GATE_RE.match(line)
    if match is None:
        raise ValueError(f"unsupported statement {line!r}")
    name, angle_text, operand_text = match.groups()
    if (angle_text is not None) != (name in _TAKES_ANGLE):
        raise ValueError(f"bad parameter list for {name}")
    qubits = _reference_parse_operands(operand_text)
    if len(qubits) != _ARITY[name]:
        raise ValueError(f"{name} expects {_ARITY[name]} operands")
    if max(qubits) >= num_qubits:
        raise ValueError(f"{line!r} exceeds register width {num_qubits}")
    angle = float(angle_text) if angle_text is not None else None
    return Gate(_KINDS[name], qubits[-1], qubits[:-1], angle)


def _reference_next_statement(lines: list[str], start: int) -> tuple[int, str | None]:
    for index in range(start, len(lines)):
        line = lines[index].strip()
        if line and not line.startswith("//"):
            return index, line
    return len(lines), None


def _reference_parse(text: str) -> Circuit:
    lines = text.splitlines()
    pos, line = _reference_next_statement(lines, 0)
    if line != "OPENQASM 2.0;":
        where = "" if line is None else f"line {pos + 1}: "
        raise ValueError(f"{where}missing OPENQASM 2.0 header")
    pos, line = _reference_next_statement(lines, pos + 1)
    if line == 'include "qelib1.inc";':
        pos, line = _reference_next_statement(lines, pos + 1)
    if line is None:
        raise ValueError("missing qreg declaration")
    qreg = re.match(r"^qreg q\[(\d+)\];$", line)
    if qreg is None:
        raise ValueError(f"line {pos + 1}: expected qreg declaration, got {line!r}")
    num_qubits = int(qreg.group(1))
    if num_qubits < 1:
        raise ValueError(f"line {pos + 1}: a circuit needs at least one qubit")
    gates = []
    for number, raw in enumerate(lines[pos + 1 :], pos + 2):
        line = raw.strip()
        if line and not line.startswith("//"):
            try:
                gates.append(_reference_parse_gate(line, num_qubits))
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from exc
    return Circuit(num_qubits, tuple(gates))


def _reference_outcome(text: str):
    with mock.patch.object(edick.qasm, "_parse_gate", _reference_parse_gate):
        return _line_path_outcome(text)


def _line_path_outcome(text: str):
    with mock.patch.object(edick.qasm, "_bulk", lambda text: None):
        return _outcome(text)


def _outcome(text: str, parse=parse_text):
    try:
        circuit = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", circuit.num_qubits, [
        (g.kind, g.target, g.controls, None if g.angle is None else float.hex(g.angle))
        for g in circuit.gates
    ]


_BLANKS = st.sampled_from(["", " ", "  ", "\t", " \t"])
_SEPARATORS = st.sampled_from([",", ",", ", ", " ,", " , ", ",\t", "\t,"])


@st.composite
def _valid_line(draw) -> str:
    """A gate line the parser accepts, in canonical or odd but legal spacing."""
    name = draw(st.sampled_from(sorted(_ARITY)))
    qubits = draw(st.permutations(range(6)))[: _ARITY[name]]
    operands = draw(_SEPARATORS).join(f"q[{q}]" for q in qubits)
    head = name
    if name in _TAKES_ANGLE:
        angle = repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
        head += "(" + draw(st.sampled_from(["", " ", "\t"])) + angle + draw(_BLANKS) + ")"
    gap = draw(st.sampled_from([" ", " ", "  ", " \t"]))
    return draw(_BLANKS) + head + gap + operands + draw(_BLANKS) + ";" + draw(_BLANKS)


_ANGLES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "-0.0", "1e-320", "1e999", "nan", "-inf", "half", "0.5)", " 0.25 ", "1_0", ""]),
)
_INDICES = st.one_of(
    st.integers(0, 7).map(str), st.sampled_from(["007", "12", "-1", "", "1.0", " 2", "x"])
)


@st.composite
def _operand(draw) -> str:
    index = draw(_INDICES)
    form = draw(st.sampled_from(["q[{}]", "q[{}]", "q[{}]", "q{}", "q[ {} ]", "r[{}]", "q[{}"]))
    return form.format(index)


@st.composite
def _any_line(draw) -> str:
    """A gate-like line that may be malformed: wrong arity, angles, operands, names or spacing."""
    name = draw(st.sampled_from([*_ARITY, "cry", "measure", "X"]))
    arity = _ARITY.get(name, 1)
    count = draw(st.sampled_from([arity, arity, max(arity - 1, 0), arity + 1]))
    operands = [draw(_operand()) for _ in range(count)]
    takes_angle = (name in _TAKES_ANGLE) != (draw(st.integers(0, 4)) == 0)
    head = name + (f"({draw(_ANGLES)})" if takes_angle else "")
    gap = draw(st.sampled_from([" ", " ", "  ", "\t", ""]))
    end = draw(st.sampled_from([";", ";", " ;", "", ";;"]))
    return draw(_BLANKS) + head + gap + draw(_SEPARATORS).join(operands) + end + draw(_BLANKS)


_FILLER = st.sampled_from(["", "  ", "// comment", "\t// x q[0];"])


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    num_qubits=st.integers(1, 7),
    head=st.lists(st.one_of(_valid_line(), _FILLER), max_size=6),
    odd=st.one_of(st.none(), _any_line(), _FILLER),
    tail=st.lists(st.one_of(_valid_line(), _any_line()), max_size=3),
)
def test_parse_matches_the_operand_splitting_parser(num_qubits, head, odd, tail) -> None:
    body = head + ([] if odd is None else [odd]) + tail
    text = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{num_qubits}];\n' + "\n".join(body) + "\n"
    assert _outcome(text) == _reference_outcome(text)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(_ARITY)),
    indices=st.lists(st.integers(0, 5), min_size=1, max_size=4),
    with_angle=st.booleans(),
    angle=st.floats(),
)
def test_canonical_lines_match_the_operand_splitting_parser(name, indices, with_angle, angle) -> None:
    # Canonically spaced lines, right or wrong in arity, angle and register width.
    operands = ",".join(f"q[{q}]" for q in indices)
    head = f"{name}({angle!r})" if with_angle else name
    text = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\n{head} {operands};\n'
    assert _outcome(text) == _reference_outcome(text)


# Near-canonical programs: emitted-form lines, each of which may carry one of the
# departures below. The bulk pass must read the canonical ones and give any other
# body to the line path, with the same gates or the same message and line number.
_NEAR_ANGLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["inf", "-inf", "nan", "1_0", " 1.0", "1.0 ", "-0.0", "0", "1e999", "+2.5", "", "1)"]),
)
_NEAR_INDICES = st.one_of(
    st.integers(0, 5).map(str),
    st.sampled_from(["01", "007", "12345678901234567890", "999999999", "1234567890", "4", "9"]),
)


@st.composite
def _near_line(draw) -> str:
    name = draw(st.sampled_from(sorted(_ARITY)))
    arity = draw(st.sampled_from([_ARITY[name]] * 4 + [_ARITY[name] - 1, _ARITY[name] + 1]))
    indices = [draw(_NEAR_INDICES) for _ in range(arity)]
    if draw(st.integers(0, 3)) == 0 and len(indices) > 1:  # a repeated operand
        indices[-1] = indices[0]
    head = name
    if (name in _TAKES_ANGLE) != (draw(st.integers(0, 9)) == 0):
        head += f"({draw(_NEAR_ANGLES)})"
    return head + " " + ",".join(f"q[{i}]" for i in indices) + ";"


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    num_qubits=st.integers(1, 6),
    lines=st.lists(_near_line(), min_size=1, max_size=8),
    end=st.sampled_from(["\n", "\n", "\n", "\r\n", ""]),
    comment=st.one_of(st.none(), st.integers(0, 8)),
)
def test_near_canonical_programs_match_the_line_path(num_qubits, lines, end, comment) -> None:
    if comment is not None:
        lines = lines[:comment] + ["// a comment"] + lines[comment:]
    text = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{num_qubits}];\n' + "\n".join(lines)
    text = text + end if end != "\r\n" else text.replace("\n", end) + end
    assert _outcome(text) == _line_path_outcome(text)


_MOSTLY = st.sampled_from([True] * 5 + [False])
# Each header line as emitted most of the time, or else one of a few departures.
_VERSIONS = st.sampled_from(["OPENQASM 2.0;"] * 6 + [" OPENQASM 2.0;\t", "OPENQASM 3.0;", "OPENQASM 2.0"])
_INCLUDES = st.sampled_from(['include "qelib1.inc";'] * 6 + ['  include "qelib1.inc"; ', 'include "x.inc";'])
_QREGS = st.one_of(
    st.integers(0, 7).map("qreg q[{}];".format),
    st.sampled_from(["qreg q[02];", "qreg q[];", "qreg r[2];", "qreg q[2]", "qreg q[-1];", " qreg q[3]; "]),
)


@st.composite
def _header_text(draw) -> str:
    """A program whose header lines may be missing, repeated, out of order or malformed."""
    parts = [draw(kind) for kind in (_VERSIONS, _INCLUDES, _QREGS) if draw(_MOSTLY)]
    if parts and not draw(_MOSTLY):
        parts = list(draw(st.permutations(parts)))
    if parts and not draw(_MOSTLY):
        parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(parts)))
    parts += draw(st.lists(st.one_of(_valid_line(), _any_line()), max_size=3))
    lines = []
    for part in parts:
        lines += draw(st.lists(_FILLER, max_size=2)) + [part]
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return end.join(lines + draw(st.lists(_FILLER, max_size=2))) + draw(st.sampled_from([end, ""]))


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_header_text())
def test_header_variants_match_the_statement_by_statement_header_walk(text) -> None:
    assert _line_path_outcome(text) == _outcome(text, _reference_parse)
