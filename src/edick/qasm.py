"""OPENQASM 2.0 text for the subset of gates this library emits.

Supported statements: the version header, one qelib1 include, a single
``qreg q[n];`` declaration, and the gates x, h, ry, u1, cx, cu1, ccx.
Controlled rotations and multi-controlled X have no line form here; lower
them with :func:`edick.decompose.decompose_to_basis` before emitting.

Angles are printed with ``repr``, so parse_text(emit_text(c)) reproduces
the text byte for byte. emit_text formats each gate object once (by object,
as equal gates may print differently: ``u1(0.0)`` and ``u1(-0.0)``).
parse_text reads each distinct line once and reuses its gate for repeats. A
line in emitted form takes one pattern match; other lines are split into
operands, which accepts extra blanks and names what is wrong. The Gate
constructor validates every parsed gate.
"""

from __future__ import annotations

import re

from .circuit import _RULES, Circuit, Gate, GateKind, _derived

_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

_QREG_RE = re.compile(r"^qreg q\[(\d+)\];$")
_HEAD = r"(x|h|cx|ccx|ry|u1|cu1)(?:\(([^)]+)\))?"  # gate name and optional angle
_GATE_RE = re.compile(rf"^{_HEAD} ([^;]+);$")
_QUBIT_RE = re.compile(r"^q\[(\d+)\]$")
_LINE_RE = re.compile(rf"{_HEAD} q\[(\d+)\](?:,q\[(\d+)\])?(?:,q\[(\d+)\])?;")


_NAMES = {
    GateKind.X: "x",
    GateKind.H: "h",
    GateKind.CNOT: "cx",
    GateKind.TOFFOLI: "ccx",
    GateKind.RY: "ry",
    GateKind.PHASE: "u1",
    GateKind.CPHASE: "cu1",
}


def _gate_line(gate: Gate) -> str:
    name = _NAMES.get(gate.kind)
    if name is None:
        raise ValueError(
            f"gate kind {gate.kind.value} has no OPENQASM 2.0 line in this subset; "
            "decompose the circuit first"
        )
    target, controls, angle = gate.target, gate.controls, gate.angle
    head = name if angle is None else f"{name}({angle!r})"
    if not controls:
        return f"{head} q[{target}];\n"
    if len(controls) == 1:
        return f"{head} q[{controls[0]}],q[{target}];\n"
    return f"{head} q[{controls[0]}],q[{controls[1]}],q[{target}];\n"


def emit_text(circuit: Circuit) -> str:
    """Render a circuit as OPENQASM 2.0 source."""
    ids = list(map(id, circuit.gates))
    lines = {key: _gate_line(gate) for key, gate in dict(zip(ids, circuit.gates)).items()}
    return f"{_HEADER}qreg q[{circuit.num_qubits}];\n" + "".join(map(lines.__getitem__, ids))


def _parse_operands(text: str) -> tuple[int, ...]:
    qubits = []
    for token in text.split(","):
        match = _QUBIT_RE.match(token.strip())
        if match is None:
            raise ValueError(f"bad operand {token.strip()!r}")
        qubits.append(int(match.group(1)))
    return tuple(qubits)


_KINDS = {name: kind for kind, name in _NAMES.items()}
_ARITY = {name: _RULES[kind][0] + 1 for kind, name in _NAMES.items()}
_TAKES_ANGLE = {name for kind, name in _NAMES.items() if _RULES[kind][1]}


def _parse_gate(line: str, num_qubits: int) -> Gate:
    # One match for a canonical line. Other lines, and lines failing a check, go on to
    # the operand splitting, which gives the same messages and accepts the same spacing.
    if (match := _LINE_RE.fullmatch(line)) is not None:
        name, angle_text, a, b, c = match.groups()
        qubits = (int(a),) if b is None else (int(a), int(b)) if c is None else (int(a), int(b), int(c))
        if (angle_text is not None) == (name in _TAKES_ANGLE) and len(qubits) == _ARITY[name]:
            if max(qubits) < num_qubits:
                angle = float(angle_text) if angle_text is not None else None
                return Gate(_KINDS[name], qubits[-1], qubits[:-1], angle)
    match = _GATE_RE.match(line)
    if match is None:
        raise ValueError(f"unsupported statement {line!r}")
    name, angle_text, operand_text = match.groups()
    if (angle_text is not None) != (name in _TAKES_ANGLE):
        raise ValueError(f"bad parameter list for {name}")
    qubits = _parse_operands(operand_text)
    if len(qubits) != _ARITY[name]:
        raise ValueError(f"{name} expects {_ARITY[name]} operands")
    if max(qubits) >= num_qubits:
        raise ValueError(f"{line!r} exceeds register width {num_qubits}")
    angle = float(angle_text) if angle_text is not None else None
    return Gate(_KINDS[name], qubits[-1], qubits[:-1], angle)


def _next_statement(lines: list[str], start: int) -> tuple[int, str | None]:
    """Index and text of the first line at or after `start` that is not blank or a comment."""
    for index in range(start, len(lines)):
        line = lines[index].strip()
        if line and not line.startswith("//"):
            return index, line
    return len(lines), None


def parse_text(text: str) -> Circuit:
    """Parse OPENQASM 2.0 source restricted to the emitted subset.

    Every error is a ValueError naming its source line (counting from 1,
    blanks and comments included), except for text that ends early.
    """
    lines = text.splitlines()
    pos, line = _next_statement(lines, 0)
    if line != "OPENQASM 2.0;":
        where = "" if line is None else f"line {pos + 1}: "
        raise ValueError(f"{where}missing OPENQASM 2.0 header")
    pos, line = _next_statement(lines, pos + 1)
    if line == 'include "qelib1.inc";':
        pos, line = _next_statement(lines, pos + 1)
    if line is None:
        raise ValueError("missing qreg declaration")
    qreg = _QREG_RE.match(line)
    if qreg is None:
        raise ValueError(f"line {pos + 1}: expected qreg declaration, got {line!r}")
    num_qubits = int(qreg.group(1))
    if num_qubits < 1:
        raise ValueError(f"line {pos + 1}: a circuit needs at least one qubit")

    body = lines[pos + 1 :]
    # Distinct lines in order of first occurrence, so a bad line raises where it first appears.
    parsed: dict[str, Gate | None] = dict.fromkeys(body)
    for raw in parsed:
        line = raw.strip()
        if line and not line.startswith("//"):
            try:
                parsed[raw] = _parse_gate(line, num_qubits)
            except ValueError as exc:
                raise ValueError(f"line {pos + 2 + body.index(raw)}: {exc}") from exc
    return _derived(num_qubits, tuple(filter(None, map(parsed.__getitem__, body))), "")
