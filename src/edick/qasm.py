"""OPENQASM 2.0 text for the subset of gates this library emits.

Supported statements: the version header, one qelib1 include, a single
``qreg q[n];`` declaration, and the gates x, h, ry, u1, cx, cu1, ccx.
Controlled rotations and multi-controlled X have no line form here; lower
them with :func:`edick.decompose.decompose_to_basis` before emitting.

Angles are printed with ``repr``, so parse_text(emit_text(c)) reproduces
the text byte for byte. emit_text formats each gate object once (by object,
as equal gates may print differently: ``u1(0.0)`` and ``u1(-0.0)``).
parse_text checks text wholly in emitted form by one pattern search and reads
it in one numpy pass. Other text goes line by line: its statements (the lines
that are neither blank nor ``//`` comments) are numbered once, the header is
read from the front of that list, and each statement after it is split into
operands, which accepts extra blanks and names what is wrong, and Gate()
checks each gate. Both paths and emit_text take the header lines from one
constant.
"""

from __future__ import annotations

import re
from collections import deque
from itertools import islice, repeat

import numpy as np

from .circuit import _RULES, Circuit, Gate, GateKind, _acyclic, _derived, _width
from .circuit import _set_angle, _set_controls, _set_kind, _set_target

_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

_QREG_RE = re.compile(r"^qreg q\[(\d+)\];$")
_QUBIT_RE = re.compile(r"^q\[(\d+)\]$")

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

_GATE_RE = re.compile(rf"^({'|'.join(_KINDS)})(?:\(([^)]+)\))? ([^;]+);$")
# A line in emitted form: each name with its own operand count, and an angle of up to 24 bytes
# exactly where one belongs. Indices of up to 9 digits fit int32.
_Q, _A = r"q\[[0-9]{1,9}\]", r"\([-+.0-9e]{1,24}\)"
_FORMS = "|".join(f"{n}{_A if n in _TAKES_ANGLE else ''} {','.join([_Q] * _ARITY[n])}" for n in _KINDS)
_ODD_LINE_RE = re.compile(  # a newline before a line in any other form, or not ending in one
    rf"\n(?!(?:{_FORMS});\n|\Z)"
)
_HEAD_RE = re.compile(re.escape(_HEADER) + r"qreg q\[([1-9][0-9]{0,8})\];\n")
# Names by their first two bytes as a little-endian int, in order, and the kind of each.
_LEADS, _LEAD_KINDS = zip(*sorted(
    (int.from_bytes(f"{name} "[:2].encode(), "little"), kind) for name, kind in _KINDS.items()))
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)  # the low k bytes of a word


def _parse_gate(line: str, num_qubits: int) -> Gate:
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


def _bulk(text: str) -> Circuit | None:
    """The circuit of text in emitted form, or None to leave the text to the line path."""
    # Arrays as long as the body stay uint8 or bool; positions are int32 (a body of under 2 GB).
    if (match := _HEAD_RE.match(text)) is None:
        return None
    skip = match.end()  # where the body starts, after the newline that ends the header
    if not skip < len(text) < 2**31 or _ODD_LINE_RE.search(text, skip - 1):
        return None
    data = np.frombuffer(raw := text.encode(), np.uint8, offset=skip)  # ASCII: a byte per character
    ends, opens, closes, lefts, rights = (np.flatnonzero(data == b).astype(np.int32) for b in b"\n[]()")
    starts = np.insert(ends[:-1] + 1, 0, 0)
    slot = np.searchsorted(_LEADS, np.ndarray((len(data) - 1,), "<u2", raw, skip, (1,))[starts])

    # Operands: per line the brackets up to its newline; the last one is the target.
    last = np.searchsorted(opens, ends) - 1
    value, length = np.zeros(len(opens), np.int32), closes - opens  # digits plus one
    for j in range(1, length.max()):
        value = np.where(j < length, value * 10 + data[np.minimum(opens + j, closes)] - 48, value)
    target, arity = value[last], np.diff(last, prepend=-1)
    c0 = np.where(arity > 1, value[last + 1 - arity], -1)
    c1 = np.where(arity > 2, value[last - 1], -1)
    apart = (c0 != target) & (c1 != target) & ((c0 != c1) | (arity < 3))
    if value.max() >= int(match[1]) or not np.all(apart):
        return None

    # Angles: float() of each distinct text in parentheses, read as three words of 8 bytes.
    rows, low, size = np.searchsorted(ends, lefts), lefts + 1, rights - lefts - 1
    # A word that starts within 8 bytes of the end holds no byte of an angle: the end is " q[0];\n".
    words = np.ndarray((len(data) - 7,), "<u8", raw, skip, (1,))  # 8 bytes from each offset
    parts = np.stack([words[np.minimum(low + i, len(words) - 1)] & _MASKS[np.clip(size - i, 0, 8)]
                      for i in (0, 8, 16)], 1)  # as 24 bytes, equal exactly when the texts are
    _, pick, inverse = np.unique(parts.view("V24"), return_index=True, return_inverse=True)
    spans = zip((low[pick] + skip).tolist(), (rights[pick] + skip).tolist())
    try:
        angles = [None, *(float(text[i:j]) for i, j in spans)]
    except ValueError:
        return None
    width = int(value.max()) + 2
    if not np.all(np.isfinite(angles[1:])) or len(_LEADS) * width**3 * len(angles) >= 2**63:
        return None
    # The gates set the peak memory, so the arrays they do not need go first.
    del raw, data, words, ends, starts, opens, closes, lefts, rights, low, size, parts
    del last, value, length, arity, apart

    # One Gate per distinct row of kind, qubits and angle text, told apart by one int64 key.
    angle_id = np.zeros(len(slot), np.int64)  # the angle's index in angles: 0, for None, if none
    angle_id[rows] = inverse.ravel() + 1
    key = (((slot * width + target) * width + c0 + 1) * width + c1 + 1) * len(angles) + angle_id
    _, pick, inverse = np.unique(key, return_index=True, return_inverse=True)
    del key
    distinct = np.empty(len(pick), object)
    for index in np.unique(slot[pick]).tolist():
        at = pick[group := np.flatnonzero(slot[pick] == index)]
        count = _RULES[kind := _LEAD_KINDS[index]][0]  # of controls
        # The rows were checked, so slots are set kind by kind: two thirds of the time of _gate.
        distinct[group] = gates = list(map(object.__new__, repeat(Gate, len(at))))
        deque(map(_set_kind, gates, repeat(kind)), 0)
        deque(map(_set_target, gates, target[at].tolist()), 0)
        controls = repeat(())
        if count:  # one tuple per distinct control set of the kind, shared by its gates
            pairs = c0[at].astype(np.int64) * width + c1[at] + 1  # int64: c0 and c1 are int32
            _, first, which = np.unique(pairs, return_index=True, return_inverse=True)
            shared = list(zip(*[c[at[first]].tolist() for c in (c0, c1)[:count]]))
            controls = map(shared.__getitem__, which.ravel().tolist())
        deque(map(_set_controls, gates, controls), 0)
        deque(map(_set_angle, gates, map(angles.__getitem__, angle_id[at].tolist())), 0)
    return _derived(int(match[1]), tuple(distinct[inverse.ravel()].tolist()), "")


@_acyclic
def parse_text(text: str) -> Circuit:
    """Parse OPENQASM 2.0 source restricted to the emitted subset.

    Every error is a ValueError naming its source line (counting from 1,
    blanks and comments included), except for text that ends early.
    """
    if not isinstance(text, str):
        raise ValueError(f"QASM text must be a str, got {type(text).__name__}")
    if (circuit := _bulk(text)) is not None:
        return circuit
    version, include = _HEADER.splitlines()
    statements = [(number, line) for number, line in enumerate(map(str.strip, text.splitlines()), 1)
                  if line and not line.startswith("//")]
    if not statements or statements[0][1] != version:
        where = f"line {statements[0][0]}: " if statements else ""
        raise ValueError(f"{where}missing OPENQASM 2.0 header")
    pos = 2 if len(statements) > 1 and statements[1][1] == include else 1  # of the qreg line
    if pos == len(statements):
        raise ValueError("missing qreg declaration")
    gates: list[Gate] = []
    number, line = statements[pos]
    try:
        if (qreg := _QREG_RE.match(line)) is None:
            raise ValueError(f"expected qreg declaration, got {line!r}")
        num_qubits = _width(int(qreg[1]))
        for number, line in islice(statements, pos + 1, None):
            gates.append(_parse_gate(line, num_qubits))
    except ValueError as exc:
        raise ValueError(f"line {number}: {exc}") from exc
    return _derived(num_qubits, tuple(gates), "")
