"""Lowering to the {single-qubit, CNOT} basis.

Every rewrite here is an exact unitary identity (no global-phase slack):
controlled phases split over two CNOTs, controlled rotations use the
conjugate-by-X trick, Toffoli uses the fixed 6-CNOT realization, and MCX
recurses through controlled powers of X, where X**s = H . Phase(pi*s) . H.

decompose_to_basis expands each distinct gate once per call and reuses that
expansion for its repeats. Equal gates may differ in the sign of a zero angle,
which the expansion keeps and emit_text prints, so the key is the gate's
fields plus math.copysign(1.0, angle). A circuit with nothing to lower is
returned as it is.
"""

from __future__ import annotations

import math

from .circuit import (
    Circuit,
    Gate,
    GateKind,
    cnot,
    cphase,
    h,
    phase,
    ry,
)

_PRIMITIVE = {GateKind.X, GateKind.H, GateKind.RY, GateKind.PHASE, GateKind.CNOT}


def _cphase_basis(lam: float, c: int, t: int) -> list[Gate]:
    half = lam / 2.0
    return [phase(half, c), cnot(c, t), phase(-half, t), cnot(c, t), phase(half, t)]


def _cry_basis(theta: float, c: int, t: int) -> list[Gate]:
    half = theta / 2.0
    return [ry(half, t), cnot(c, t), ry(-half, t), cnot(c, t)]


def _ccry_basis(theta: float, c0: int, c1: int, t: int) -> list[Gate]:
    half = theta / 2.0
    return (
        _cry_basis(half, c1, t)
        + [cnot(c0, c1)]
        + _cry_basis(-half, c1, t)
        + [cnot(c0, c1)]
        + _cry_basis(half, c0, t)
    )


def _toffoli_basis(c0: int, c1: int, t: int) -> list[Gate]:
    quarter = math.pi / 4.0
    return [
        h(t),
        cnot(c1, t),
        phase(-quarter, t),
        cnot(c0, t),
        phase(quarter, t),
        cnot(c1, t),
        phase(-quarter, t),
        cnot(c0, t),
        phase(quarter, c1),
        phase(quarter, t),
        h(t),
        cnot(c0, c1),
        phase(quarter, c0),
        phase(-quarter, c1),
        cnot(c0, c1),
    ]


def _cxpow_basis(s: float, c: int, t: int) -> list[Gate]:
    # Controlled X**s; the H pair is harmless when the control is 0.
    return [h(t)] + _cphase_basis(math.pi * s, c, t) + [h(t)]


def _mcx_basis(controls: tuple[int, ...], t: int) -> list[Gate]:
    if len(controls) == 1:
        return [cnot(controls[0], t)]
    if len(controls) == 2:
        return _toffoli_basis(controls[0], controls[1], t)
    body, last = controls[:-1], controls[-1]
    inner = _mcx_basis(body, last)
    return (
        _cxpow_basis(0.5, last, t)
        + inner
        + _cxpow_basis(-0.5, last, t)
        + inner
        + _mcxpow_basis(0.5, body, t)
    )


def _mcxpow_basis(s: float, controls: tuple[int, ...], t: int) -> list[Gate]:
    if len(controls) == 1:
        return _cxpow_basis(s, controls[0], t)
    body, last = controls[:-1], controls[-1]
    inner = _mcx_basis(body, last)
    return (
        _cxpow_basis(s / 2.0, last, t)
        + inner
        + _cxpow_basis(-s / 2.0, last, t)
        + inner
        + _mcxpow_basis(s / 2.0, body, t)
    )


def decompose_gate(gate: Gate) -> list[Gate]:
    """Exact expansion of one gate into {X, H, RY, Phase, CNOT}."""
    kind = gate.kind
    if kind in _PRIMITIVE:
        return [gate]
    if kind is GateKind.CPHASE:
        return _cphase_basis(gate.angle, gate.controls[0], gate.target)
    if kind is GateKind.CRY:
        return _cry_basis(gate.angle, gate.controls[0], gate.target)
    if kind is GateKind.CCRY:
        return _ccry_basis(gate.angle, gate.controls[0], gate.controls[1], gate.target)
    if kind is GateKind.TOFFOLI:
        return _toffoli_basis(gate.controls[0], gate.controls[1], gate.target)
    if kind is GateKind.MCX:
        return _mcx_basis(gate.controls, gate.target)
    raise ValueError(f"unsupported gate kind {kind}")  # pragma: no cover


def decompose_to_basis(circuit: Circuit) -> Circuit:
    """Rewrite a circuit into single-qubit gates and CNOTs, exactly."""
    gates: list[Gate] = []
    expansions: dict[tuple, list[Gate]] = {}
    for gate in circuit.gates:
        if gate.kind in _PRIMITIVE:
            gates.append(gate)
            continue
        angle = gate.angle
        sign = None if angle is None else math.copysign(1.0, angle)
        key = (gate.kind, gate.target, gate.controls, angle, sign)
        expansion = expansions.get(key)
        if expansion is None:
            expansion = expansions[key] = decompose_gate(gate)
        gates.extend(expansion)
    if not expansions:
        return circuit
    return Circuit(circuit.num_qubits, tuple(gates), circuit.label)
