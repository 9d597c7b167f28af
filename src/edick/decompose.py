"""Lowering to the {single-qubit, CNOT} basis.

Every rewrite here is an exact unitary identity (no global-phase slack):
controlled phases split over two CNOTs, controlled rotations use the
conjugate-by-X trick, a CCRY is an RY multiplexor over 4 CNOTs (Mottonen et
al. 2004), and Toffoli uses the fixed 6-CNOT realization. A
k-control MCX (k >= 3) inside a circuit is 4(k-2) Toffolis over k-2 idle
qubits that it borrows from the register and restores exactly, whatever
their state (Barenco et al. 1995, Lemma 7.2). It takes the idle qubits
strictly between its lowest and highest qubit nearest the target first,
then the nearest ones outside that span. The choice depends only on the
gate and the register width. An MCX whose register has fewer than k-2 idle
qubits recurses through controlled powers of X instead, where
X**s = H . Phase(pi*s) . H, at about 3^k gates.

decompose_to_basis expands each distinct gate once per call and reuses that
expansion for its repeats. Equal gates may differ in the sign of a zero angle,
which the expansion keeps and emit_text prints, so the key is the gate's
fields plus math.copysign(1.0, angle). A circuit with nothing to lower is
returned as it is.

Templates share gate objects. One pool per call, keyed by the gate's fields,
hands out every CNOT and H, and Toffoli's PHASE(+-pi/4) gates, once each.
A CRY or CCRY builds each of its two RYs (+-theta/2 or +-theta/4) once and
reuses it wherever the gate-by-gate expansion has the same value with the same
sign of zero; that holds because (-a)/2 equals -(a/2) bit for bit, so a CCRY
is 8 gates over 2 RY and 2 CNOT objects. Templates make their gates unchecked
(circuit._gate) from the fields of gates that were checked, and each acts on
its source gate's qubits only, so the lowered circuit is not rechecked.
"""

from __future__ import annotations

import math

from .circuit import _CCRY, _CNOT, _CPHASE, _CRY, _H, _PHASE, _RY, _X
from .circuit import Circuit, Gate, _acyclic, _derived, _gate

_PRIMITIVE = {_X, _H, _RY, _PHASE, _CNOT}
_QUARTER = math.pi / 4.0


class _Pool(dict):
    """Basis gates one call shares, keyed by their _gate arguments, each built on first use."""

    def __missing__(self, key: tuple) -> Gate:
        gate = self[key] = _gate(*key)
        return gate


def _cphase_basis(lam: float, c: int, t: int, pool: _Pool) -> list[Gate]:
    half = lam / 2.0
    a = pool[_CNOT, t, (c,)]
    return [
        _gate(_PHASE, c, (), half), a, _gate(_PHASE, t, (), -half), a, _gate(_PHASE, t, (), half),
    ]


def _cry_basis(theta: float, c: int, t: int, pool: _Pool) -> list[Gate]:
    half = theta / 2.0
    p, m, a = _gate(_RY, t, (), half), _gate(_RY, t, (), -half), pool[_CNOT, t, (c,)]
    return [p, a, m, a]


def _ccry_basis(theta: float, c0: int, c1: int, t: int, pool: _Pool) -> list[Gate]:
    # RY multiplexed on (c0, c1) by (0, 0, 0, theta): each CNOT negates later RYs.
    quarter = theta / 2.0 / 2.0
    p, m = _gate(_RY, t, (), quarter), _gate(_RY, t, (), -quarter)
    a, b = pool[_CNOT, t, (c0,)], pool[_CNOT, t, (c1,)]
    return [p, a, m, b, p, a, m, b]


def _toffoli_basis(c0: int, c1: int, t: int, pool: _Pool) -> list[Gate]:
    ht, plus, minus = pool[_H, t], pool[_PHASE, t, (), _QUARTER], pool[_PHASE, t, (), -_QUARTER]
    a, b, c = pool[_CNOT, t, (c1,)], pool[_CNOT, t, (c0,)], pool[_CNOT, c1, (c0,)]
    return [
        ht, a, minus, b, plus, a, minus, b, pool[_PHASE, c1, (), _QUARTER], plus, ht,
        c, pool[_PHASE, c0, (), _QUARTER], pool[_PHASE, c1, (), -_QUARTER], c,
    ]


def _cxpow_basis(s: float, c: int, t: int, pool: _Pool) -> list[Gate]:
    # Controlled X**s; the H pair is harmless when the control is 0.
    ht = pool[_H, t]
    return [ht] + _cphase_basis(math.pi * s, c, t, pool) + [ht]


def _borrowed(controls: tuple[int, ...], t: int, width: int) -> list[int]:
    # Idle qubits inside the gate's span nearest the target first, then the
    # nearest ones outside it; ties go to the lower index. The inner gates of
    # _mcxpow_basis pass width 0: they borrow nothing.
    busy = {*controls, t}
    lo, hi = min(busy), max(busy)
    if hi >= width:
        return []
    idle = [q for q in range(lo + 1, hi) if q not in busy]
    need = len(controls) - 2
    if len(idle) < need:
        idle += [*range(lo), *range(hi + 1, width)]
    return sorted(idle, key=lambda q: (not lo < q < hi, abs(q - t), q))[:need]


def _mcx_basis(controls: tuple[int, ...], t: int, pool: _Pool, width: int) -> list[Gate]:
    k = len(controls)
    if k == 1:
        return [pool[_CNOT, t, controls]]
    if k == 2:
        return _toffoli_basis(controls[0], controls[1], t, pool)
    b = _borrowed(controls, t, width)
    if len(b) < k - 2:
        return _mcxpow_basis(1.0, controls, t, pool)
    # Barenco et al. 1995, Lemma 7.2: 4(k-2) Toffolis that restore b exactly.
    c = controls
    down = [(c[k - 1], b[k - 3], t)] + [(c[j], b[j - 2], b[j - 1]) for j in range(k - 2, 1, -1)]
    core = [(c[0], c[1], b[0])]
    chain = down + core + down[::-1] + down[1:] + core + down[:0:-1]
    return [g for c0, c1, tt in chain for g in _toffoli_basis(c0, c1, tt, pool)]


def _mcxpow_basis(s: float, controls: tuple[int, ...], t: int, pool: _Pool) -> list[Gate]:
    if len(controls) == 1:
        return _cxpow_basis(s, controls[0], t, pool)
    body, last = controls[:-1], controls[-1]
    inner = _mcx_basis(body, last, pool, 0)
    return (
        _cxpow_basis(s / 2.0, last, t, pool)
        + inner
        + _cxpow_basis(-s / 2.0, last, t, pool)
        + inner
        + _mcxpow_basis(s / 2.0, body, t, pool)
    )


def _expand(gate: Gate, pool: _Pool, width: int) -> list[Gate]:
    kind = gate.kind
    if kind is _CPHASE:
        return _cphase_basis(gate.angle, gate.controls[0], gate.target, pool)
    if kind is _CRY:
        return _cry_basis(gate.angle, gate.controls[0], gate.target, pool)
    if kind is _CCRY:
        return _ccry_basis(gate.angle, gate.controls[0], gate.controls[1], gate.target, pool)
    return _mcx_basis(gate.controls, gate.target, pool, width)  # MCX or TOFFOLI, the kinds left


@_acyclic
def decompose_to_basis(circuit: Circuit) -> Circuit:
    """Rewrite a circuit into single-qubit gates and CNOTs, exactly."""
    gates: list[Gate] = []
    expansions: dict[tuple, list[Gate]] = {}
    pool = _Pool()
    for gate in circuit.gates:
        if gate.kind in _PRIMITIVE:
            gates.append(gate)
            continue
        angle = gate.angle
        sign = None if angle is None else math.copysign(1.0, angle)
        key = (gate.kind, gate.target, gate.controls, angle, sign)
        expansion = expansions.get(key)
        if expansion is None:
            expansion = expansions[key] = _expand(gate, pool, circuit.num_qubits)
        gates.extend(expansion)
    if not expansions:
        return circuit
    return _derived(circuit.num_qubits, tuple(gates), circuit.label)
