"""Dense statevector simulation of the gate set.

Amplitudes are complex128 over basis index sum(b_q * 2**(n-1-q)), matching the
circuit convention (qubit 0 is the leftmost ket position).  Purely classical
permutation gates (X, CNOT, Toffoli, MCX) are applied as index moves, never as
matrix arithmetic, so they are float-exact.

When `run` gets the circuit object it ran last (a verifier runs one circuit on
input after input), it builds a fused plan once and reuses it: each run of two
or more consecutive permutation gates, applied to arange(2**n), becomes one
index array, applied as a single gather that only moves values, so bit-exact.

Arithmetic gates (H, RY, PHASE and their controlled forms) act only on the
amplitude pairs that can be nonzero while that support is small next to 2**n:
the pairs are gathered into a block, the same kernel runs on the block, and
the block is scattered back, so amplitudes are bit-identical to dense
simulation. A verifier's inputs hold N of 2**n amplitudes; a state that
spreads past the cutoff is simulated densely from there on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable

import numpy as np

from .circuit import Circuit, Gate, GateKind

_NORM_TOL = 1e-10
_MAX_QUBITS = 24  # dense float64 memory wall; acceptance needs no more than 17
_PERMUTATIONS = (GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.MCX)
_DIAGONAL = (GateKind.PHASE, GateKind.CPHASE)
_UNCONTROLLED = {
    GateKind.CRY: GateKind.RY,
    GateKind.CCRY: GateKind.RY,
    GateKind.CPHASE: GateKind.PHASE,
}
# Fixed numpy cost of one support-restricted step, in amplitudes of a dense
# pass, from per-gate timings at 13-17 qubits; see `_restricts`.
_RESTRICT_OVERHEAD = 8192


def _check_width(num_qubits: int) -> None:
    if not 1 <= num_qubits <= _MAX_QUBITS:
        raise ValueError(f"register width must be in 1..{_MAX_QUBITS}")


def _norm_drift(amps: np.ndarray) -> float:
    """|norm - 1| of a contiguous complex128 array, as one dot over its float64 view."""
    f = amps.view(np.float64)
    return abs(math.sqrt(f.dot(f)) - 1.0)


@dataclass(frozen=True)
class Statevector:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_width(self.num_qubits)
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError("amplitude count must be 2**num_qubits")
        if _norm_drift(amps) > _NORM_TOL:
            raise ValueError("statevector must be normalized to 1 within 1e-10")
        object.__setattr__(self, "amplitudes", amps)


def zero_state(num_qubits: int) -> Statevector:
    return basis_state(num_qubits, 0)


def basis_state(num_qubits: int, index: int) -> Statevector:
    _check_width(num_qubits)
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return Statevector(num_qubits, amps)


def from_amplitudes(amplitudes: np.ndarray | list[complex]) -> Statevector:
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    n = int(amps.shape[0]).bit_length() - 1
    return Statevector(n, amps)


def _apply_inplace(tensor: np.ndarray, gate: Gate, num_qubits: int) -> None:
    # Pin every control axis to 1; the remaining view is the active subspace.
    idx: list[object] = [slice(None)] * num_qubits
    for c in gate.controls:
        idx[c] = 1
    view = tensor[tuple(idx)]
    axis = gate.target - sum(c < gate.target for c in gate.controls)
    lo: list[object] = [slice(None)] * view.ndim
    hi: list[object] = [slice(None)] * view.ndim
    lo[axis] = 0
    hi[axis] = 1
    sl0, sl1 = tuple(lo), tuple(hi)

    kind = gate.kind
    if kind in _PERMUTATIONS:
        swap = view[sl0].copy()
        view[sl0] = view[sl1]
        view[sl1] = swap
    elif kind is GateKind.H:
        a = view[sl0].copy()
        b = view[sl1].copy()
        r = 1.0 / math.sqrt(2.0)
        view[sl0] = (a + b) * r
        view[sl1] = (a - b) * r
    elif kind in (GateKind.RY, GateKind.CRY, GateKind.CCRY):
        c = math.cos(gate.angle / 2.0)
        s = math.sin(gate.angle / 2.0)
        a = view[sl0].copy()
        b = view[sl1].copy()
        view[sl0] = c * a - s * b
        view[sl1] = s * a + c * b
    elif kind in (GateKind.PHASE, GateKind.CPHASE):
        view[sl1] = view[sl1] * complex(math.cos(gate.angle), math.sin(gate.angle))
    else:  # pragma: no cover - the enum is closed
        raise ValueError(f"unsupported gate kind {kind}")


def apply(state: Statevector, gate: Gate) -> Statevector:
    """Apply one gate, returning a fresh statevector."""
    if max(gate.qubits) >= state.num_qubits:
        raise ValueError("gate acts outside the register")
    amps = state.amplitudes.copy()
    _apply_inplace(amps.reshape([2] * state.num_qubits), gate, state.num_qubits)
    return Statevector(state.num_qubits, amps)


# The circuit `run` saw last (held, so its id is not reused) and, once seen again, its plan.
_last: tuple[Circuit | None, list | None] = (None, None)


def _fuse(circuit: Circuit) -> list[tuple[object, Gate | np.ndarray]]:
    """(label, step) pairs: a lone gate, or the index array of a permutation run."""
    n, plan, start = circuit.num_qubits, [], 0
    for permutes, group in groupby(circuit.gates, lambda g: g.kind in _PERMUTATIONS):
        gates = list(group)
        if permutes and len(gates) > 1:
            index = np.arange(2**n, dtype=np.int32)
            for gate in gates:
                _apply_inplace(index.reshape([2] * n), gate, n)
            plan.append((f"the gather of gates {start}..{start + len(gates) - 1}", index))
        else:
            plan.extend(zip(gates, gates))
        start += len(gates)
    return plan


def _steps(circuit: Circuit) -> Iterable[tuple[object, Gate | np.ndarray]]:
    global _last
    seen, plan = _last
    if seen is not circuit:
        _last = (circuit, None)
        return zip(circuit.gates, circuit.gates)
    plan = _fuse(circuit) if plan is None else plan
    _last = (circuit, plan)
    return plan


def _restricts(support: int, size: int) -> bool:
    """Whether a step restricted to `support` of `size` amplitudes beats a dense pass.

    A restricted amplitude costs about eight dense ones, plus the fixed overhead.
    """
    return 8 * support + _RESTRICT_OVERHEAD < size


def _apply_on_support(
    amps: np.ndarray, gate: Gate, num_qubits: int, support: np.ndarray, mark: np.ndarray
) -> np.ndarray:
    """Apply an arithmetic gate to the pairs that meet `support`; return the new support.

    `support` holds every index whose amplitude may be nonzero; `mark` is an
    all-False array of 2**n flags, which is left all False again.
    """
    bit = 1 << (num_qubits - 1 - gate.target)
    controls = sum(1 << (num_qubits - 1 - c) for c in gate.controls)
    active = (support & controls) == controls if controls else None
    selected = support if active is None else support[active]
    high = (selected & bit) != 0
    keys = selected[high] ^ bit  # the target-0 index of each pair; a phase acts on no other
    if gate.kind not in _DIAGONAL:
        # A pair is met once or twice; add the pairs met only by their target-0 member.
        low = selected[~high]
        mark[keys] = True
        keys = np.concatenate((keys, low[~mark[low]]))
        mark[keys] = False
    pairs = np.empty((2, keys.size), dtype=keys.dtype)
    pairs[0] = keys
    np.bitwise_or(keys, bit, out=pairs[1])
    block = amps[pairs]
    kind = _UNCONTROLLED.get(gate.kind, gate.kind)
    _apply_inplace(block, Gate(kind, 0, angle=gate.angle), 1)
    amps[pairs] = block
    if gate.kind in _DIAGONAL:
        return support
    if active is None:
        return pairs.ravel()
    return np.concatenate((support[~active], pairs.ravel()))


def _arithmetic(step: tuple[object, Gate | np.ndarray]) -> bool:
    return isinstance(step[1], Gate) and step[1].kind not in _PERMUTATIONS


def run(state: Statevector, circuit: Circuit) -> Statevector:
    """Apply a whole circuit, checking norm preservation after every step.

    A step is one gate on the first run of a circuit object, and one gate or
    one gather of its fused plan on later runs; a drift names the step.
    An arithmetic gate touches only the pairs that meet the support (the
    nonzero amplitudes, counted at the start of each run of such gates) while
    that support is small next to 2**n (see `_restricts`); from the first
    step that is too wide, every step is dense. The result is bit-identical.
    """
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit width {circuit.num_qubits} does not match state width {state.num_qubits}"
        )
    n = state.num_qubits
    amps = state.amplitudes.copy()
    spare = np.empty_like(amps)
    # Once an arithmetic step is too wide to restrict, all later steps are dense:
    # a count costs a dense pass, and the supports it finds seldom shrink again.
    dense = not _restricts(0, amps.size)
    mark = None if dense else np.zeros(amps.size, dtype=bool)
    for arithmetic, steps in groupby(_steps(circuit), _arithmetic):
        support = np.flatnonzero(amps) if arithmetic and not dense else None
        for label, step in steps:
            if support is not None and _restricts(support.size, amps.size):
                support = _apply_on_support(amps, step, n, support, mark)
                drift = _norm_drift(amps[support])
            else:
                support, dense = None, dense or arithmetic
                if isinstance(step, Gate):
                    _apply_inplace(amps.reshape([2] * n), step, n)
                else:  # indices are in range; "clip" writes `out` without a buffered copy
                    amps, spare = np.take(amps, step, out=spare, mode="clip"), amps
                drift = _norm_drift(amps)
            if drift > _NORM_TOL:
                raise AssertionError(f"norm drifted past 1e-10 after {label}")
    return Statevector(n, amps)


def fidelity(a: Statevector, b: Statevector) -> float:
    """|<a|b>|, i.e. overlap magnitude, insensitive to global phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("fidelity needs equal register widths")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


def to_csv(state: Statevector) -> str:
    """Amplitude dump with columns index,real,imag (one row per basis index)."""
    lines = ["index,real,imag"]
    for i, amp in enumerate(state.amplitudes):
        lines.append(f"{i},{float(amp.real)!r},{float(amp.imag)!r}")
    return "\n".join(lines) + "\n"
