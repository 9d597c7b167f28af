"""Statevector simulation of the gate set.

Amplitudes are complex128 over basis index sum(b_q * 2**(n-1-q)), matching the
circuit convention (qubit 0 is the leftmost ket position).  Purely classical
permutation gates (X, CNOT, Toffoli, MCX) only move amplitudes, never do
matrix arithmetic, so they are float-exact.

`run_rows` simulates many states in one pass over a circuit and returns their
output amplitudes at given basis indices; `run` takes one state through the
same pass. A batch is given as basis rows that hold every nonzero input
amplitude and an (S, B) block of the amplitudes at those rows, one column per
state. A permutation gate rewrites the rows with bit operations. An arithmetic
gate (H, RY, PHASE and their controlled forms) adds zero rows for the partners
its active rows lack, takes each pair once from its target-0 row and applies
the dense kernel's elementwise formulas to the (G, B) blocks, so every amplitude
is bit-identical to dense simulation. A verifier's inputs share N of 2**n
indices. Once the held rows are too many for this to pay, each state goes on
alone, densely and gate by gate. A batch that stays sparse to the end is read
from its held rows and makes no 2**n state. Both check their arguments at the
call. In both paths a state's norm is checked where it enters and after every
gate that changes amplitudes. Only a `Statevector(...)` that a caller
constructs is checked: the library's own states (`basis_state`, `build_state`,
`dicke_state` and those `run` returns) come from checked parts through `_state`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .circuit import Circuit, Gate, GateKind, _integer

_NORM_TOL = 1e-10
_MAX_QUBITS = 24  # dense float64 memory wall; acceptance needs no more than 17
_PERMUTATIONS = (GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.MCX)
_DIAGONAL = (GateKind.PHASE, GateKind.CPHASE)
_ROTATIONS = (GateKind.RY, GateKind.CRY, GateKind.CCRY)
_CHUNK = 64  # states in one block, so its memory does not grow with the batch
# Costs of a sparse step in dense-pass amplitudes, from per-step timings at
# 12-16 qubits and 1-36 states; see `_sparse_pays`.
_SPARSE_ROW = 3
_SPARSE_STEP = 2048
_BLOCK_MAX = 1 << 19  # amplitudes: 8 MiB
_PIECE = 1 << 15  # amplitudes of a block that one gather of pairs may hold


def _check_width(num_qubits: object) -> int:
    num_qubits = _integer(num_qubits, "register width must be an integer")
    if not 1 <= num_qubits <= _MAX_QUBITS:
        raise ValueError(f"register width must be in 1..{_MAX_QUBITS}")
    return num_qubits


def _complex(values: object) -> np.ndarray:
    try:
        return np.ascontiguousarray(values, dtype=np.complex128)
    except (TypeError, OverflowError):  # numpy's errors for values that are not numbers
        raise ValueError("amplitudes must be complex numbers") from None


def _norm_drift(amps: np.ndarray) -> float:
    """|norm - 1| of a contiguous complex128 array, as one dot over its float64 view."""
    f = amps.view(np.float64)
    return abs(math.sqrt(f.dot(f)) - 1.0)


def _drifts(block: np.ndarray) -> np.ndarray:
    """|norm - 1| of each column of a C-contiguous complex128 block, by one einsum over its float64 view."""
    f = block.view(np.float64)
    return np.abs(np.sqrt(np.einsum("ij,ij->j", f, f).reshape(-1, 2).sum(1)) - 1.0)


@dataclass(frozen=True, eq=False)  # the amplitudes are an array, so states compare by identity
class Statevector:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_qubits", _check_width(self.num_qubits))
        amps = _complex(self.amplitudes).reshape(-1)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError("amplitude count must be 2**num_qubits")
        if not _norm_drift(amps) <= _NORM_TOL:  # NaN fails too
            raise ValueError(f"statevector must be normalized to 1 within {_NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)


def _state(num_qubits: int, rows, values) -> Statevector:
    """`values` at basis indices `rows`, zeros elsewhere; unchecked, for a checked width, rows and norm."""
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[rows] = values
    state = object.__new__(Statevector)
    object.__setattr__(state, "num_qubits", num_qubits)
    object.__setattr__(state, "amplitudes", amps)
    return state


def zero_state(num_qubits: int) -> Statevector:
    return basis_state(num_qubits, 0)


def basis_state(num_qubits: int, index: int) -> Statevector:
    num_qubits = _check_width(num_qubits)
    index = _integer(index, "basis index must be an integer")
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    return _state(num_qubits, index, 1.0)


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

    if gate.kind in _PERMUTATIONS:
        swap = view[sl0].copy()
        view[sl0] = view[sl1]
        view[sl1] = swap
        return
    new_a, new_b = _mixed(gate.kind, gate.angle, view[sl0], view[sl1])
    if gate.kind not in _DIAGONAL:
        view[sl0] = new_a
    view[sl1] = new_b


def _mixed(kind: GateKind, angle: float | None, a, b):
    """New (target 0, target 1) amplitudes of an arithmetic gate's pairs, elementwise.

    A diagonal gate returns `a` itself, which it leaves alone.
    """
    if kind is GateKind.H:
        r = 1.0 / math.sqrt(2.0)
        return (a + b) * r, (a - b) * r
    if kind in _ROTATIONS:
        c = math.cos(angle / 2.0)
        s = math.sin(angle / 2.0)
        return c * a - s * b, s * a + c * b
    return a, b * complex(math.cos(angle), math.sin(angle))


def _sparse_pays(rows: int, states: int, size: int) -> bool:
    """Whether an arithmetic step on `rows` held rows of `states` states beats dense passes.

    In amplitudes of a dense pass, a held row costs about one per state and
    `_SPARSE_ROW` for its index, and the step about `_SPARSE_STEP` more; the
    block also stays within `_BLOCK_MAX` amplitudes.
    """
    return (
        rows * (states + _SPARSE_ROW) + _SPARSE_STEP < states * size
        and rows * states <= _BLOCK_MAX
    )


def _check(drift: float, label: object) -> None:
    if not drift <= _NORM_TOL:  # NaN fails too
        raise AssertionError(f"norm drifted past {_NORM_TOL} after {label}")


def _sparse(idx: np.ndarray, columns: np.ndarray, circuit: Circuit):
    """Walk the states of `columns`, held at rows `idx`, through the circuit while sparse steps pay.

    Returns the held rows, the block of their amplitudes (a column per state)
    and the index of the first gate left for the dense path, or the gate count.
    """
    n, (rows, count), size = circuit.num_qubits, columns.shape, 1 << circuit.num_qubits
    pos, synced = None, idx[:0]  # at the first arithmetic step, the row of each index or -1; the indices it holds
    block = np.zeros((2 * rows, count), np.complex128)
    block[:rows] = columns
    for k, gate in enumerate(circuit.gates):
        kind, bit = gate.kind, 1 << (n - 1 - gate.target)
        cmask = sum(1 << (n - 1 - c) for c in gate.controls)
        if kind in _PERMUTATIONS:  # moves indices, not amplitudes: the norms stay
            idx = idx ^ bit if not cmask else np.where((idx & cmask) == cmask, idx ^ bit, idx)
            continue
        if not _sparse_pays(rows, count, size):
            return idx, block[:rows], k
        if idx is not synced:
            pos = np.full(size, -1, dtype=np.int32) if pos is None else pos
            pos[synced] = -1
            pos[idx] = np.arange(rows, dtype=np.int32)
            synced = idx
        if kind in _DIAGONAL:
            hit = np.flatnonzero((idx & (cmask | bit)) == cmask | bit)
            block[hit] = _mixed(kind, gate.angle, None, block[hit])[1]
        else:
            partners = idx[(idx & cmask) == cmask] ^ bit
            joined = partners[pos[partners] < 0]
            added = joined.size
            if added:  # zero rows for the partners outside the held rows
                pos[joined] = np.arange(rows, rows + added, dtype=np.int32)
                idx = synced = np.concatenate((idx, joined))
                if rows + added > len(block):
                    room = (rows + 2 * added, count)  # twice the rows in use after the step
                    block = np.concatenate((block[:rows], np.zeros(room, np.complex128)))
                rows += added
            low = np.flatnonzero((idx & (cmask | bit)) == cmask)  # each pair once, from its target-0 row
            up = pos[idx[low] ^ bit]
            piece = max(1, _PIECE // count)  # pairs at a time, bounding the temporaries
            for p in range(0, low.size, piece):
                lo, hi = low[p : p + piece], up[p : p + piece]
                block[lo], block[hi] = _mixed(kind, gate.angle, block[lo], block[hi])
        _check(np.max(_drifts(block[:rows])), gate)  # NaN propagates
    return idx, block[:rows], len(circuit.gates)


def _dense(amps: np.ndarray, gates: tuple[Gate, ...], num_qubits: int) -> None:
    """Apply `gates` in place to checked dense amplitudes, checking the norm after each arithmetic gate."""
    tensor = amps.reshape([2] * num_qubits)
    for gate in gates:
        _apply_inplace(tensor, gate, num_qubits)
        if gate.kind not in _PERMUTATIONS:
            _check(_norm_drift(amps), gate)


def _chunks(rows, amplitudes, circuit: Circuit) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Check a batch now; then yield `_sparse` of each chunk of up to `_CHUNK` states and `_BLOCK_MAX` amplitudes."""
    size = 1 << _check_width(circuit.num_qubits)
    idx = np.asarray(rows)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError("rows must be a 1-D array of integers")
    idx = idx.astype(np.int64)
    block = _complex(amplitudes)
    if block.ndim != 2 or block.shape[0] != idx.size:
        raise ValueError(f"amplitudes must be a ({idx.size}, B) block, one row per basis row")
    if np.unique(idx).size < idx.size or np.any((idx < 0) | (idx >= size)):
        raise ValueError(f"rows must be distinct basis indices in 0..{size - 1}")
    if not np.all(_drifts(block) <= _NORM_TOL):  # NaN fails too
        raise ValueError(f"every column must be normalized to 1 within {_NORM_TOL}")
    per = max(1, min(_CHUNK, _BLOCK_MAX // max(1, idx.size)))
    return (_sparse(idx, block[:, start : start + per], circuit) for start in range(0, block.shape[1], per))


def _finish(held: np.ndarray, column: np.ndarray, circuit: Circuit, k: int) -> Statevector:
    """A column of a chunk as a state, taken densely through the gates from `k` on."""
    state = _state(circuit.num_qubits, held, column)
    _dense(state.amplitudes, circuit.gates[k:], circuit.num_qubits)
    return state


def run_rows(rows, amplitudes, circuit: Circuit, read) -> np.ndarray:
    """The (len(read), B) block of `circuit`'s output amplitudes at the basis indices `read`, from one pass.

    Column j of the (len(rows), B) block `amplitudes` holds state j's
    amplitudes at the distinct basis indices `rows`; every other amplitude is
    zero. Columns go through in chunks of at most `_CHUNK` and of at most
    `_BLOCK_MAX` held amplitudes, held as their rows (see the module docstring)
    while the arithmetic steps pay (`_sparse_pays`), then each state alone,
    densely. A chunk that ends sparse is read from its held rows, where an
    index not held reads 0, and makes no 2**n state. The arguments are checked
    at the call; every norm on entry and after every gate that changes
    amplitudes, and a drift names the gate.
    """
    chunks, size = _chunks(rows, amplitudes, circuit), 1 << circuit.num_qubits
    read = np.asarray(read)
    if read.ndim != 1 or read.dtype.kind not in "iu" or np.any((read < 0) | (read >= size)):
        raise ValueError(f"read must be a 1-D array of basis indices in 0..{size - 1}")
    pieces = [np.zeros((read.size, 0), np.complex128)]
    for held, columns, k in chunks:
        if k < len(circuit.gates):
            pieces.append(np.array([_finish(held, c, circuit, k).amplitudes[read] for c in columns.T]).T)
        else:  # the held row of each read index, if any, by a search of the sorted rows
            order = np.argsort(held)
            at = order[np.searchsorted(held, read, sorter=order).clip(max=held.size - 1)]
            pieces.append(np.where((held[at] == read)[:, None], columns[at], 0))
    return np.concatenate(pieces, axis=1)


def run(state: Statevector, circuit: Circuit) -> Statevector:
    """Apply a whole circuit, checking the norm after every arithmetic gate: one chunk of `run_rows`'s pass.

    The state is checked again at the call, so amplitudes changed since it was
    made are refused. A drift names the gate. The result is bit-identical to
    dense gate-by-gate simulation.
    """
    if state.num_qubits != circuit.num_qubits:
        raise ValueError(f"circuit width {circuit.num_qubits} does not match state width {state.num_qubits}")
    amps = state.amplitudes
    # An amplitude is nonzero when either of its two bytes of flags is.
    index = np.flatnonzero((amps.view(np.float64) != 0).view(np.uint16))
    held, columns, k = next(_chunks(index, amps[index, None], circuit))
    return _finish(held, columns[:, 0], circuit, k)


def fidelity(a: Statevector, b: Statevector) -> float:
    """|<a|b>|, i.e. overlap magnitude, insensitive to global phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("fidelity needs equal register widths")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))
