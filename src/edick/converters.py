"""Circuits that move a level-encoded amplitude vector between encodings.

The staircase (edick) form is the hub: the unfolding turns it into one-hot
and the compression turns it into binary. One-hot -> binary runs the
unfolding backwards, then the compression; binary -> one-hot is its inverse.
`_converter` builds every direction's circuit from those two and a
`ConverterPlan`, not scanned again; `build_converter` makes the plan and
returns both, and its docstring holds each direction's contract. The named
builders are `build_converter` with a fixed direction. Qubit 0 is the
leftmost ket position and carries the most significant bit of any binary
register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .circuit import _CNOT, _CPHASE, _H, _MCX, _PHASE, _TOFFOLI, _X, Circuit, Gate, _gate
from .circuit import _acyclic, _derived, _integer, _width
from .encodings import _KIND_LAYOUT, EncodingKind, _levels


class EvenMethod(Enum):
    """Strategy for an even level count, where halving does not divide evenly.

    RECURSION peels one qubit and reduces to the odd case below, ancilla
    free but at the price of one multi-controlled X. The two expansion
    methods embed the problem into a larger odd instance on fresh |0>
    qubits: the next size up, or the next size of the form 2**k + 1
    (which is self-similar under halving, so no further padding is ever
    needed).
    """

    RECURSION = "recursion"
    EXPAND_TO_N_PLUS_1 = "expand-n-plus-1"
    EXPAND_TO_POW2 = "expand-pow2"


class Direction(Enum):
    EDICK_TO_ONEHOT = "edick-to-onehot"
    EDICK_TO_BINARY = "edick-to-binary"
    ONEHOT_TO_BINARY = "onehot-to-binary"
    BINARY_TO_ONEHOT = "binary-to-onehot"
    CNOT_STAIR = "cnot-stair"  # quadratic baseline of edick-to-onehot


_DEFAULT_METHOD = EvenMethod.EXPAND_TO_POW2  # of the builders, BinomialSpec, the CLI and the sweep

# Where each end of a converter keeps level i (see build_converter): an encoding,
# plus 1 when a |1> flag qubit sits at the far right, so the unfolding reads
# (2 << i) - 1 and one-hot <-> binary (i << 1) | 1. The None plan (the
# edick-target binomial pipeline) is edick to edick.
_EDICK, _ONEHOT, _BINARY = EncodingKind.EDICK, EncodingKind.ONE_HOT, EncodingKind.BINARY
_LAYOUTS = {
    Direction.EDICK_TO_ONEHOT: ((_EDICK, 1), (_ONEHOT, 0)),
    Direction.EDICK_TO_BINARY: ((_EDICK, 0), (_BINARY, 0)),
    Direction.ONEHOT_TO_BINARY: ((_ONEHOT, 0), (_BINARY, 1)),
    Direction.BINARY_TO_ONEHOT: ((_BINARY, 1), (_ONEHOT, 0)),
    Direction.CNOT_STAIR: ((_EDICK, 1), (_ONEHOT, 0)),
    None: ((_EDICK, 0), (_EDICK, 0)),
}


@dataclass(frozen=True)
class ConverterPlan:
    """Register of a converter, derived from its level count, method and direction.

    The `ancilla` leftmost qubits start and end in |0>; `total_qubits` adds
    the staircase's num_levels-1 qubits and any |1> flag. Only the three
    compressing directions keep `method`, and they need an `EvenMethod`.
    `direction` is None when a pipeline attaches no conversion stage.
    """

    num_levels: int
    method: EvenMethod | None
    total_qubits: int = field(init=False)
    ancilla: int = field(init=False)
    direction: Direction | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_levels", _levels(self.num_levels))
        if self.method is not None and type(self.method) is not EvenMethod:
            raise ValueError(f"method must be an EvenMethod or None, got {self.method!r}")
        if self.direction is not None and type(self.direction) is not Direction:
            raise ValueError(f"direction must be a Direction or None, got {self.direction!r}")
        (kind_in, flag_in), (kind_out, flag_out) = _LAYOUTS[self.direction]
        if _BINARY not in (kind_in, kind_out):
            object.__setattr__(self, "method", None)
        elif self.method is None:
            raise ValueError(f"{self.direction.value} needs an EvenMethod")
        anc = 0 if self.method is None else _peak_ancilla(self.num_levels, self.method)
        object.__setattr__(self, "ancilla", anc)
        object.__setattr__(self, "total_qubits", anc + self.num_levels - 1 + max(flag_in, flag_out))

    def input_index(self, level: int) -> int:
        return self._index(level, *_LAYOUTS[self.direction][0])

    def output_index(self, level: int) -> int:
        return self._index(level, *_LAYOUTS[self.direction][1])

    def _index(self, level: int, kind: EncodingKind, flag: int) -> int:
        level = _integer(level, "level must be an integer")
        if not 0 <= level < self.num_levels:
            raise ValueError(f"level {level} outside 0..{self.num_levels - 1}")
        return (_KIND_LAYOUT[kind].row(level) << flag) | flag  # the register holds every level


def binary_width(num_levels: int) -> int:
    """Qubits needed to hold level indices 0..num_levels-1 in binary."""
    return (_levels(num_levels) - 1).bit_length()


# ---------------------------------------------------------------------------
# staircase -> one-hot


def _onehot_gates(view: tuple[int, ...]) -> list[Gate]:
    n = len(view)
    if n == 2:
        return [_gate(_CNOT, view[1], (view[0],))]
    if n % 2:
        # Odd width: the leftmost qubit joins after the even sub-block.
        return _onehot_gates(view[1:]) + [_gate(_CNOT, view[1], (view[0],))]
    half = n // 2
    gates = [_gate(_CNOT, view[2 * i + 1], (view[2 * i],)) for i in range(half)]
    gates += _onehot_gates(view[::2])
    gates += [_gate(_CNOT, view[2 * i + 2], (view[2 * i + 1],)) for i in range(half - 1)]
    return gates


def build_edick_to_onehot(num_levels: int) -> Circuit:
    """The edick-to-onehot unfolding; see `build_converter` for its contract."""
    return build_converter(Direction.EDICK_TO_ONEHOT, num_levels)[0]


def build_cnot_stair(num_levels: int) -> Circuit:
    """The cnot-stair baseline of edick-to-onehot; see `build_converter` for its contract."""
    return build_converter(Direction.CNOT_STAIR, num_levels)[0]


# ---------------------------------------------------------------------------
# staircase -> binary


def _expansion(levels: int, method: EvenMethod) -> int:
    """Fresh |0> qubits an expansion method adds to an even level count."""
    if method is EvenMethod.EXPAND_TO_N_PLUS_1:
        return 1
    return (1 << (levels - 2).bit_length()) + 1 - levels


def _peak_ancilla(levels: int, method: EvenMethod) -> int:
    """The most ancillas _binary_gates holds at once for `levels` levels."""
    if levels <= 3 or method is EvenMethod.RECURSION:
        return 0
    if levels % 2:
        return _peak_ancilla((levels - 1) // 2 + 1, method)
    extra = _expansion(levels, method)
    return extra + _peak_ancilla(levels + extra, method)


def _adder_gates(qubits: tuple[int, ...], shift: int) -> list[Gate]:
    """Fourier-space adder: |j> -> |(j + shift) mod 2**n>, exactly.

    Uses the swapless transform, whose qubit at position q (0 = leftmost)
    carries frequency 2**q; the diagonal shift phases follow that layout.
    """
    n = len(qubits)
    d = shift % (1 << n)
    qft: list[Gate] = []
    for t in range(n):
        qft.append(_gate(_H, qubits[t]))
        for c in range(t + 1, n):
            qft.append(_gate(_CPHASE, qubits[t], (qubits[c],), math.pi / (1 << (c - t))))
    shifts = []
    for q in range(n):
        turns = (d << q) % (1 << n)
        shifts.append(_gate(_PHASE, qubits[q], (), 2.0 * math.pi * turns / (1 << n)))
    return qft + shifts + list(map(Gate.inverse, reversed(qft)))


@_acyclic
def build_adder(num_qubits: int, shift: int) -> Circuit:
    """Modular adder on a binary register; shift is reduced mod 2**n."""
    num_qubits = _width(num_qubits)
    shift = _integer(shift, "shift must be an integer")
    gates = _adder_gates(tuple(range(num_qubits)), shift)
    return _derived(num_qubits, tuple(gates), f"adder_{num_qubits}_plus_{shift}")


def _binary_gates(view: tuple[int, ...], method: EvenMethod, free: list[int]) -> list[Gate]:
    """Compress a staircase of len(view)+1 levels into its binary register.

    `free` is the stack of idle |0> ancillas. An expansion pops its qubits and
    pushes them back in pop order, so a sibling half gets the same qubits
    reversed: at N=11 expand-pow2 the first half takes (2, 1, 0) and the
    second (0, 1, 2). The expand-pow2 gate lists, and their digests, keep it.
    """
    levels = len(view) + 1
    if levels == 2:
        return []
    if levels == 3:
        return [_gate(_CNOT, view[1], (view[0],))]
    if levels % 2:
        return _odd_gates(view, method, free)
    if method is EvenMethod.RECURSION:
        return _recursion_gates(view)
    extra = tuple(free.pop() for _ in range(_expansion(levels, method)))
    gates = _binary_gates(extra + view, method, free)
    free.extend(extra)
    return gates


def _odd_gates(view: tuple[int, ...], method: EvenMethod, free: list[int]) -> list[Gate]:
    # Split into halves of `half` qubits, each a staircase of half+1 levels.
    levels = len(view) + 1
    half = (levels - 1) // 2
    first, second = view[:half], view[half:]
    m = (half - 1).bit_length()
    d = (1 << m) - half

    gates = _binary_gates(first, method, free)
    gates += _binary_gates(second, method, free)

    # Offset the second half's value by d so its 2**m bit flags "second
    # half saturated", i.e. the level spilled into the first half.
    adder_register = second[-(m + 1):]
    if d > 0:
        gates += _adder_gates(adder_register, d)
    # Copy the first half's m value bits onto the second half's zeros,
    # then clear the first half, controlled on the saturation flag.
    gates += [_gate(_CNOT, second[half - 1 - r], (first[half - 1 - r],)) for r in range(m)]
    gates += [
        _gate(_TOFFOLI, first[half - 1 - r], (second[half - 1 - m], second[half - 1 - r]))
        for r in range(m)
    ]
    if d > 0:
        gates += _adder_gates(adder_register, -d)
    else:
        # half = 2**m exactly: the only unhandled level is the top one,
        # whose spill value 2**m sits one bit left of the copied window.
        # Three CNOTs move it into the final register's top bit.
        top_spill = view[half - m - 1]
        final_top = view[2 * half - m - 2]
        saturation = view[2 * half - m - 1]
        gates += [
            _gate(_CNOT, final_top, (top_spill,)),
            _gate(_CNOT, top_spill, (final_top,)),
            _gate(_CNOT, saturation, (final_top,)),
        ]
    return gates


def _recursion_gates(view: tuple[int, ...]) -> list[Gate]:
    # Peel the leftmost qubit: the remaining staircase has an odd level
    # count. Only the top level sets the peeled qubit, so patching the
    # binary register from value N-2 to N-1 is a classically known XOR,
    # undone on the peeled qubit by one multi-controlled X.
    levels = len(view) + 1
    gates = _binary_gates(view[1:], EvenMethod.RECURSION, [])
    width = binary_width(levels)
    register = view[-width:]
    flips = (levels - 1) ^ (levels - 2)
    for r in range(width):
        if (flips >> r) & 1:
            gates.append(_gate(_CNOT, register[width - 1 - r], (view[0],)))
    pattern = levels - 1
    off_bits = [register[width - 1 - r] for r in range(width) if not (pattern >> r) & 1]
    toggles = [_gate(_X, q) for q in off_bits]
    # Four or more levels give a register of two or more qubits: TOFFOLI at two, MCX above.
    gates += toggles
    gates.append(_gate(_MCX if width > 2 else _TOFFOLI, view[0], register))
    gates += toggles
    return gates


def build_edick_to_binary(
    num_levels: int, method: EvenMethod = _DEFAULT_METHOD
) -> tuple[Circuit, ConverterPlan]:
    """The edick-to-binary compression; see `build_converter` for its contract."""
    return build_converter(Direction.EDICK_TO_BINARY, num_levels, method)


def build_onehot_to_binary(
    num_levels: int, method: EvenMethod = _DEFAULT_METHOD
) -> tuple[Circuit, ConverterPlan]:
    """The onehot-to-binary converter; see `build_converter` for its contract."""
    return build_converter(Direction.ONEHOT_TO_BINARY, num_levels, method)


def build_binary_to_onehot(
    num_levels: int, method: EvenMethod = _DEFAULT_METHOD
) -> tuple[Circuit, ConverterPlan]:
    """The binary-to-onehot converter; see `build_converter` for its contract."""
    return build_converter(Direction.BINARY_TO_ONEHOT, num_levels, method)


# ---------------------------------------------------------------------------
# every direction, from the unfolding and the compression


@_acyclic
def _converter(plan: ConverterPlan) -> Circuit:
    """The labelled circuit `plan` describes, unchecked; see `build_converter`."""
    direction, n, anc = plan.direction, plan.num_levels, plan.ancilla
    if direction is Direction.CNOT_STAIR:
        gates = []
        for c in range(n - 1):
            control = (c,)  # one tuple for the control's n-1-c gates
            gates += [_gate(_CNOT, t, control) for t in range(c + 1, n)]
    elif direction is Direction.EDICK_TO_ONEHOT:
        gates = _onehot_gates(tuple(range(n)))
    else:
        gates = _binary_gates(tuple(range(anc, anc + n - 1)), plan.method, list(range(anc)))
        if direction is not Direction.EDICK_TO_BINARY:
            # One-hot -> binary: the unfolding backwards (all CNOTs, so its
            # reversal), then the compression; binary -> one-hot inverts that.
            gates = _onehot_gates(tuple(range(anc, plan.total_qubits)))[::-1] + gates
        if direction is Direction.BINARY_TO_ONEHOT:
            gates = list(map(Gate.inverse, reversed(gates)))
    return _derived(plan.total_qubits, tuple(gates), f"{direction.value.replace('-', '_')}_{n}")


def build_converter(
    direction: Direction, num_levels: int, method: EvenMethod = _DEFAULT_METHOD
) -> tuple[Circuit, ConverterPlan]:
    """The circuit `_converter(plan)` and the plan of any direction, cnot-stair included.

    Level i of N (b = binary_width(N)) goes from input to output as:

    * edick-to-onehot, cnot-stair: i+1 right-aligned ones -> a 1 at right-offset i;
    * edick-to-binary: i right-aligned ones -> |i> on the rightmost b qubits;
    * onehot-to-binary: a 1 at right-offset i -> |i> left of a rightmost |1> flag;
    * binary-to-onehot: the inverse of onehot-to-binary.

    The `plan.ancilla` leftmost qubits, and every qubit not named above, start
    and end in |0>; `plan.input_index(i)` and `plan.output_index(i)` are the
    basis indices. The unfolding has logarithmic depth and sizes
    s(2N) = s(N) + 2N - 1, s(N+1) = s(N) + 1; the cnot-stair, its quadratic
    baseline, is N(N-1)/2 CNOTs of depth 2N-3. A direction that is not a
    `Direction`, or a method that is not an `EvenMethod` (unused by the
    unfoldings, but checked), raises ValueError.
    """
    if type(direction) is not Direction:
        raise ValueError(f"unknown direction {direction!r}")
    if type(method) is not EvenMethod:
        raise ValueError(f"method must be an EvenMethod, got {method!r}")
    plan = ConverterPlan(num_levels, method, direction)
    return _converter(plan), plan
