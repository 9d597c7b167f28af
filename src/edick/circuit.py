"""Gate-level circuit intermediate representation.

Qubits are indexed 0..n-1 left to right in ket notation, so qubit 0 is the
most significant bit of a basis index: |b_0 b_1 ... b_{n-1}> has index
sum(b_q * 2**(n-1-q)).  Gates and circuits are immutable after construction.

`Gate(...)` (whose `__post_init__` runs each check once), the helpers `x` ...
`mcx`, `Circuit(...)`, `remap`'s mapping and `parse_text` check what comes
from outside; whatever the library builds or derives from checked values is
made through `_gate`/`_derived`, which set the slots unchecked. A gate stores
integral qubit indices as int and real angles as float, and refuses bools,
so every gate prints as QASM that parses back to it. `Circuit(...)` checks
that every gate is a Gate that fits the register. The builders size their
registers from checked arguments, `compose` needs equal widths, `inverse`
keeps the width, `remap` sends every qubit injectively into the new
register, and lowering expands each gate on that gate's own qubits.
"""

from __future__ import annotations

import enum
import functools
import gc
import math
import numbers
import operator
from dataclasses import dataclass


class GateKind(enum.Enum):
    X = "x"
    H = "h"
    RY = "ry"
    PHASE = "phase"
    CNOT = "cnot"
    CPHASE = "cphase"
    CRY = "cry"
    CCRY = "ccry"
    TOFFOLI = "toffoli"
    MCX = "mcx"

    __hash__ = object.__hash__  # members are singletons; Enum.__hash__ runs Python code


# The members as module names: on Python 3.11 a lookup such as GateKind.CNOT goes
# through EnumType.__getattr__, a Python-level hook, at about 120 ns.
_X, _H, _RY, _PHASE, _CNOT = GateKind.X, GateKind.H, GateKind.RY, GateKind.PHASE, GateKind.CNOT
_CPHASE, _CRY, _CCRY = GateKind.CPHASE, GateKind.CRY, GateKind.CCRY
_TOFFOLI, _MCX = GateKind.TOFFOLI, GateKind.MCX

# Per kind: control count (None for MCX, which takes >= 3; smaller counts have
# their own kind) and whether it takes an angle. Angled kinds invert by
# negating the angle; the others are self-inverse.
_RULES = {
    GateKind.X: (0, False),
    GateKind.H: (0, False),
    GateKind.RY: (0, True),
    GateKind.PHASE: (0, True),
    GateKind.CNOT: (1, False),
    GateKind.CPHASE: (1, True),
    GateKind.CRY: (1, True),
    GateKind.CCRY: (2, True),
    GateKind.TOFFOLI: (2, False),
    GateKind.MCX: (None, False),
}


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate application: a kind, optional controls, one target, optional angle."""

    kind: GateKind
    target: int
    controls: tuple[int, ...] = ()
    angle: float | None = None

    def __post_init__(self) -> None:
        kind, controls, angle = self.kind, self.controls, self.angle
        try:
            arity, angled = _RULES[kind]
        except (KeyError, TypeError):  # not a member, or unhashable
            raise ValueError(f"gate kind must be a GateKind, got {kind!r}") from None
        if type(controls) is not tuple:
            raise ValueError(f"controls must be a tuple of qubit indices, got {controls!r}")
        if arity is None:
            if len(controls) < 3:
                raise ValueError("MCX needs at least 3 controls; use CNOT or TOFFOLI below that")
        elif len(controls) != arity:
            raise ValueError(f"{kind.value} takes {arity} control(s), got {len(controls)}")
        if angled:
            if angle is not None:
                angle = _real(angle, f"{kind.value} takes a real angle")
            if angle is None or not math.isfinite(angle):
                raise ValueError(f"{kind.value} needs a finite angle")
        elif angle is not None:
            raise ValueError(f"{kind.value} takes no angle")
        target, controls = _index(self.target), tuple(map(_index, controls))
        qubits = controls + (target,)
        if min(qubits) < 0:
            raise ValueError("qubit indices must be non-negative")
        if len(set(qubits)) != len(qubits):
            raise ValueError("control and target qubits must be distinct")
        _set_target(self, target)
        _set_controls(self, controls)
        _set_angle(self, angle)

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.controls + (self.target,)

    def inverse(self) -> Gate:
        if self.angle is None:
            return self
        return _gate(self.kind, self.target, self.controls, -self.angle)


# The slots' own setters: a frozen dataclass writes its fields through object.__setattr__.
_set_kind, _set_target = Gate.kind.__set__, Gate.target.__set__
_set_controls, _set_angle = Gate.controls.__set__, Gate.angle.__set__
_new = object.__new__


def _gate(kind, target, controls=(), angle=None) -> Gate:
    """A gate from fields that Gate() would accept and store unchanged; nothing is checked."""
    gate = _new(Gate)
    _set_kind(gate, kind)
    _set_target(gate, target)
    _set_controls(gate, controls)
    _set_angle(gate, angle)
    return gate


def _acyclic(build):
    """`build`, run with the cyclic garbage collector paused.

    Gates, their controls tuples and the lists that hold them are containers
    the collector tracks, and each few hundred new ones start a collection
    that frees nothing: no gate list holds a reference cycle. Only a call that
    finds the collector on pauses it, and it turns it back on when it returns
    or raises; a nested call, or a call from another thread while one runs,
    leaves the collector as it found it. Caveat: if another thread turns the
    collector off while such a call runs, the call turns it back on when it
    returns. Not for generators, which would keep it paused across yields,
    nor for calls that make a few hundred gates (one `build_scs` block, one
    lowered gate): the collection the pause defers to the next allocation
    then costs more than the pause saves.
    """

    @functools.wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def _integer(value: object, message: str) -> int:
    """`value` as an int; bools and values without __index__ raise ValueError(message)."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{message}, got {value!r}")
    return operator.index(value)


def _real(value: object, message: str) -> float:
    """`value` as a float, inf past the float range; bools and non-reals raise ValueError(message)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{message}, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer or fraction past the float range
        return math.inf


def _index(q: object) -> int:
    return _integer(q, "qubit indices must be integers")


def _label(label: object) -> str:
    if not isinstance(label, str):
        raise ValueError(f"circuit label must be a str, got {label!r}")
    return label


def _width(n: object) -> int:
    """A register width, checked like a qubit index, and at least 1."""
    n = _integer(n, "register width must be an integer")
    if n < 1:
        raise ValueError("a circuit needs at least one qubit")
    return n


def x(q: int) -> Gate:
    return Gate(_X, q)


def h(q: int) -> Gate:
    return Gate(_H, q)


def ry(theta: float, q: int) -> Gate:
    return Gate(_RY, q, angle=theta)


def phase(lam: float, q: int) -> Gate:
    return Gate(_PHASE, q, angle=lam)


def cnot(control: int, target: int) -> Gate:
    return Gate(_CNOT, target, (control,))


def cphase(lam: float, control: int, target: int) -> Gate:
    return Gate(_CPHASE, target, (control,), lam)


def cry(theta: float, control: int, target: int) -> Gate:
    return Gate(_CRY, target, (control,), theta)


def ccry(theta: float, c0: int, c1: int, target: int) -> Gate:
    return Gate(_CCRY, target, (c0, c1), theta)


def toffoli(c0: int, c1: int, target: int) -> Gate:
    return Gate(_TOFFOLI, target, (c0, c1))


def mcx(controls: tuple[int, ...] | list[int], target: int) -> Gate:
    """Multi-controlled X; collapses to CNOT/TOFFOLI for 1 or 2 controls."""
    controls = tuple(controls)
    if len(controls) == 0:
        return x(target)
    if len(controls) == 1:
        return cnot(controls[0], target)
    if len(controls) == 2:
        return toffoli(controls[0], controls[1], target)
    return Gate(_MCX, target, controls)


@dataclass(frozen=True, slots=True)
class Circuit:
    """An ordered gate list over a fixed-width qubit register."""

    num_qubits: int
    gates: tuple[Gate, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_qubits", _width(self.num_qubits))
        _label(self.label)
        try:
            object.__setattr__(self, "gates", tuple(self.gates))
        except TypeError:  # not iterable
            raise ValueError(f"gates must be a sequence of Gates, got {self.gates!r}") from None
        n = self.num_qubits
        for g in self.gates:
            if type(g) is not Gate:
                raise ValueError(f"gates must be Gates, got {g!r}")
            if g.target >= n or (g.controls and max(g.controls) >= n):
                raise ValueError(f"gate {g} exceeds register width {n}")

    def __len__(self) -> int:
        return len(self.gates)


def _derived(num_qubits: int, gates: tuple[Gate, ...], label: str) -> Circuit:
    """A circuit whose gates are known to fit `num_qubits` >= 1; no rescan."""
    circuit = object.__new__(Circuit)
    object.__setattr__(circuit, "num_qubits", num_qubits)
    object.__setattr__(circuit, "gates", gates)
    object.__setattr__(circuit, "label", label)
    return circuit


def compose(first: Circuit, second: Circuit, label: str = "") -> Circuit:
    """Circuit that applies `first`, then `second`; widths must agree."""
    if first.num_qubits != second.num_qubits:
        raise ValueError(
            f"cannot compose circuits of widths {first.num_qubits} and {second.num_qubits}"
        )
    return _derived(first.num_qubits, first.gates + second.gates, _label(label) or first.label)


@_acyclic
def inverse(circuit: Circuit) -> Circuit:
    """Exact inverse: reversed gate order, each gate inverted."""
    label = f"inverse({circuit.label})" if circuit.label else ""
    gates = tuple([g.inverse() for g in reversed(circuit.gates)])
    return _derived(circuit.num_qubits, gates, label)


@_acyclic
def remap(
    circuit: Circuit,
    mapping: dict[int, int] | list[int] | tuple[int, ...],
    num_qubits: int,
) -> Circuit:
    """Embed a circuit into a wider register.

    `mapping` sends old indices to new ones, as a dict or as a sequence
    indexed by old qubit. It must cover every qubit of the circuit
    injectively, into qubits 0..num_qubits-1.
    """
    num_qubits = _width(num_qubits)
    pairs = mapping.items() if isinstance(mapping, dict) else enumerate(mapping)
    table = {old: _index(new) for old, new in pairs}
    if len(table) < circuit.num_qubits or set(table) != set(range(circuit.num_qubits)):
        raise ValueError("mapping must cover qubits 0..num_qubits-1 of the circuit")
    if len(set(table.values())) != len(table):
        raise ValueError("mapping must be injective")
    if not all(0 <= new < num_qubits for new in table.values()):
        raise ValueError(f"mapping sends a qubit outside register width {num_qubits}")
    gates = [_gate(g.kind, table[g.target], tuple([table[c] for c in g.controls]), g.angle)
             for g in circuit.gates]
    return _derived(num_qubits, tuple(gates), circuit.label)


class Granularity(enum.Enum):
    LOGICAL = "logical"
    TWO_QUBIT_BASIS = "two-qubit-basis"


@dataclass(frozen=True, slots=True)
class CostReport:
    depth: int
    size: int
    granularity: Granularity

    def __post_init__(self) -> None:
        if self.depth > self.size:
            raise ValueError("depth cannot exceed size")
        if (self.depth == 0) != (self.size == 0):
            raise ValueError("depth and size are zero together or not at all")


def depth_of(gates: tuple[Gate, ...], num_qubits: int) -> int:
    # Greedy left-to-right layering: each gate lands on the earliest layer where
    # all its qubits are free, i.e. one past the last layer touching any of them.
    free = [0] * num_qubits
    for g in gates:
        layer = free[g.target]
        for q in g.controls:
            if free[q] > layer:
                layer = free[q]
        layer += 1
        free[g.target] = layer
        for q in g.controls:
            free[q] = layer
    return max(free)


def cost(circuit: Circuit, granularity: Granularity = Granularity.LOGICAL) -> CostReport:
    """Depth (greedy layering) and gate count, at logical or two-qubit-basis granularity."""
    if type(granularity) is not Granularity:
        raise ValueError(f"granularity must be a Granularity, got {granularity!r}")
    if granularity is Granularity.TWO_QUBIT_BASIS:
        from .decompose import decompose_to_basis

        circuit = decompose_to_basis(circuit)
    return CostReport(depth_of(circuit.gates, circuit.num_qubits), len(circuit.gates), granularity)
