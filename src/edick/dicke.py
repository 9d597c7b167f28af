"""Dicke state preparation and the binomial-distribution pipeline.

A product of Y rotations puts binomial weights sqrt(C(N,k) p^k (1-p)^(N-k))
on the Dicke components |D_k^N>. Running the Dicke preparation unitary
backwards collapses each component onto the staircase string of k ones,
after which the staircase converters can re-encode the distribution as
one-hot or binary. The amplitudes are exact at every stage.

A BinomialSpec derives its pipeline's ConverterPlan once, with its angle.
The pipeline is emitted in place on that plan's register: the Y rotations
and the inverse Dicke unitary, then the conversion stage's gates from the
converters' own routine. Each split & cyclic shift block is written once,
in the pipeline's direction; build_scs and build_dicke_unitary invert it
with Gate.inverse. The order of the blocks, widths 2..n, is written once
too: the pipeline and build_dicke_unitary read the same list. The builders
here return their circuits without a second width scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .circuit import _CCRY, _CNOT, _CRY, _RY, _X, Circuit, Gate, _acyclic, _derived, _gate
from .circuit import _integer, _real
from .converters import _DEFAULT_METHOD, _LAYOUTS, ConverterPlan, Direction, EvenMethod, _converter
from .encodings import EncodingKind


def _scs_gates(n: int, k: int, off: int) -> list[Gate]:
    """Gates of the inverse of build_scs(n, k) on qubits off..off+k.

    The block is written once, in the direction the pipeline runs it; the
    forward builders invert it with Gate.inverse. Level l, from k down to 1,
    rotates qubit k-l by -2*arccos(sqrt(l/n)) between two equal CNOTs, one
    gate object.
    """
    top = off + k
    gates: list[Gate] = []
    for level in range(k, 0, -1):
        angle = -2.0 * math.acos(math.sqrt(level / n))
        target = top - level
        pair = _gate(_CNOT, top, (target,))
        if level == 1:
            rotation = _gate(_CRY, target, (top,), angle)
        else:
            rotation = _gate(_CCRY, target, (top, target + 1), angle)
        gates += (pair, rotation, pair)
    return gates


def _dicke_gates(n: int, off: int) -> list[Gate]:
    """The inverse Dicke unitary on qubits off..off+n-1: its blocks of widths 2..n, in order."""
    return [gate for width in range(2, n + 1) for gate in _scs_gates(width, width - 1, off)]


def build_scs(n: int, k: int) -> Circuit:
    """Split & cyclic shift block on k+1 qubits.

    On the staircase input with l <= k trailing ones it acts as

        |0...01...1>  ->  sqrt(l/n) |0...01...1> + sqrt((n-l)/n) |0..1..10>

    (the shifted term moves the block of ones left by one), and it fixes
    the all-zeros and all-ones strings. Built from one two-qubit block and
    k-1 three-qubit blocks with angles 2*arccos(sqrt(l/n)).
    """
    n, k = _integer(n, "n must be an integer"), _integer(k, "k must be an integer")
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    return _derived(k + 1, tuple(map(Gate.inverse, reversed(_scs_gates(n, k, 0)))), f"scs_{n}_{k}")


@_acyclic
def build_dicke_unitary(num_qubits: int) -> Circuit:
    """Maps |0...01...1> with k ones to the uniform weight-k Dicke state.

    One full-width split block, then progressively narrower ones on the
    leftmost qubits. Size grows quadratically, depth linearly.
    """
    num_qubits = _integer(num_qubits, "register width must be an integer")
    if num_qubits < 2:
        raise ValueError("need at least two qubits")
    gates = tuple(map(Gate.inverse, reversed(_dicke_gates(num_qubits, 0))))
    return _derived(num_qubits, gates, f"dicke_unitary_{num_qubits}")


@dataclass(frozen=True)
class BinomialSpec:
    """One binomial-distribution preparation; derives theta = 2 asin(sqrt(p)) and `plan`."""

    trials: int
    p: float
    theta: float = field(init=False)
    target: EncodingKind
    method: EvenMethod
    plan: ConverterPlan = field(init=False)  # the pipeline's register, known before any gate

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", _integer(self.trials, "trial count must be an integer"))
        object.__setattr__(self, "p", _real(self.p, "probability must be a real number"))
        if type(self.target) is not EncodingKind:
            raise ValueError(f"target must be an EncodingKind, got {self.target!r}")
        if type(self.method) is not EvenMethod:
            raise ValueError(f"method must be an EvenMethod, got {self.method!r}")
        if self.trials < 2:
            raise ValueError("need at least two trials")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"probability {self.p} outside [0, 1]")
        object.__setattr__(self, "theta", 2.0 * math.asin(math.sqrt(self.p)))
        object.__setattr__(self, "plan", ConverterPlan(self.trials + 1, self.method, _STAGES[self.target]))

    @staticmethod
    def from_probability(
        trials: int,
        p: float,
        target: EncodingKind = EncodingKind.EDICK,
        method: EvenMethod = _DEFAULT_METHOD,
    ) -> "BinomialSpec":
        return BinomialSpec(trials, p, target, method)


# The conversion stage of each target; the staircase target has none.
_STAGES = {EncodingKind.EDICK: None, EncodingKind.ONE_HOT: Direction.EDICK_TO_ONEHOT,
           EncodingKind.BINARY: Direction.EDICK_TO_BINARY}


@_acyclic
def build_binomial_pipeline(spec: BinomialSpec) -> tuple[Circuit, ConverterPlan]:
    """Full preparation circuit from |0...0> to the encoded distribution.

    Level k of the output carries amplitude sqrt(C(N,k) p^k (1-p)^(N-k)),
    k = 0..N, i.e. N+1 levels. The returned plan describes the register of
    the conversion stage; with the EDICK target there is no conversion and
    the plan's direction is None. The plan is `spec.plan` itself.
    """
    n, plan, off = spec.trials, spec.plan, spec.plan.ancilla
    gates = [_gate(_RY, off + q, (), spec.theta) for q in range(n)] + _dicke_gates(n, off)
    if _LAYOUTS[plan.direction][0][1]:
        gates.append(_gate(_X, plan.total_qubits - 1))  # the stage's |1> input flag
    if plan.direction is not None:
        gates += _converter(plan).gates
    label = f"binomial_pipeline_{n}_{spec.target.value}"
    return _derived(plan.total_qubits, tuple(gates), label), plan
