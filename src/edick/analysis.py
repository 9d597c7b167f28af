"""Sweep runner and scaling-trend fits.

Depth is greedy earliest-slot layering over disjoint qubits; size is the
gate count. Both are reported at two granularities: the logical gate set
as built, and the {single-qubit, CNOT} basis after exact lowering.

Sweeps need no simulation, so level counts in the hundreds are cheap at
either granularity. Lowering turns the recursion method's k-control X into
4(k-2) Toffolis on idle register qubits that it borrows and restores, so its
basis cost is linear in k = O(log2 N): at N=1024, edick-to-binary by
recursion has basis depth 2,921 and size 87,411.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, fields
from enum import Enum
from typing import Iterable, Sequence

from .circuit import Circuit, Granularity, _integer, _real, cost
from .converters import _DEFAULT_METHOD, Direction, EvenMethod, build_converter
from .encodings import _levels

# Sweep subjects that are a direction of their own; the rest are methods of edick-to-binary.
_SUBJECT_DIRECTIONS = {"onehot": Direction.EDICK_TO_ONEHOT, "cnot-stair": Direction.CNOT_STAIR}
# Buildable subjects of a sweep: each staircase-to-binary method of EvenMethod,
# the staircase-to-one-hot converter, and its quadratic baseline.
SWEEP_SUBJECTS = tuple(m.value for m in EvenMethod) + tuple(_SUBJECT_DIRECTIONS)


def _check_subject(subject: object) -> None:
    if subject not in SWEEP_SUBJECTS:
        raise ValueError(f"unknown sweep subject {subject!r}; choose from {SWEEP_SUBJECTS}")


@dataclass(frozen=True)
class SweepRow:
    num_levels: int
    method: str
    depth_logical: int
    depth_basis: int
    size_logical: int
    size_basis: int
    ancilla: int
    build_time_ms: float

    def __post_init__(self) -> None:
        _check_subject(self.method)
        object.__setattr__(self, "num_levels", _levels(self.num_levels))
        for key in [f.name for f in fields(self) if f.type == "int"]:  # a string: annotations are postponed
            value = _integer(getattr(self, key), f"{key} must be an integer")
            if value < 0:
                raise ValueError("sweep metrics are finite and non-negative")
            object.__setattr__(self, key, value)
        object.__setattr__(self, "build_time_ms", _real(self.build_time_ms, "build_time_ms must be a real number"))
        if not 0 <= self.build_time_ms < math.inf:  # NaN fails too
            raise ValueError("sweep metrics are finite and non-negative")
        if self.depth_logical > self.size_logical or self.depth_basis > self.size_basis:
            raise ValueError("depth cannot exceed size")

    def to_csv(self) -> str:
        return ",".join(map(str, astuple(self)))  # str of a float is its repr


# The sweep CSV columns are SweepRow's fields in order, with the level count named N.
SWEEP_CSV_HEADER = ",".join(["N"] + [f.name for f in fields(SweepRow)[1:]])


def _build_subject(subject: str, num_levels: int) -> tuple[Circuit, int]:
    direction = _SUBJECT_DIRECTIONS.get(subject, Direction.EDICK_TO_BINARY)
    method = _DEFAULT_METHOD if subject in _SUBJECT_DIRECTIONS else EvenMethod(subject)
    circuit, plan = build_converter(direction, num_levels, method)
    return circuit, plan.ancilla


def run_sweep(
    level_counts: Iterable[int],
    subjects: Sequence[str] = tuple(m.value for m in EvenMethod),
    granularity: Granularity = Granularity.TWO_QUBIT_BASIS,
    measure_time: bool = False,
) -> list[SweepRow]:
    """Build every (N, subject) pair and report costs, in the given order.

    With granularity LOGICAL the basis columns are left at 0. Build times
    default to 0.0 so repeated runs are byte-identical; pass measure_time
    to record wall-clock milliseconds instead.
    """
    if type(granularity) is not Granularity:
        raise ValueError(f"granularity must be a Granularity, got {granularity!r}")
    if isinstance(subjects, str):
        raise ValueError(f"subjects must be a sequence of subject names, got the string {subjects!r}")
    try:
        subjects = tuple(subjects)  # read twice below, so an iterator must not run dry
    except TypeError:
        raise ValueError(f"subjects must be a sequence of subject names, got {subjects!r}") from None
    if not subjects:
        raise ValueError("the subject list names no sweep subject")
    for subject in subjects:
        _check_subject(subject)
    try:
        level_counts = iter(level_counts)
    except TypeError:
        raise ValueError(
            f"level_counts must be an iterable of level counts, got {level_counts!r}"
        ) from None
    rows = []
    for num_levels in level_counts:
        for subject in subjects:
            start = time.perf_counter()
            circuit, ancilla = _build_subject(subject, num_levels)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            logical = cost(circuit, Granularity.LOGICAL)
            if granularity is Granularity.TWO_QUBIT_BASIS:
                basis = cost(circuit, Granularity.TWO_QUBIT_BASIS)
                depth_basis, size_basis = basis.depth, basis.size
            else:
                depth_basis, size_basis = 0, 0
            rows.append(
                SweepRow(
                    num_levels=num_levels,
                    method=subject,
                    depth_logical=logical.depth,
                    depth_basis=depth_basis,
                    size_logical=logical.size,
                    size_basis=size_basis,
                    ancilla=ancilla,
                    build_time_ms=elapsed_ms if measure_time else 0.0,
                )
            )
    return rows


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    return "\n".join([SWEEP_CSV_HEADER] + [row.to_csv() for row in rows]) + "\n"


class ScalingModel(Enum):
    LINEAR = "A*N"
    LOG_SQUARED = "A*log2(N)^2"


def fit_scaling(
    points: Iterable[tuple[int, float]],
    model: ScalingModel,
) -> tuple[float, float]:
    """Least-squares one-coefficient fit and its worst relative residual.

    Returns (A, max over points of |y - A*g(N)| / y) where g is N or
    log2(N)^2 per the model. The points are read once, so any iterable serves.
    """
    if type(model) is not ScalingModel:
        raise ValueError(f"model must be a ScalingModel, got {model!r}")
    try:
        pairs = [(_levels(n), _real(y, "fit values must be real numbers")) for n, y in points]
    except TypeError:
        raise ValueError(f"points must be (level count, value) pairs, got {points!r}") from None
    if len(pairs) < 5:
        raise ValueError("need at least five points to fit a trend")
    levels, values = zip(*pairs)
    if not all(0 < y < math.inf for y in values):  # NaN fails too
        raise ValueError("scaling fits need positive, finite values")
    try:
        if model is ScalingModel.LINEAR:
            basis = [float(n) for n in levels]
        else:
            basis = [math.log2(n) ** 2 for n in levels]
        scale = sum(g * g for g in basis)  # finite only if every g is
    except OverflowError:  # a level count past the float range
        scale = math.inf
    if not math.isfinite(scale):
        raise ValueError("level counts too large to fit: the basis overflows the float range")
    coefficient = sum(g * y for g, y in zip(basis, values)) / scale
    worst = max(abs(y - coefficient * g) / y for g, y in zip(basis, values))
    return coefficient, worst
