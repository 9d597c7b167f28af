"""Amplitude encodings over computational basis states.

A classical amplitude vector (alpha_0, ..., alpha_{N-1}) can be loaded into
a register three ways, all sharing the notion of a "level" i:

* one-hot: level i occupies the string with a single 1 at right-offset i,
  basis integer 2**i;
* binary: level i occupies basis integer i;
* edick: level i occupies the string of i right-aligned ones, basis
  integer 2**i - 1 (a staircase, the transition form between the other two).

`_KIND_LAYOUT` is the one home of these layouts, and `build_state` places an
amplitude vector in one of them. `dicke_state` builds the uniform superposition
over all strings of one Hamming weight, which takes no amplitude vector; it is
the target of the Dicke preparation unitary.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .circuit import _integer
from .statevector import _NORM_TOL, Statevector, _check_width, _state

_STRAY_TOL = 1e-9


class EncodingKind(Enum):
    """The three level-indexed encodings."""

    ONE_HOT = "onehot"
    BINARY = "binary"
    EDICK = "edick"


_Layout = namedtuple("_Layout", "name fits row")  # name in messages, (level, width) fit, row of int/int64 levels
_KIND_LAYOUT = {
    EncodingKind.ONE_HOT: _Layout("one-hot", lambda level, width: level < width, lambda i: 1 << i),
    EncodingKind.BINARY: _Layout("binary", lambda level, width: level >> width == 0, lambda i: i),
    EncodingKind.EDICK: _Layout("edick", lambda level, width: level <= width, lambda i: (1 << i) - 1),
}


def _sum_of_squares(alphas: tuple[complex, ...]) -> float:
    """sum(|a|^2) over the coefficients, inf where a term overflows."""
    try:
        return sum(abs(a) ** 2 for a in alphas)
    except OverflowError:
        return math.inf


def _holding(vector: "AmplitudeVector", alphas: tuple[complex, ...]) -> "AmplitudeVector":
    """`vector` given the finite complex coefficients `alphas`, once their sum of squares is checked."""
    object.__setattr__(vector, "alphas", alphas)
    norm_sq = _sum_of_squares(alphas)
    if not abs(norm_sq - 1.0) <= _NORM_TOL:  # NaN fails too
        raise ValueError(f"amplitudes are not normalized: sum of squares {norm_sq}")
    return vector


def _coefficient(value: object) -> complex:
    """`value` as a complex; strings, bools and what is not a float-range number raise ValueError."""
    try:  # complex values, which `read_state` passes on, skip the isinstance check
        if type(value) is complex or not isinstance(value, (str, bool, np.bool_)):
            return complex(value)
    except (TypeError, OverflowError):  # not a number, or an integer past the float range
        pass
    raise ValueError(f"amplitudes must be numbers in the float range, got {value!r}")


def _coefficients(values: object) -> tuple[complex, ...]:
    try:
        return tuple(map(_coefficient, values))
    except TypeError:  # not iterable
        raise ValueError(f"amplitudes must be a sequence, got {values!r}") from None


@dataclass(frozen=True)
class AmplitudeVector:
    """A normalized coefficient vector; real entries are the common case."""

    alphas: tuple[complex, ...]

    def __post_init__(self) -> None:
        alphas = _coefficients(self.alphas)
        _levels(len(alphas))
        if not all(map(cmath.isfinite, alphas)):
            raise ValueError("amplitudes must be finite")
        _holding(self, alphas)

    @property
    def num_levels(self) -> int:
        return len(self.alphas)

    @staticmethod
    def normalized(values) -> "AmplitudeVector":
        """Scale arbitrary non-zero coefficients to unit norm, by their largest part first if need be."""
        alphas = _coefficients(values)
        if not all(map(cmath.isfinite, alphas)):
            raise ValueError("amplitudes must be finite to be normalized")
        norm_sq = _sum_of_squares(alphas)
        if not sys.float_info.min <= norm_sq < math.inf:  # squares past the normal range
            scale = max((max(abs(a.real), abs(a.imag)) for a in alphas), default=0.0)
            alphas = tuple(a / scale for a in alphas) if scale else alphas
            norm_sq = _sum_of_squares(alphas)
        norm = math.sqrt(norm_sq)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        _levels(len(alphas))  # the quotients are finite complex values: only the count and the norm are checked
        return _holding(object.__new__(AmplitudeVector), tuple(a / norm for a in alphas))


def _levels(num_levels: object) -> int:
    """A level count: an integer of at least two, as an int."""
    num_levels = _integer(num_levels, "level count must be an integer")
    if num_levels < 2:
        raise ValueError("need at least two levels")
    return num_levels


def random_vectors(num_levels: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` reproducible real test vectors as the rows of a float64 block, from one draw.

    Row j is bit for bit the j-th of `count` successive `random_vector` calls,
    and the generator ends in the same state: one standard-normal draw of
    (count, num_levels), each row divided by the square root of its sum of
    squares, taken left to right in Python as `AmplitudeVector.normalized`
    does. A row whose sum of squares is outside the normal float range goes
    to `normalized` itself, which rescales it or raises.
    """
    num_levels = _levels(num_levels)
    count = _integer(count, "vector count must be an integer")
    if count < 0:
        raise ValueError("vector count must be non-negative")
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy.random.Generator, got {rng!r}")
    draws = rng.standard_normal((count, num_levels))
    norms_sq = np.array([_sum_of_squares(row) for row in draws.tolist()], dtype=np.float64)
    rescale = ~((norms_sq >= sys.float_info.min) & (norms_sq < math.inf))  # NaN too
    rows = draws / np.sqrt(np.where(rescale, 1.0, norms_sq))[:, None]
    for r in np.flatnonzero(rescale):
        rows[r] = [a.real for a in AmplitudeVector.normalized(draws[r].tolist()).alphas]
    drift = np.abs(np.einsum("ij,ij->i", rows, rows) - 1.0)
    if not np.all(drift <= _NORM_TOL):  # NaN fails too
        raise ValueError(f"amplitudes are not normalized: a sum of squares is {np.max(drift)} off 1")
    return rows


def random_vector(num_levels: int, rng: np.random.Generator) -> AmplitudeVector:
    """Reproducible real test vector: normalized standard-normal draws, the one-row case of `random_vectors`."""
    row = random_vectors(num_levels, 1, rng)[0].tolist()  # floats convert faster than numpy scalars
    return _holding(object.__new__(AmplitudeVector), tuple(map(complex, row)))


def level_to_basis(kind: EncodingKind, level: int, width: int) -> int:
    """Basis integer of level `level` for an encoding on `width` qubits.

    Extra qubits beyond the minimum are left padding (|0>), so any
    sufficiently wide register is accepted.
    """
    level = _integer(level, "level must be an integer")
    width = _integer(width, "width must be an integer")
    if width < 1:
        raise ValueError("width must be at least 1")
    if level < 0:
        raise ValueError(f"level {level} out of range")
    if type(kind) is not EncodingKind:
        raise ValueError(f"kind must be an EncodingKind, got {kind!r}")
    name, fits, row = _KIND_LAYOUT[kind]
    if not fits(level, width):
        raise ValueError(f"{name} level {level} needs more than {width} qubits")
    return row(level)


def build_state(kind: EncodingKind, amplitudes: AmplitudeVector, width: int) -> Statevector:
    """Place amplitudes at the encoding's basis positions on `width` qubits.

    The width is checked before any amplitude is allocated.
    """
    _check_width(width)
    if type(kind) is not EncodingKind:
        raise ValueError(f"kind must be an EncodingKind, got {kind!r}")
    if type(amplitudes) is not AmplitudeVector:
        raise ValueError(f"amplitudes must be an AmplitudeVector, got {amplitudes!r}")
    level_to_basis(kind, amplitudes.num_levels - 1, width)  # the highest level fits, so every level does
    rows = _KIND_LAYOUT[kind].row(np.arange(amplitudes.num_levels, dtype=np.int64))
    return _state(width, rows, amplitudes.alphas)


def dicke_state(num_qubits: int, weight: int) -> Statevector:
    """Uniform superposition over the basis strings of Hamming weight `weight`, width checked first."""
    num_qubits = _check_width(num_qubits)
    weight = _integer(weight, "Dicke weight must be an integer")
    if weight < 0:
        raise ValueError("Dicke weight must be non-negative")
    if weight > num_qubits:
        raise ValueError(f"weight {weight} exceeds {num_qubits} qubits")
    count = math.comb(num_qubits, weight)
    bits = [1 << (num_qubits - 1 - q) for q in range(num_qubits)]
    rows = np.fromiter(map(sum, combinations(bits, weight)), np.int64, count=count)
    return _state(num_qubits, rows, 1.0 / math.sqrt(count))


def read_state(kind: EncodingKind, state: Statevector, num_levels: int) -> AmplitudeVector:
    """Extract the level amplitudes, rejecting states with off-pattern mass.

    Mass outside the encoding's positions above 1e-9 signals a broken
    converter and raises. The extracted vector is renormalized (the stray
    tolerance is looser than the AmplitudeVector norm invariant).
    """
    num_levels = _levels(num_levels)
    level_to_basis(kind, num_levels - 1, state.num_qubits)  # the highest level fits, so every level does
    extracted = state.amplitudes[_KIND_LAYOUT[kind].row(np.arange(num_levels, dtype=np.int64))]
    kept = float(np.sum(np.abs(extracted) ** 2))
    stray = 1.0 - kept
    if stray > _STRAY_TOL:
        raise ValueError(f"state has {stray:.3e} probability mass outside {kind.value} positions")
    extracted = extracted / math.sqrt(kept)
    return AmplitudeVector(extracted.tolist())  # plain complex values take `_coefficient`'s fast path
