"""Encoding maps between level indices, basis positions, and state vectors."""

from __future__ import annotations

import math
import sys
import tracemalloc

import numpy as np
import pytest

from edick import (
    AmplitudeVector,
    ConverterPlan,
    Direction,
    EncodingKind,
    EvenMethod,
    Statevector,
    basis_state,
    build_state,
    dicke_state,
    level_to_basis,
    random_vector,
    read_state,
)
from edick.encodings import _KIND_LAYOUT, _sum_of_squares, random_vectors


def test_level_to_basis_per_kind() -> None:
    assert level_to_basis(EncodingKind.ONE_HOT, 2, 4) == 4
    assert level_to_basis(EncodingKind.ONE_HOT, 0, 4) == 1
    assert level_to_basis(EncodingKind.BINARY, 5, 3) == 5
    assert level_to_basis(EncodingKind.EDICK, 3, 3) == 7
    assert level_to_basis(EncodingKind.EDICK, 0, 3) == 0


@pytest.mark.parametrize("width", range(1, 13))
def test_edick_levels_are_right_aligned_ones(width: int) -> None:
    for level in range(width + 1):
        index = level_to_basis(EncodingKind.EDICK, level, width)
        assert index == (1 << level) - 1
        assert bin(index).count("1") == level


def test_level_to_basis_range_errors() -> None:
    with pytest.raises(ValueError):
        level_to_basis(EncodingKind.ONE_HOT, 4, 4)  # needs qubit 4
    with pytest.raises(ValueError):
        level_to_basis(EncodingKind.BINARY, 8, 3)
    with pytest.raises(ValueError):
        level_to_basis(EncodingKind.EDICK, 4, 3)
    with pytest.raises(ValueError):
        level_to_basis(EncodingKind.BINARY, -1, 3)
    with pytest.raises(ValueError, match="must be an EncodingKind"):
        level_to_basis("edick", 0, 4)
    for kind in EncodingKind:
        with pytest.raises(ValueError, match="width must be at least 1"):
            level_to_basis(kind, 0, 0)


def test_amplitude_vector_validation() -> None:
    with pytest.raises(ValueError):
        AmplitudeVector((1.0,))  # a single level is not a distribution over levels
    with pytest.raises(ValueError):
        AmplitudeVector((0.5, 0.5))  # norm is sqrt(0.5), not 1
    for big in ((1e200, 0.0), (1e308 + 1e308j, 0.0)):  # squares past the float range
        with pytest.raises(ValueError, match="not normalized"):
            AmplitudeVector(big)
    for bad in ((math.inf, 0.0), (math.nan, 0.0), (complex(0, math.inf), 0.0)):  # not finite
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            AmplitudeVector(bad)
    ok = AmplitudeVector((1.0, 0.0))
    assert ok.num_levels == 2


def test_normalized_rescales_and_rejects_zero() -> None:
    v = AmplitudeVector.normalized([3.0, 4.0])
    assert v.alphas[0] == pytest.approx(0.6)
    assert v.alphas[1] == pytest.approx(0.8)
    with pytest.raises(ValueError, match="zero vector"):
        AmplitudeVector.normalized([0.0, 0.0])
    half = 1 / math.sqrt(2) + 0j
    # Squares that overflow, underflow or sum to a subnormal.
    for scale in (1e200, 1e-200, 1e308, 5e-324, 1e-160, 1e-161):
        assert AmplitudeVector.normalized([scale, -scale]).alphas == (half, -half)
    first, second = AmplitudeVector.normalized([1e-155, 1e-170]).alphas
    assert first == 1.0 and second == pytest.approx(1e-15, rel=1e-12)
    assert AmplitudeVector.normalized([1e308 + 1e308j, 1e308j]).alphas == pytest.approx(
        [1 / math.sqrt(3) * (1 + 1j), 1j / math.sqrt(3)])


@pytest.mark.parametrize(
    "values",
    [[math.inf, 0], [-math.inf, 0], [math.nan, 0], [0.6, -math.inf], [complex(math.inf, 0), 1],
     [complex(0, math.nan), 1], [1j, complex(-math.inf, math.inf)]],
    ids=repr)
def test_normalized_refuses_coefficients_that_are_not_finite(values) -> None:
    with pytest.raises(ValueError, match="^amplitudes must be finite to be normalized$"):
        AmplitudeVector.normalized(values)


def test_normalized_keeps_its_other_refusals_byte_for_byte() -> None:
    for values, message in [
        ([None, 1], "amplitudes must be numbers in the float range, got None"),
        ([10**400, 0], f"amplitudes must be numbers in the float range, got {10**400!r}"),
        ([0.0, 0.0], "cannot normalize the zero vector"),
    ]:
        with pytest.raises(ValueError) as raised:
            AmplitudeVector.normalized(values)
        assert str(raised.value) == message


@pytest.mark.parametrize(
    "alphas",
    [(None, 1), ("0.6", "0.8"), (True, False), (np.True_, np.False_), (0.6, b"0.8"), (10**400, 0),
     None, 5],
    ids=lambda alphas: repr(alphas)[:40])
def test_amplitude_vector_refuses_what_is_not_a_sequence_of_numbers(alphas) -> None:
    with pytest.raises(ValueError, match="amplitudes must be"):
        AmplitudeVector(alphas)
    with pytest.raises(ValueError, match="amplitudes must be"):
        AmplitudeVector.normalized(alphas)


def test_random_vector_is_seeded_and_normalized() -> None:
    a = random_vector(6, np.random.default_rng(7))
    b = random_vector(6, np.random.default_rng(7))
    assert a == b
    assert sum(abs(z) ** 2 for z in a.alphas) == pytest.approx(1.0)
    # The plain division by the norm, bit for bit: verify's golden output depends on it.
    values = np.random.default_rng(7).standard_normal(6)
    norm = math.sqrt(sum(abs(complex(v)) ** 2 for v in values))
    assert a.alphas == tuple(complex(v) / norm for v in values)
    # A seed, or a generator of another kind, is not a Generator.
    for rng in (7, None, np.random.RandomState(7)):
        with pytest.raises(ValueError, match="rng must be a numpy.random.Generator"):
            random_vector(6, rng)


@pytest.mark.parametrize("width", range(1, 13))
def test_onehot_patterns_are_exactly_powers_of_two(width: int) -> None:
    patterns = {level_to_basis(EncodingKind.ONE_HOT, i, width) for i in range(width)}
    assert patterns == {v for v in range(1 << width) if v and v & (v - 1) == 0}


@pytest.mark.parametrize("kind", list(EncodingKind))
@pytest.mark.parametrize("num_levels", [2, 3, 7, 12, 16])
def test_build_then_read_round_trips(kind: EncodingKind, num_levels: int) -> None:
    if kind is EncodingKind.ONE_HOT:
        width = num_levels
    elif kind is EncodingKind.BINARY:
        width = max((num_levels - 1).bit_length(), 1)
    else:
        width = num_levels - 1
    vector = random_vector(num_levels, np.random.default_rng(num_levels))
    state = build_state(kind, vector, width)
    back = read_state(kind, state, num_levels)
    assert all(
        abs(x - y) < 1e-12 for x, y in zip(back.alphas, vector.alphas)
    )


@pytest.mark.parametrize("amplitudes", [None, (0.6, 0.8), [0.6, 0.8], np.array([0.6, 0.8])], ids=repr)
def test_build_state_takes_only_an_amplitude_vector(amplitudes) -> None:
    with pytest.raises(ValueError, match="amplitudes must be an AmplitudeVector"):
        build_state(EncodingKind.BINARY, amplitudes, 3)


def test_read_state_rejects_stray_mass() -> None:
    # |010> is not a staircase pattern, so reading Edick levels must fail.
    with pytest.raises(ValueError, match="outside"):
        read_state(EncodingKind.EDICK, basis_state(3, 0b010), 4)


def _bits(vector: AmplitudeVector) -> list[tuple[type, str, str]]:
    return [(type(a), a.real.hex(), a.imag.hex()) for a in vector.alphas]


def test_normalized_and_read_state_give_the_alphas_of_the_checking_constructor() -> None:
    """Bit for bit, as plain complex values: what `AmplitudeVector(...)` made of the same quotients."""
    rng = np.random.default_rng(19)
    cases = [rng.standard_normal(n).tolist() for n in (2, 3, 14, 100)]
    cases += [(rng.standard_normal(5) + 1j * rng.standard_normal(5)).tolist(), [3, 4]]
    cases += [[1e200, -3e200], [5e-324, 1e-320j]]  # squares past the normal range: scaled first
    for values in cases:
        alphas = tuple(map(complex, values))
        if not sys.float_info.min <= _sum_of_squares(alphas) < math.inf:
            scale = max(max(abs(a.real), abs(a.imag)) for a in alphas)
            alphas = tuple(a / scale for a in alphas)
        norm = math.sqrt(_sum_of_squares(alphas))
        assert _bits(AmplitudeVector.normalized(values)) == _bits(AmplitudeVector(tuple(a / norm for a in alphas)))
    for kind in EncodingKind:
        for num_levels in (2, 5, 9):
            rows = [level_to_basis(kind, level, 10) for level in range(num_levels)]
            amps = np.zeros(1 << 10, dtype=np.complex128)
            amps[rows] = rng.standard_normal(num_levels) + 1j * rng.standard_normal(num_levels)
            amps[(set(range(1 << 10)) - set(rows)).pop()] = 1e-6  # stray mass, so the read renormalizes
            state = Statevector(10, amps / np.linalg.norm(amps))
            extracted = state.amplitudes[rows]
            extracted = extracted / math.sqrt(float(np.sum(np.abs(extracted) ** 2)))
            assert _bits(read_state(kind, state, num_levels)) == _bits(AmplitudeVector(tuple(extracted)))


def test_read_state_renormalizes_within_tolerance() -> None:
    eps = 1e-6  # amplitude, so stray probability 1e-12 stays under the gate
    amps = np.zeros(8, dtype=np.complex128)
    amps[0b000] = math.sqrt(1 - eps**2)
    amps[0b010] = eps
    vector = read_state(EncodingKind.EDICK, Statevector(3, amps), 4)
    assert sum(abs(z) ** 2 for z in vector.alphas) == pytest.approx(1.0)


def test_dicke_states_are_uniform_over_weight() -> None:
    state = dicke_state(4, 2)
    amps = np.asarray(state.amplitudes)
    hot = [i for i in range(16) if abs(amps[i]) > 1e-12]
    assert hot == [i for i in range(16) if bin(i).count("1") == 2]
    np.testing.assert_allclose(amps[hot], 1 / math.sqrt(6), atol=1e-15)


def test_dicke_extremes() -> None:
    assert np.asarray(dicke_state(3, 0).amplitudes)[0] == 1.0
    assert np.asarray(dicke_state(3, 3).amplitudes)[7] == 1.0
    with pytest.raises(ValueError, match="weight 4 exceeds 3 qubits"):
        dicke_state(3, 4)
    with pytest.raises(ValueError, match="Dicke weight must be non-negative"):
        dicke_state(3, -1)


def _refuse(*args, **kwargs):
    raise AssertionError("allocated or enumerated before the width check")


@pytest.mark.parametrize("width", (25, 40, 64))
@pytest.mark.parametrize("kind", list(EncodingKind), ids=str)
def test_build_state_refuses_wide_registers_before_allocating(kind, width: int, monkeypatch) -> None:
    monkeypatch.setattr("edick.encodings.np.zeros", _refuse)
    with pytest.raises(ValueError, match="register width"):
        build_state(kind, AmplitudeVector((0.6, 0.8)), width)


@pytest.mark.parametrize("width", (25, 40, 64))
def test_dicke_state_refuses_wide_registers_before_enumerating(width: int, monkeypatch) -> None:
    monkeypatch.setattr("edick.encodings.np.zeros", _refuse)
    monkeypatch.setattr("edick.encodings.combinations", _refuse)
    with pytest.raises(ValueError, match="register width"):
        dicke_state(width, 2)


# The layouts as closed forms, independent of the table: row formula, and the
# largest level a register of `width` qubits holds.
_ROWS = {EncodingKind.ONE_HOT: lambda i: 1 << i, EncodingKind.BINARY: lambda i: i,
         EncodingKind.EDICK: lambda i: (1 << i) - 1}
_TOP = {EncodingKind.ONE_HOT: lambda w: w - 1, EncodingKind.BINARY: lambda w: (1 << w) - 1,
        EncodingKind.EDICK: lambda w: w}
_CHUNK = 1 << 20  # levels per array, so binary width 24 stays a few MB at a time


@pytest.mark.parametrize("kind", list(EncodingKind), ids=str)
def test_layout_table_rows_and_fit_tests_equal_the_closed_forms(kind: EncodingKind) -> None:
    layout = _KIND_LAYOUT[kind]
    for level in range(64):
        assert layout.row(level) == _ROWS[kind](level)
    for width in range(1, 25):
        top = _TOP[kind](width)
        for start in range(0, top + 2, _CHUNK):
            levels = np.arange(start, min(start + _CHUNK, top + 2), dtype=np.int64)
            rows = layout.row(levels)
            assert rows.dtype == np.int64
            assert np.array_equal(rows, _ROWS[kind](levels))
            assert np.array_equal(layout.fits(levels, width), levels <= top)
        for level in range(max(top - 3, 0), top + 3):  # the boundary as ints
            assert layout.fits(level, width) is (level <= top)
            if level <= top:
                assert layout.row(level) == level_to_basis(kind, level, width)
            else:
                with pytest.raises(ValueError, match=f"^{layout.name} level {level} needs more than {width} qubits$"):
                    level_to_basis(kind, level, width)


def _spy(monkeypatch) -> list[tuple]:
    """Records each call of `level_to_basis` made through the encodings (and converters) module."""
    calls: list[tuple] = []

    def spy(*args):
        calls.append(args)
        return level_to_basis(*args)

    monkeypatch.setattr("edick.encodings.level_to_basis", spy)
    monkeypatch.setattr("edick.converters.level_to_basis", spy, raising=False)
    return calls


def _reference_amplitudes(kind: EncodingKind, vector: AmplitudeVector, width: int) -> np.ndarray:
    amps = np.zeros(1 << width, dtype=np.complex128)
    for level, alpha in enumerate(vector.alphas):
        amps[level_to_basis(kind, level, width)] = alpha
    return amps


_GRID = [(kind, levels, width) for kind in EncodingKind for levels in (2, 3, 5, 8)
         for width in range(1, levels + 2) if _TOP[kind](width) >= levels - 1]


@pytest.mark.parametrize("kind, num_levels, width", _GRID + [(EncodingKind.BINARY, 1 << 16, 16)],
                         ids=lambda v: str(v))
def test_build_and_read_state_check_one_level_and_match_the_per_level_map(
    kind: EncodingKind, num_levels: int, width: int, monkeypatch
) -> None:
    vector = random_vector(num_levels, np.random.default_rng(num_levels + width))
    expected = _reference_amplitudes(kind, vector, width)
    calls = _spy(monkeypatch)
    state = build_state(kind, vector, width)
    assert calls == [(kind, num_levels - 1, width)]
    assert np.array_equal(state.amplitudes, expected)
    calls.clear()
    back = read_state(kind, state, num_levels)
    assert calls == [(kind, num_levels - 1, width)]
    indices = [level_to_basis(kind, level, width) for level in range(num_levels)]
    extracted = expected[indices]
    reference = extracted / math.sqrt(float(np.sum(np.abs(extracted) ** 2)))
    assert np.array_equal(np.array(back.alphas), reference)


@pytest.mark.parametrize("direction", list(Direction), ids=str)
@pytest.mark.parametrize("num_levels", [2, 5, 8, 17])
def test_converter_plan_indices_make_no_level_to_basis_call(direction: Direction, num_levels: int,
                                                           monkeypatch) -> None:
    plan = ConverterPlan(num_levels, EvenMethod.EXPAND_TO_POW2, direction)
    calls = _spy(monkeypatch)
    for level in range(num_levels):
        plan.input_index(level)
        plan.output_index(level)
    plan.input_rows()
    plan.output_rows()
    assert calls == []


def test_binary_fit_test_builds_no_power_of_the_width() -> None:
    tracemalloc.start()
    try:
        assert level_to_basis(EncodingKind.BINARY, 3, 10**8) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    with pytest.raises(ValueError, match="^binary level 1099511627776 needs more than 40 qubits$"):
        level_to_basis(EncodingKind.BINARY, 2**40, 40)


@pytest.mark.parametrize("kind, num_levels, width, message", [
    (EncodingKind.BINARY, 9, 3, "binary level 8 needs more than 3 qubits"),  # capacity + 1
    (EncodingKind.ONE_HOT, 9, 5, "one-hot level 8 needs more than 5 qubits"),
    (EncodingKind.EDICK, 9, 5, "edick level 8 needs more than 5 qubits"),
], ids=str)
def test_a_level_count_past_capacity_names_the_highest_level(kind, num_levels, width, message) -> None:
    vector = random_vector(num_levels, np.random.default_rng(1))
    with pytest.raises(ValueError) as raised:
        build_state(kind, vector, width)
    assert str(raised.value) == message
    with pytest.raises(ValueError) as raised:
        read_state(kind, basis_state(width, 0), num_levels)
    assert str(raised.value) == message


def _raw(values) -> bytes:
    return np.asarray(values, dtype=np.complex128).tobytes()


@pytest.mark.parametrize("num_levels", [2, 3, 10, 15, 17, 33, 64])
def test_random_vectors_are_successive_random_vector_calls_bit_for_bit(num_levels: int) -> None:
    for seed in range(200):
        count = 1 + seed % 5
        block = random_vectors(num_levels, count, block_rng := np.random.default_rng(seed))
        assert block.shape == (count, num_levels) and block.dtype == np.float64
        calls = [random_vector(num_levels, calls_rng := np.random.default_rng(seed)).alphas]
        calls += [random_vector(num_levels, calls_rng).alphas for _ in range(count - 1)]
        # The loop `random_vector` ran before it became the one-row case.
        loop_rng = np.random.default_rng(seed)
        loop = [AmplitudeVector.normalized(loop_rng.standard_normal(num_levels).tolist()).alphas
                for _ in range(count)]
        assert _raw(block) == _raw(calls) == _raw(loop), seed
        assert block_rng.random() == calls_rng.random() == loop_rng.random(), seed


def test_zero_random_vectors_draw_nothing() -> None:
    rng = np.random.default_rng(3)
    assert random_vectors(4, 0, rng).shape == (0, 4)
    assert rng.random() == np.random.default_rng(3).random()


class _Injecting(np.random.Generator):
    """A generator whose standard-normal draws get `value` at one place."""

    def __init__(self, value: float, at: tuple[int, int]) -> None:
        super().__init__(np.random.PCG64(5))
        self.value, self.at = value, at

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        draws = super().standard_normal(size)
        draws[self.at] = self.value
        return draws


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_non_finite_draw_raises(value: float) -> None:
    with pytest.raises(ValueError, match="finite"):
        random_vectors(6, 3, _Injecting(value, (2, 4)))
    with pytest.raises(ValueError, match="finite"):
        random_vector(6, _Injecting(value, (0, 1)))


def test_a_row_past_the_normal_range_goes_to_normalized() -> None:
    class Scaled(np.random.Generator):
        def standard_normal(self, size=None, dtype=np.float64, out=None):
            draws = super().standard_normal(size)
            draws[1] *= 1e-170  # its squares underflow
            draws[2] *= 1e170  # its squares overflow
            return draws

    block = random_vectors(5, 3, Scaled(np.random.PCG64(9)))
    draws = Scaled(np.random.PCG64(9)).standard_normal((3, 5))
    for row, drawn in zip(block, draws):
        assert _raw(row) == _raw(AmplitudeVector.normalized(drawn.tolist()).alphas)
    with pytest.raises(ValueError, match="cannot normalize the zero vector"):
        random_vectors(3, 2, _Injecting(0.0, (1, slice(None))))


def test_random_vectors_check_their_arguments() -> None:
    for rng in (7, None, np.random.RandomState(7)):
        with pytest.raises(ValueError, match="rng must be a numpy.random.Generator"):
            random_vectors(6, 2, rng)
    with pytest.raises(ValueError, match="vector count must be non-negative"):
        random_vectors(6, -1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="vector count must be an integer"):
        random_vectors(6, 2.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="need at least two levels"):
        random_vectors(1, 2, np.random.default_rng(0))
