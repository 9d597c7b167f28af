"""Cost oracles, sweep runner, and scaling-trend fits.

The regression arrays in this module were computed from the verified
constructions via the greedy layering oracle and frozen; any drift in the
builders or the cost model shows up here first.
"""

from __future__ import annotations

import hashlib
import math

import pytest

from edick import (
    SWEEP_CSV_HEADER,
    SWEEP_SUBJECTS,
    EvenMethod,
    Granularity,
    ScalingModel,
    SweepRow,
    build_edick_to_binary,
    build_edick_to_onehot,
    cost,
    fit_scaling,
    rows_to_csv,
    run_sweep,
)

# expand-pow2 costs at the self-similar sizes N = 2**k + 1, k = 1..10
POW2_SIZES = [2**k + 1 for k in range(1, 11)]
DEPTH_LOGICAL = [1, 6, 9, 13, 18, 24, 31, 39, 48, 58]
SIZE_LOGICAL = [1, 7, 21, 51, 113, 239, 493, 1003, 2025, 4071]
DEPTH_BASIS = [1, 15, 34, 59, 92, 133, 182, 239, 304, 377]
SIZE_BASIS = [1, 21, 77, 205, 477, 1037, 2173, 4461, 9053, 18253]


@pytest.fixture(scope="module")
def pow2_rows() -> list[SweepRow]:
    return run_sweep(POW2_SIZES, subjects=("expand-pow2",))


# -- closed forms for the staircase unfolding ----------------------------------


def _unfolding_depth(num_levels: int) -> int:
    """Greedy depth of the unfolding: 2b - 3 for b = bit_length(N), plus 1 when N's second highest bit is set."""
    if num_levels == 2:
        return 1
    bits = num_levels.bit_length()
    return 2 * bits - 3 + ((num_levels >> (bits - 2)) & 1)


def _unfolding_size(num_levels: int) -> int:
    """Gate count of the unfolding: s(2)=1, s(2N)=s(N)+2N-1, s(N+1)=s(N)+1."""
    if num_levels == 2:
        return 1
    if num_levels % 2 == 0:
        return _unfolding_size(num_levels // 2) + num_levels - 1
    return _unfolding_size(num_levels - 1) + 1


@pytest.mark.parametrize("num_levels", [*range(2, 131), 257, 513, 1024, 1025])
def test_measured_depth_closed_form_is_exact(num_levels: int) -> None:
    report = cost(build_edick_to_onehot(num_levels))
    assert report.depth == _unfolding_depth(num_levels)
    assert report.size == _unfolding_size(num_levels)


def test_formula_depth_is_attained_exactly_at_powers_of_two() -> None:
    agree = {n for n in range(2, 65) if _unfolding_depth(n) == 2 * math.ceil(math.log2(n)) - 1}
    assert agree == {2, 4, 8, 16, 32, 64}


def test_measured_depth_never_exceeds_the_formula() -> None:
    for n in range(2, 65):
        assert _unfolding_depth(n) <= 2 * math.ceil(math.log2(n)) - 1


def test_size_stays_under_twice_the_levels() -> None:
    # The stated 1+N+log2(N) bound holds only through N=11; 2N always does.
    for n in range(2, 65):
        size = _unfolding_size(n)
        assert size < 2 * n
        if n <= 11:
            assert size < 1 + n + math.log2(n)
    assert _unfolding_size(12) >= 1 + 12 + math.log2(12)


# -- sweep runner ---------------------------------------------------------------


def test_sweep_header_is_pinned() -> None:
    assert SWEEP_CSV_HEADER == (
        "N,method,depth_logical,depth_basis,size_logical,size_basis,ancilla,build_time_ms"
    )


def test_sweep_rows_come_back_in_request_order() -> None:
    rows = run_sweep([4, 3], subjects=("recursion", "onehot"), granularity=Granularity.LOGICAL)
    assert [(r.num_levels, r.method) for r in rows] == [
        (4, "recursion"),
        (4, "onehot"),
        (3, "recursion"),
        (3, "onehot"),
    ]


def test_logical_granularity_leaves_basis_columns_zero() -> None:
    rows = run_sweep([6], subjects=("recursion",), granularity=Granularity.LOGICAL)
    assert rows[0].depth_basis == 0
    assert rows[0].size_basis == 0
    assert rows[0].depth_logical > 0


@pytest.mark.parametrize("subjects", [(), [], iter(())], ids=["tuple", "list", "iterator"])
def test_sweep_naming_no_subject_raises(subjects) -> None:
    with pytest.raises(ValueError, match="names no sweep subject"):
        run_sweep([5], subjects)


def test_sweep_takes_its_subjects_from_an_iterator() -> None:
    rows = run_sweep([5], iter(["recursion", "onehot"]), Granularity.LOGICAL)
    assert [r.method for r in rows] == ["recursion", "onehot"]


def test_sweep_times_default_to_zero_for_reproducibility() -> None:
    rows = run_sweep([5], subjects=("expand-pow2",))
    assert rows[0].build_time_ms == 0.0
    timed = run_sweep([5], subjects=("expand-pow2",), measure_time=True)
    assert timed[0].build_time_ms > 0.0


# sha256 of the sweep CSV over every subject at N = 2..40, recorded when each
# subject was still built by its own builder call. The basis digest was
# re-recorded when lowering began to borrow idle qubits for multi-controlled X.
_SWEEP_DIGESTS = {
    Granularity.TWO_QUBIT_BASIS: "0657284edad7b0e8b6cd0ae31793d3c06ed28a41485607bb8140afb0c28c04f5",
    Granularity.LOGICAL: "0b5fb28459946a80ea6cc0ad0fc682dee266c916e2646b5e658ba8c2bbb43a1e",
}


@pytest.mark.parametrize("granularity", list(_SWEEP_DIGESTS), ids=lambda g: g.name)
def test_sweep_csv_matches_its_recorded_digest(granularity: Granularity) -> None:
    text = rows_to_csv(run_sweep(range(2, 41), SWEEP_SUBJECTS, granularity))
    assert hashlib.sha256(text.encode()).hexdigest() == _SWEEP_DIGESTS[granularity]


def test_sweep_rejects_unknown_subjects() -> None:
    with pytest.raises(ValueError):
        run_sweep([4], subjects=("qft",))
    # A plain string is one subject name, not a sequence of one-letter names.
    with pytest.raises(ValueError, match="sequence of subject names"):
        run_sweep([4], "expand-pow2")
    # A bare level count is not a list of them.
    with pytest.raises(ValueError, match="level_counts must be an iterable of level counts, got 5"):
        run_sweep(5, ["onehot"])
    # Nor is a bare number a list of subjects.
    with pytest.raises(ValueError, match="subjects must be a sequence of subject names, got 5"):
        run_sweep([5], 5)


@pytest.mark.parametrize("granularity", ["two-qubit-basis", "logical", None])
def test_cost_and_sweep_refuse_a_granularity_that_is_not_one(granularity: object) -> None:
    circuit, _ = build_edick_to_binary(5, EvenMethod.RECURSION)
    with pytest.raises(ValueError, match="granularity must be a Granularity"):
        cost(circuit, granularity)
    with pytest.raises(ValueError, match="granularity must be a Granularity"):
        run_sweep([5], granularity=granularity)


def test_sweep_csv_shape() -> None:
    rows = run_sweep([3], subjects=("cnot-stair",), granularity=Granularity.LOGICAL)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[1] == "3,cnot-stair,3,0,3,0,0,0.0"
    # The time column is the float's repr, also for a sum that prints long or an int given.
    assert SweepRow(3, "cnot-stair", 3, 0, 3, 0, 0, 0.1 + 0.2).to_csv().endswith(",0.30000000000000004")
    assert SweepRow(3, "cnot-stair", 3, 0, 3, 0, 0, 2).to_csv() == "3,cnot-stair,3,0,3,0,0,2.0"
    # The header is the row's fields in order, the level count named N.
    assert SWEEP_CSV_HEADER == "N,method,depth_logical,depth_basis,size_logical,size_basis,ancilla,build_time_ms"


def test_sweep_stair_depth_column_is_2n_minus_3() -> None:
    rows = run_sweep(range(3, 13), subjects=("cnot-stair",), granularity=Granularity.LOGICAL)
    assert all(r.depth_logical == 2 * r.num_levels - 3 for r in rows)


def test_sweep_recursion_ancilla_column_is_zero() -> None:
    rows = run_sweep(range(3, 51), subjects=("recursion",), granularity=Granularity.LOGICAL)
    assert all(r.ancilla == 0 for r in rows)


def test_sweep_row_validation() -> None:
    with pytest.raises(ValueError):
        SweepRow(4, "recursion", 5, 0, 3, 0, 0, 0.0)  # depth above size
    with pytest.raises(ValueError):
        SweepRow(4, "recursion", -1, 0, 3, 0, 0, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SweepRow(4, "recursion", 3, 0, 3, 0, 0, bad)
    for bad in ("0", None, True):
        with pytest.raises(ValueError, match="build_time_ms must be a real number"):
            SweepRow(4, "recursion", 3, 0, 3, 0, 0, bad)
    assert type(SweepRow(4, "recursion", 3, 0, 3, 0, 0, 2).build_time_ms) is float
    # Each integer column refuses a negative value and non-integers, with these messages.
    messages = {
        0: ("need at least two levels", "level count must be an integer"),
        2: ("sweep metrics are finite and non-negative", "depth_logical must be an integer"),
        3: ("sweep metrics are finite and non-negative", "depth_basis must be an integer"),
        4: ("sweep metrics are finite and non-negative", "size_logical must be an integer"),
        5: ("sweep metrics are finite and non-negative", "size_basis must be an integer"),
        6: ("sweep metrics are finite and non-negative", "ancilla must be an integer"),
    }
    for column, (negative, not_integer) in messages.items():
        cases = [(-1, negative)] + [(bad, f"{not_integer}, got {bad!r}") for bad in (1.5, True, "3")]
        for bad, message in cases:
            row = [4, "recursion", 3, 0, 3, 0, 0, 0.0]
            row[column] = bad
            with pytest.raises(ValueError) as raised:
                SweepRow(*row)
            assert str(raised.value) == message
    # The columns are checked in field order.
    with pytest.raises(ValueError, match="^depth_basis must be an integer, got 1.5$"):
        SweepRow(4, "recursion", 3, 1.5, 3, -1, -1, 0.0)


@pytest.mark.parametrize("num_levels", [0, 1, -3])
def test_sweep_row_needs_two_levels(num_levels: int) -> None:
    with pytest.raises(ValueError, match="at least two levels"):
        SweepRow(num_levels, "recursion", 0, 0, 0, 0, 0, 0.0)


# -- frozen cost curves at the self-similar sizes -------------------------------


def test_pow2_cost_curves_match_the_frozen_arrays(pow2_rows: list[SweepRow]) -> None:
    assert [r.depth_logical for r in pow2_rows] == DEPTH_LOGICAL
    assert [r.size_logical for r in pow2_rows] == SIZE_LOGICAL
    assert [r.depth_basis for r in pow2_rows] == DEPTH_BASIS
    assert [r.size_basis for r in pow2_rows] == SIZE_BASIS
    assert all(r.ancilla == 0 for r in pow2_rows)


def test_basis_depth_fits_log_squared(pow2_rows: list[SweepRow]) -> None:
    points = [(r.num_levels, float(r.depth_basis)) for r in pow2_rows[1:]]  # k = 2..10
    _, residual = fit_scaling(points, ScalingModel.LOG_SQUARED)
    assert residual < 0.35
    _, residual = fit_scaling(points[:7], ScalingModel.LOG_SQUARED)  # k = 2..8
    assert residual < 0.35


def test_basis_size_fits_linear_once_past_the_small_sizes(pow2_rows: list[SweepRow]) -> None:
    # The per-level cost still climbs through k=4; the linear regime holds from k=5.
    points = [(r.num_levels, float(r.size_basis)) for r in pow2_rows[4:]]
    _, residual = fit_scaling(points, ScalingModel.LINEAR)
    assert residual < 0.35
    early = [(r.num_levels, float(r.size_basis)) for r in pow2_rows[1:]]
    _, early_residual = fit_scaling(early, ScalingModel.LINEAR)
    assert early_residual > 0.35


def test_basis_depth_growth_is_bounded_per_doubling(pow2_rows: list[SweepRow]) -> None:
    depth = {k + 1: r.depth_basis for k, r in enumerate(pow2_rows)}
    for k in range(2, 9):
        assert depth[k] - depth[k - 1] <= 7.2 * k


def test_basis_size_doubling_difference_is_log_squared(pow2_rows: list[SweepRow]) -> None:
    size = {r.num_levels: r.size_basis for r in pow2_rows}
    for k in range(2, 11):
        n = 2**k + 1
        assert size[n] - 2 * size[(n + 1) // 2] <= 3.6 * math.log2(n) ** 2


# -- trend fitter ----------------------------------------------------------------


def test_fit_recovers_exact_linear_data() -> None:
    points = [(n, 4.5 * n) for n in (3, 5, 9, 17, 33)]
    coefficient, residual = fit_scaling(points, ScalingModel.LINEAR)
    assert coefficient == pytest.approx(4.5)
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_fit_recovers_exact_log_squared_data() -> None:
    points = [(n, 2.25 * math.log2(n) ** 2) for n in (3, 5, 9, 17, 33)]
    coefficient, residual = fit_scaling(points, ScalingModel.LOG_SQUARED)
    assert coefficient == pytest.approx(2.25)
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_fit_rejects_thin_or_degenerate_input() -> None:
    with pytest.raises(ValueError):
        fit_scaling([(3, 1.0)] * 4, ScalingModel.LINEAR)
    with pytest.raises(ValueError):
        fit_scaling([(3, 1.0), (5, 2.0), (9, 0.0), (17, 4.0), (33, 5.0)], ScalingModel.LINEAR)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            fit_scaling([(3, 1.0), (5, 2.0), (9, bad), (17, 4.0), (33, 5.0)], ScalingModel.LINEAR)
    # Linear levels past the float range, or whose squares are: not OverflowError, not (0.0, 1.0).
    for huge in (10**400, 10**200):
        with pytest.raises(ValueError, match="overflows the float range"):
            fit_scaling([(huge + i, 1.0) for i in range(5)], ScalingModel.LINEAR)
    coefficient, worst = fit_scaling([(10**400 + i, 1.0) for i in range(5)], ScalingModel.LOG_SQUARED)
    assert coefficient == pytest.approx(1.0 / math.log2(10**400) ** 2) and worst < 1e-12
    for model in ScalingModel:
        with pytest.raises(ValueError, match="at least two levels"):
            fit_scaling([(1, 1.0)] * 5, model)
        for bad in (9.0, True, "9"):
            with pytest.raises(ValueError, match="must be an integer"):
                fit_scaling([(3, 1.0), (5, 2.0), (bad, 3.0), (17, 4.0), (33, 5.0)], model)
        for bad in ("1.0", None, True):
            with pytest.raises(ValueError, match="fit values must be real numbers"):
                fit_scaling([(3, 1.0), (5, 2.0), (9, bad), (17, 4.0), (33, 5.0)], model)
        for bad in (5, [3, 5, 9, 17, 33]):
            with pytest.raises(ValueError, match="pairs"):
                fit_scaling(bad, model)
        # Any iterable of points is read once and fits as the list does.
        points = [(3, 1.0), (5, 2.0), (9, 3.0), (17, 4.0), (33, 5.0)]
        assert fit_scaling((point for point in points), model) == fit_scaling(points, model)
