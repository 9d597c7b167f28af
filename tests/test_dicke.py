"""Dicke preparation and the binomial distribution loading pipeline."""

from __future__ import annotations

import math

import numpy as np
import pytest

from edick import (
    BinomialSpec,
    Circuit,
    ConverterPlan,
    Direction,
    EncodingKind,
    EvenMethod,
    Statevector,
    basis_state,
    build_adder,
    build_binomial_pipeline,
    build_dicke_unitary,
    build_scs,
    cost,
    dicke_state,
    fidelity,
    run,
)

P_GRID = [0.1, 0.3, 0.5, 0.7, 0.9]


def amplitudes_of(state: Statevector) -> np.ndarray:
    return np.asarray(state.amplitudes)


# -- split & cyclic shift blocks ----------------------------------------------


@pytest.mark.parametrize("n", range(2, 7))
def test_scs_action_equations(n: int) -> None:
    for k in range(1, n):
        circuit = build_scs(n, k)
        width = k + 1
        dim = 1 << width
        # all-zero and all-one inputs are fixed points
        for fixed in (0, dim - 1):
            out = run(basis_state(width, fixed), circuit)
            assert abs(amplitudes_of(out)[fixed]) == pytest.approx(1.0, abs=1e-9)
        # |0...01...1> with l ones splits into stay and shift branches
        for ones in range(1, width):
            pattern = (1 << ones) - 1
            out = amplitudes_of(run(basis_state(width, pattern), circuit))
            expected = np.zeros(dim)
            expected[pattern] = math.sqrt(ones / n)
            expected[pattern << 1] = math.sqrt((n - ones) / n)
            np.testing.assert_allclose(out, expected, atol=1e-9)


def test_scs_literal_small_case() -> None:
    # SCS with n=4, k=3 on |0001>: sqrt(1/4)|0001> + sqrt(3/4)|0010>.
    out = amplitudes_of(run(basis_state(4, 0b0001), build_scs(4, 3)))
    assert out[0b0001] == pytest.approx(math.sqrt(0.25), abs=1e-12)
    assert out[0b0010] == pytest.approx(math.sqrt(0.75), abs=1e-12)


def test_scs_validates_split_index() -> None:
    for n, k in [(3, 0), (3, 3), (2, 2)]:
        with pytest.raises(ValueError):
            build_scs(n, k)


# -- Dicke preparation unitary ------------------------------------------------


@pytest.mark.parametrize("num_qubits", range(2, 9))
def test_dicke_unitary_prepares_uniform_states(num_qubits: int) -> None:
    circuit = build_dicke_unitary(num_qubits)
    for weight in range(num_qubits + 1):
        source = basis_state(num_qubits, (1 << weight) - 1)
        target = dicke_state(num_qubits, weight)
        assert fidelity(run(source, circuit), target) >= 1 - 1e-9


def test_dicke_four_choose_two_is_one_over_sqrt_six() -> None:
    out = amplitudes_of(run(basis_state(4, 0b0011), build_dicke_unitary(4)))
    hot = [i for i in range(16) if bin(i).count("1") == 2]
    np.testing.assert_allclose(out[hot], 1 / math.sqrt(6), atol=1e-12)
    cold = [i for i in range(16) if bin(i).count("1") != 2]
    np.testing.assert_allclose(out[cold], 0.0, atol=1e-12)


def test_dicke_unitary_costs_grow_linear_depth_quadratic_size() -> None:
    for num_qubits in range(3, 15):
        report = cost(build_dicke_unitary(num_qubits))
        assert report.size == 3 * num_qubits * (num_qubits - 1) // 2
        assert report.depth == 8 * num_qubits - 15


def test_dicke_unitary_rejects_single_qubit() -> None:
    with pytest.raises(ValueError):
        build_dicke_unitary(1)


# -- binomial pipeline --------------------------------------------------------


def test_spec_validation_and_theta_link() -> None:
    spec = BinomialSpec.from_probability(6, 0.3, EncodingKind.EDICK, EvenMethod.RECURSION)
    assert spec.theta == pytest.approx(2 * math.asin(math.sqrt(0.3)))
    with pytest.raises(ValueError):
        BinomialSpec.from_probability(1, 0.3, EncodingKind.EDICK, EvenMethod.RECURSION)
    with pytest.raises(ValueError):
        BinomialSpec.from_probability(4, 1.5, EncodingKind.EDICK, EvenMethod.RECURSION)
    # Any real p is stored as a float, and theta is derived from it.
    assert type(BinomialSpec.from_probability(4, 1).p) is float
    spec = BinomialSpec(4, np.float64(0.5), EncodingKind.EDICK, EvenMethod.RECURSION)
    assert (type(spec.p), type(spec.theta)) == (float, float)
    assert spec.theta == 2.0 * math.asin(math.sqrt(0.5))


@pytest.mark.parametrize("bad", [True, "0.5", 0.5 + 0j, None], ids=repr)
def test_spec_refuses_a_probability_or_angle_that_is_not_real(bad: object) -> None:
    with pytest.raises(ValueError, match="probability must be a real number"):
        BinomialSpec.from_probability(4, bad)
    with pytest.raises(ValueError, match="probability must be a real number"):
        BinomialSpec(4, bad, EncodingKind.EDICK, EvenMethod.RECURSION)


def pmf(n: int, k: int, p: float) -> float:
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


def level_index(target: EncodingKind, k: int) -> int:
    if target is EncodingKind.EDICK:
        return (1 << k) - 1
    if target is EncodingKind.ONE_HOT:
        return 1 << k
    return k


def test_staircase_target_two_trials_half() -> None:
    spec = BinomialSpec.from_probability(2, 0.5, EncodingKind.EDICK, EvenMethod.RECURSION)
    circuit, plan = build_binomial_pipeline(spec)
    assert plan.direction is None
    out = amplitudes_of(run(basis_state(circuit.num_qubits, 0), circuit))
    np.testing.assert_allclose(
        [out[0], out[1], out[3]], [0.5, math.sqrt(2) / 2, 0.5], atol=1e-12
    )


@pytest.mark.parametrize("target", list(EncodingKind))
@pytest.mark.parametrize("trials", [2, 3, 5, 6])
def test_pipeline_matches_the_pmf(target: EncodingKind, trials: int) -> None:
    for p in P_GRID:
        spec = BinomialSpec.from_probability(trials, p, target, EvenMethod.EXPAND_TO_POW2)
        circuit, _ = build_binomial_pipeline(spec)
        out = amplitudes_of(run(basis_state(circuit.num_qubits, 0), circuit))
        for k in range(trials + 1):
            probability = abs(out[level_index(target, k)]) ** 2
            assert probability == pytest.approx(pmf(trials, k, p), abs=1e-9)


def test_pipeline_variance_matches_formula() -> None:
    spec = BinomialSpec.from_probability(7, 0.4, EncodingKind.EDICK, EvenMethod.RECURSION)
    circuit, _ = build_binomial_pipeline(spec)
    out = amplitudes_of(run(basis_state(circuit.num_qubits, 0), circuit))
    probabilities = [abs(out[(1 << k) - 1]) ** 2 for k in range(8)]
    mean = sum(k * q for k, q in enumerate(probabilities))
    variance = sum((k - mean) ** 2 * q for k, q in enumerate(probabilities))
    assert variance == pytest.approx(7 * 0.4 * 0.6, abs=1e-9)


def test_degenerate_probabilities_collapse_to_one_level() -> None:
    for p, level in [(0.0, 0), (1.0, 4)]:
        spec = BinomialSpec.from_probability(4, p, EncodingKind.EDICK, EvenMethod.RECURSION)
        circuit, _ = build_binomial_pipeline(spec)
        out = amplitudes_of(run(basis_state(circuit.num_qubits, 0), circuit))
        assert abs(out[(1 << level) - 1]) == pytest.approx(1.0, abs=1e-9)


def test_binary_target_reports_the_compression_plan() -> None:
    spec = BinomialSpec.from_probability(6, 0.3, EncodingKind.BINARY, EvenMethod.RECURSION)
    circuit, plan = build_binomial_pipeline(spec)
    assert plan.direction is Direction.EDICK_TO_BINARY
    assert plan.num_levels == 7
    assert plan.ancilla == 0
    assert circuit.num_qubits == plan.total_qubits


def test_onehot_target_widens_by_one_qubit() -> None:
    spec = BinomialSpec.from_probability(5, 0.5, EncodingKind.ONE_HOT, EvenMethod.RECURSION)
    circuit, plan = build_binomial_pipeline(spec)
    assert circuit.num_qubits == 6
    assert plan.direction is Direction.EDICK_TO_ONEHOT


@pytest.mark.parametrize("method", list(EvenMethod))
@pytest.mark.parametrize("target", list(EncodingKind))
def test_pipeline_scans_no_circuit(
    target: EncodingKind, method: EvenMethod, monkeypatch: pytest.MonkeyPatch
) -> None:
    scanned = _spy_on_width_scans(monkeypatch)
    for trials in (2, 4, 7, 10, 19):
        build_binomial_pipeline(BinomialSpec.from_probability(trials, 0.3, target, method))
    assert scanned == []


def test_block_builders_scan_no_circuit(monkeypatch: pytest.MonkeyPatch) -> None:
    scanned = _spy_on_width_scans(monkeypatch)
    for n in range(2, 9):
        build_adder(n, 3)
        build_dicke_unitary(n)
        for k in range(1, n):
            build_scs(n, k)
    assert scanned == []


def _spy_on_width_scans(monkeypatch: pytest.MonkeyPatch) -> list[str]:
    """The labels of the circuits that go through Circuit's width scan from now on."""
    scanned = []
    post_init = Circuit.__post_init__

    def counting(self: Circuit) -> None:
        scanned.append(self.label)
        post_init(self)

    monkeypatch.setattr(Circuit, "__post_init__", counting)
    return scanned


@pytest.mark.parametrize("method", list(EvenMethod))
@pytest.mark.parametrize("target", list(EncodingKind))
def test_pipeline_derives_one_plan(
    target: EncodingKind, method: EvenMethod, monkeypatch: pytest.MonkeyPatch
) -> None:
    # The spec derives the pipeline's plan; the pipeline builds from it, not a second one.
    derived = []
    post_init = ConverterPlan.__post_init__

    def counting(self: ConverterPlan) -> None:
        derived.append(self.direction)
        post_init(self)

    monkeypatch.setattr(ConverterPlan, "__post_init__", counting)
    spec = BinomialSpec.from_probability(6, 0.3, target, method)
    _, plan = build_binomial_pipeline(spec)
    assert derived == [plan.direction]
    assert plan is spec.plan
