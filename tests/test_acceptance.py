"""Top-level acceptance gate, one printed PASS/FAIL line per criterion.

Checks 3a, 3c, and 7b pin analytic targets that the realized construction
provably misses; they fail by design so the gap stays visible, and their
messages carry the measured truth. Every other criterion must pass.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from edick import (
    BinomialSpec,
    Circuit,
    EncodingKind,
    EvenMethod,
    Granularity,
    ScalingModel,
    Statevector,
    basis_state,
    build_adder,
    build_binomial_pipeline,
    build_cnot_stair,
    build_dicke_unitary,
    build_edick_to_binary,
    build_edick_to_onehot,
    build_onehot_to_binary,
    cost,
    fidelity,
    fit_scaling,
    inverse,
    random_vector,
    run,
    run_sweep,
)
from edick.cli import main

TOL = 1e-9
METHODS = list(EvenMethod)
POW2_SIZES = [2**k + 1 for k in range(1, 11)]


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {name}: {detail}"


def _single_basis_output(state: Statevector, index: int) -> bool:
    """Output mass sits on `index` with stray probability below 1e-9."""
    amps = np.asarray(state.amplitudes)
    kept = abs(amps[index]) ** 2
    return kept >= 1.0 - TOL and float(np.sum(np.abs(amps) ** 2) - kept) < TOL


def test_criterion_1_converter_correctness() -> None:
    started = time.perf_counter()
    worst = ""

    for num_levels in range(2, 15):
        for method in METHODS:
            circuit, plan = build_edick_to_binary(num_levels, method)
            for level in range(num_levels):
                out = run(basis_state(plan.total_qubits, (1 << level) - 1), circuit)
                if not _single_basis_output(out, level):
                    worst = f"binary N={num_levels} {method.value} level {level}"

    for num_levels in range(2, 15):
        circuit = build_edick_to_onehot(num_levels)
        for level in range(num_levels):
            out = run(basis_state(num_levels, (1 << (level + 1)) - 1), circuit)
            if not _single_basis_output(out, 1 << level):
                worst = f"onehot N={num_levels} level {level}"

    # golden rows, four-level and five-level unfolding: exact permutation action
    for num_levels, rows in [
        (4, [(0b0001, 0b0001), (0b0011, 0b0010), (0b0111, 0b0100), (0b1111, 0b1000)]),
        (5, [((1 << (i + 1)) - 1, 1 << i) for i in range(5)]),
    ]:
        circuit = build_edick_to_onehot(num_levels)
        for source, target in rows:
            amps = np.asarray(run(basis_state(num_levels, source), circuit).amplitudes)
            if amps[target] != 1.0 or np.count_nonzero(amps) != 1:
                worst = f"golden unfolding N={num_levels} {source:0{num_levels}b}"

    # golden rows, seven-level compression: end states in level order
    for method in METHODS:
        circuit, plan = build_edick_to_binary(7, method)
        for level in range(7):
            out = run(basis_state(plan.total_qubits, (1 << level) - 1), circuit)
            if not _single_basis_output(out, level):
                worst = f"golden compression level {level} {method.value}"

    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        worst = f"runtime {elapsed:.1f}s over the 60s budget"
    _report(
        "1 converter correctness",
        worst == "",
        worst or f"N=2..14, 3 methods, stray<1e-9, goldens exact, {elapsed:.1f}s",
    )


def test_criterion_2_theorem_round_trip() -> None:
    rng = np.random.default_rng(2)
    worst_fidelity = 1.0
    for num_levels in range(3, 13):
        forward, plan = build_onehot_to_binary(num_levels)
        total = plan.total_qubits
        loop = Circuit(total, forward.gates + inverse(forward).gates)
        for _ in range(20):
            vector = random_vector(num_levels, rng)
            amps = np.zeros(1 << total, dtype=np.complex128)
            for level, alpha in enumerate(vector.alphas):
                amps[1 << level] = alpha
            start = Statevector(total, amps)
            worst_fidelity = min(worst_fidelity, fidelity(run(start, loop), start))
    _report(
        "2 round trip",
        worst_fidelity >= 1.0 - TOL,
        f"N=3..12, 20 vectors each, worst fidelity {worst_fidelity!r}",
    )


def test_criterion_3a_depth_formula() -> None:
    mismatches = []
    for num_levels in range(2, 65):
        measured = cost(build_edick_to_onehot(num_levels)).depth
        formula = 2 * max((num_levels - 1).bit_length(), 1) - 1
        if measured != formula:
            mismatches.append((num_levels, measured, formula))
    _report(
        "3a depth formula",
        not mismatches,
        "depth == 2*ceil(log2 N)-1 on all of N=2..64"
        if not mismatches
        else f"{len(mismatches)}/63 values differ, first (N, measured, formula): "
        f"{mismatches[:3]}; equality holds only at powers of two",
    )


def test_criterion_3b_size_recurrence() -> None:
    size = {n: cost(build_edick_to_onehot(n)).size for n in range(2, 65)}
    ok = size[2] == 1
    ok = ok and all(size[2 * n] == size[n] + 2 * n - 1 for n in range(2, 33))
    ok = ok and all(size[n + 1] == size[n] + 1 for n in range(2, 64, 2))
    _report("3b size recurrence", ok, "s(2)=1, s(2N)=s(N)+2N-1, s(N+1)=s(N)+1 exact on N=2..64")


def test_criterion_3c_size_bound() -> None:
    violations = [
        (n, cost(build_edick_to_onehot(n)).size, 1 + n + math.log2(n))
        for n in range(2, 65)
        if not cost(build_edick_to_onehot(n)).size < 1 + n + math.log2(n)
    ]
    _report(
        "3c size bound",
        not violations,
        "size < 1+N+log2(N) on all of N=2..64"
        if not violations
        else f"{len(violations)}/63 values at or over the bound, first (N, size, bound): "
        f"{[(n, s, round(b, 2)) for n, s, b in violations[:3]]}; true scale is 2N",
    )


def test_criterion_4_baseline_comparison() -> None:
    worst = ""
    for num_levels in range(3, 13):
        report = cost(build_cnot_stair(num_levels))
        if report.depth != 2 * num_levels - 3:
            worst = f"stair depth N={num_levels}: {report.depth}"
        if report.size != num_levels * (num_levels - 1) // 2:
            worst = f"stair size N={num_levels}: {report.size}"
        if num_levels >= 4:
            unfold_depth = cost(build_edick_to_onehot(num_levels)).depth
            if not unfold_depth < report.depth:
                worst = f"no depth win at N={num_levels}"
    _report(
        "4 baseline comparison",
        worst == "",
        worst or "stair depth 2N-3 and size N(N-1)/2 on N=3..12, unfolding shallower from N=4",
    )


def test_criterion_5_adder_exhaustive() -> None:
    worst_fidelity = 1.0
    for num_qubits in range(1, 7):
        dim = 1 << num_qubits
        for shift in range(dim):
            circuit = build_adder(num_qubits, shift)
            for source in range(dim):
                out = run(basis_state(num_qubits, source), circuit)
                target = basis_state(num_qubits, (source + shift) % dim)
                worst_fidelity = min(worst_fidelity, fidelity(out, target))
    _report(
        "5 adder",
        worst_fidelity >= 1.0 - TOL,
        f"n<=6, all shifts, all inputs, worst overlap {worst_fidelity!r}",
    )


def test_criterion_6_dicke_binomial() -> None:
    worst = ""

    for num_qubits in range(2, 11):
        circuit = build_dicke_unitary(num_qubits)
        for weight in range(num_qubits + 1):
            amps = np.asarray(
                run(basis_state(num_qubits, (1 << weight) - 1), circuit).amplitudes
            )
            uniform = 1.0 / math.sqrt(math.comb(num_qubits, weight))
            for index in range(1 << num_qubits):
                expected = uniform if bin(index).count("1") == weight else 0.0
                if abs(amps[index] - expected) >= TOL:
                    worst = f"Dicke N={num_qubits} k={weight} index {index}"

    for trials in range(2, 11):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            theta = 2.0 * math.asin(math.sqrt(p))
            spec = BinomialSpec(trials, p, EncodingKind.EDICK, EvenMethod.RECURSION)
            circuit, _ = build_binomial_pipeline(spec)
            amps = np.asarray(run(basis_state(circuit.num_qubits, 0), circuit).amplitudes)
            probabilities = [abs(amps[(1 << k) - 1]) ** 2 for k in range(trials + 1)]
            for k, probability in enumerate(probabilities):
                pmf = math.comb(trials, k) * p**k * (1 - p) ** (trials - k)
                if abs(probability - pmf) >= TOL:
                    worst = f"pmf N={trials} p={p} level {k}"
            mean = sum(k * q for k, q in enumerate(probabilities))
            variance = sum((k - mean) ** 2 * q for k, q in enumerate(probabilities))
            if abs(variance - trials * math.sin(theta) ** 2 / 4.0) >= TOL:
                worst = f"variance N={trials} p={p}"

    _report(
        "6 dicke and binomial",
        worst == "",
        worst or "Dicke N<=10 all k, pmf and variance N<=10 across the p grid, all <1e-9",
    )


@pytest.fixture(scope="module")
def pow2_basis_rows():
    return run_sweep(POW2_SIZES, subjects=("expand-pow2",))


def test_criterion_7a_depth_trend(pow2_basis_rows) -> None:
    points = [(r.num_levels, float(r.depth_basis)) for r in pow2_basis_rows[1:]]
    coefficient, residual = fit_scaling(points, ScalingModel.LOG_SQUARED)
    _report(
        "7a depth trend",
        residual < 0.35,
        f"basis depth ~ {coefficient:.2f}*log2(N)^2 over N=2^k+1, k=2..10, "
        f"max relative residual {residual:.4f}",
    )


def test_criterion_7b_size_trend(pow2_basis_rows) -> None:
    points = [(r.num_levels, float(r.size_basis)) for r in pow2_basis_rows[1:]]
    coefficient, residual = fit_scaling(points, ScalingModel.LINEAR)
    late_points = points[3:]
    _, late_residual = fit_scaling(late_points, ScalingModel.LINEAR)
    _report(
        "7b size trend",
        residual < 0.35,
        f"basis size ~ {coefficient:.2f}*N over k=2..10 has max relative residual "
        f"{residual:.4f} (>0.35; per-level cost still climbing, "
        f"k=5..10 alone fits at {late_residual:.4f})",
    )


def test_criterion_7c_ancilla_accounting(pow2_basis_rows) -> None:
    worst = ""
    if any(r.ancilla != 0 for r in pow2_basis_rows):
        worst = "expand-pow2 allocated ancilla at a self-similar size"
    recursion_rows = run_sweep(
        POW2_SIZES, subjects=("recursion",), granularity=Granularity.LOGICAL
    )
    if any(r.ancilla != 0 for r in recursion_rows):
        worst = "recursion method allocated ancilla"
    for num_levels in range(2, 41):
        _, plan = build_edick_to_binary(num_levels, EvenMethod.EXPAND_TO_POW2)
        if plan.ancilla > num_levels - 1:
            worst = f"expand-pow2 ancilla {plan.ancilla} exceeds N-1 at N={num_levels}"
    _report(
        "7c ancilla accounting",
        worst == "",
        worst or "recursion ancilla 0, expand-pow2 ancilla <= N-1 across the sweep",
    )


def test_criterion_8_determinism(tmp_path, capsys) -> None:
    verify_argv = [
        "verify", "--direction", "onehot-to-binary", "--n", "6",
        "--method", "expand-pow2", "--trials", "20", "--seed", "7",
    ]
    assert main(verify_argv) == 0
    first_verify = capsys.readouterr().out
    assert main(verify_argv) == 0
    second_verify = capsys.readouterr().out

    sweep_argv = ["sweep", "--n-min", "3", "--n-max", "12", "--methods",
                  "recursion,expand-n-plus-1,expand-pow2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(sweep_argv + ["--out", str(a)]) == 0
    assert main(sweep_argv + ["--out", str(b)]) == 0

    ok = first_verify == second_verify and a.read_bytes() == b.read_bytes()
    _report("8 determinism", ok, "seeded verify and sweep reruns byte-identical")
