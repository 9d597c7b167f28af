"""Command line behavior: outputs, exit codes, determinism."""

from __future__ import annotations

import argparse
import hashlib
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import edick.cli
from edick import (
    ConverterPlan,
    Direction,
    EncodingKind,
    EvenMethod,
    build_converter,
    decompose_to_basis,
    emit_text,
    parse_text,
    run_sweep,
)
from edick.cli import main


def test_build_writes_parseable_qasm(tmp_path) -> None:
    out = tmp_path / "c.qasm"
    code = main(
        ["build", "--direction", "onehot-to-binary", "--n", "7",
         "--method", "recursion", "--out", str(out)]
    )
    assert code == 0
    circuit = parse_text(out.read_text())
    assert circuit.num_qubits >= 7
    assert len(circuit.gates) > 0


def test_build_defaults_to_stdout(capsys) -> None:
    assert main(["build", "--direction", "edick-to-onehot", "--n", "4"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("OPENQASM 2.0;\n")
    assert parse_text(text).num_qubits == 4


@pytest.mark.parametrize("direction", ["onehot-to-binary", "edick-to-binary", "binary-to-onehot"])
def test_build_lowers_only_a_circuit_with_gates_qasm_cannot_name(direction: str, capsys) -> None:
    # The recursion method's MCX has no QASM line, so the whole circuit goes to the basis.
    circuit, _ = build_converter(Direction(direction), 6, EvenMethod.RECURSION)
    assert main(["build", "--direction", direction, "--n", "6", "--method", "recursion"]) == 0
    text = capsys.readouterr().out
    assert text == emit_text(decompose_to_basis(circuit))
    assert not any(line.startswith("ccx ") for line in text.splitlines())
    # expand-pow2 builds Toffolis at most, and they are emitted as they are.
    circuit, _ = build_converter(Direction(direction), 6, EvenMethod.EXPAND_TO_POW2)
    assert main(["build", "--direction", direction, "--n", "6", "--method", "expand-pow2"]) == 0
    text = capsys.readouterr().out
    assert text == emit_text(circuit)
    assert any(line.startswith("ccx ") for line in text.splitlines())


@pytest.mark.parametrize(
    "direction",
    ["edick-to-onehot", "edick-to-binary", "onehot-to-binary", "binary-to-onehot", "cnot-stair"],
)
def test_verify_passes_for_every_direction(direction: str, capsys) -> None:
    code = main(
        ["verify", "--direction", direction, "--n", "5", "--trials", "3", "--seed", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "verify: PASS" in out
    assert "worst fidelity" in out


def test_verify_is_deterministic(capsys) -> None:
    argv = ["verify", "--direction", "edick-to-binary", "--n", "7",
            "--method", "expand-pow2", "--trials", "20", "--seed", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


# Recorded when trial overlaps became a fixed-order sum over the N output rows;
# the fidelities are printed with repr, so any change in the last bit of an
# amplitude, or in the order of that sum, shows here.
_GOLDEN_VERIFY = {
    ("binary-to-onehot", 15, "expand-pow2"): ("0.9999999999999981", "trial 3"),
    ("onehot-to-binary", 16, "recursion"): ("0.9999999999999959", "trial 13"),
    ("edick-to-binary", 14, "expand-n-plus-1"): ("0.9999999999999982", "trial 3"),
    ("onehot-to-binary", 13, "expand-pow2"): ("0.9999999999999958", "trial 15"),
    # These two spread over much of the register partway through the circuit.
    ("edick-to-binary", 16, "recursion"): ("0.9999999999999959", "trial 13"),
    ("edick-to-binary", 16, "expand-n-plus-1"): ("0.9999999999999996", "trial 0"),
    # Permutation gates only, on 17 qubits.
    ("edick-to-onehot", 17, "expand-pow2"): ("0.9999999999999998", "trial 2"),
}

# Basis levels only (--trials 0), recorded like the cases above.
_GOLDEN_VERIFY_LEVELS = {
    ("onehot-to-binary", 12, "recursion"): "0.9999999999999986",
    ("edick-to-binary", 16, "recursion"): "0.9999999999999963",
}


@pytest.mark.parametrize("case", list(_GOLDEN_VERIFY), ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def test_verify_output_is_byte_identical_to_the_recorded_output(case, capsys) -> None:
    direction, n, method = case
    fid, where = _GOLDEN_VERIFY[case]
    argv = ["verify", "--direction", direction, "--n", str(n), "--method", method,
            "--trials", "20", "--seed", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        f"verify direction={direction} n={n} method={method} trials=20 seed=1\n"
        f"worst fidelity {fid} at {where}\n"
        "verify: PASS\n"
    )


@pytest.mark.parametrize("case", list(_GOLDEN_VERIFY_LEVELS), ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def test_verify_without_trials_is_byte_identical_to_the_recorded_output(case, capsys) -> None:
    direction, n, method = case
    argv = ["verify", "--direction", direction, "--n", str(n), "--method", method,
            "--trials", "0", "--seed", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        f"verify direction={direction} n={n} method={method} trials=0 seed=1\n"
        f"worst fidelity {_GOLDEN_VERIFY_LEVELS[case]} at level 0\n"
        "verify: PASS\n"
    )


# sha256, in order, over f"{exit code}\n{stdout}" of `verify` with 3 trials at
# seed 1, over every direction, then every even-count method, then N = 2..11.
# Recorded when trial overlaps became a fixed-order sum over the N output rows.
_VERIFY_DIGEST = "4fc0f336715906ab98502068003d4a9efcce0fd9252f4d60383c64f646146bde"


def test_verify_output_over_every_small_case_matches_its_recorded_digest(capsys) -> None:
    digest = hashlib.sha256()
    for direction in Direction:
        for method in EvenMethod:
            for n in range(2, 12):
                code = main(["verify", "--direction", direction.value, "--n", str(n),
                             "--method", method.value, "--trials", "3", "--seed", "1"])
                digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == _VERIFY_DIGEST


@pytest.mark.parametrize("case", list(_GOLDEN_VERIFY), ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def test_verify_fidelities_are_within_1e_15_of_dense_states_and_vdot(case, capsys, monkeypatch) -> None:
    """The re-recorded outputs are a rounding change: every fidelity is within 1e-15 of the dense one."""
    direction, n, method = case
    calls = []
    real = edick.cli.run_rows

    def recording(rows, amplitudes, circuit, read):
        calls.append((rows, amplitudes, circuit, read, real(rows, amplitudes, circuit, read)))
        return calls[-1][-1]

    monkeypatch.setattr(edick.cli, "run_rows", recording)
    argv = ["verify", "--direction", direction, "--n", str(n), "--method", method,
            "--trials", "20", "--seed", "1"]
    assert main(argv) == 0
    [(rows, columns, circuit, read, block)] = calls
    new = [abs(block[k, k]) for k in range(n)]
    new += list(np.abs(np.sum(np.conj(columns[:, n:]) * block[:, n:], axis=0)))
    old, expected = [], np.zeros(1 << circuit.num_qubits, dtype=np.complex128)
    for k, column in enumerate(columns.T):
        source = np.zeros_like(expected)
        source[rows] = column
        state = edick.run(edick.Statevector(circuit.num_qubits, source), circuit)
        if k < n:
            old.append(abs(state.amplitudes[read[k]]))
        else:
            expected[read] = columns[:, k]
            old.append(abs(np.vdot(state.amplitudes, expected)))
    assert len(new) == len(old) == n + 20
    assert [v.hex() for v in new[:n]] == [v.hex() for v in old[:n]]  # levels keep their bits
    assert max(abs(a - b) for a, b in zip(new, old)) <= 1e-15
    k = min(range(len(new)), key=new.__getitem__)
    where = f"level {k}" if k < n else f"trial {k - n}"
    assert capsys.readouterr().out.splitlines()[1] == f"worst fidelity {float(new[k])!r} at {where}"


def _nan_in_column(bad: int):
    """A `run_rows` whose block has NaN in column `bad`: a state no simulation would pass."""
    real = edick.cli.run_rows

    def with_nan(rows, amplitudes, circuit, read):
        block = real(rows, amplitudes, circuit, read)
        block[:, bad] = np.nan
        return block

    return with_nan


@pytest.mark.parametrize("bad", [0, 1, 4], ids=["level-0", "level-1", "trial-1"])
def test_verify_fails_on_a_nan_fidelity(bad: int, monkeypatch, capsys) -> None:
    monkeypatch.setattr(edick.cli, "run_rows", _nan_in_column(bad))
    argv = ["verify", "--direction", "edick-to-onehot", "--n", "3", "--trials", "2", "--seed", "1"]
    assert main(argv) == 1
    where = f"level {bad}" if bad < 3 else f"trial {bad - 3}"
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"worst fidelity nan at {where}", "verify: FAIL"
    ]


def test_verify_fails_on_a_nan_fidelity_read_from_the_dense_fallback(monkeypatch, capsys) -> None:
    made = []
    state = edick.statevector._state

    def recording(num_qubits, rows, values):
        made.append(num_qubits)
        return state(num_qubits, rows, values)

    monkeypatch.setattr(edick.statevector, "_sparse_pays", lambda rows, states, size: False)
    monkeypatch.setattr(edick.statevector, "_state", recording)
    monkeypatch.setattr(edick.cli, "run_rows", _nan_in_column(8))
    # 7 recursion levels have arithmetic gates, so every state leaves the held rows at the first.
    argv = ["verify", "--direction", "edick-to-binary", "--n", "7", "--method", "recursion",
            "--trials", "2", "--seed", "1"]
    assert main(argv) == 1
    assert made == [6] * 9
    assert capsys.readouterr().out.splitlines()[1:] == ["worst fidelity nan at trial 1", "verify: FAIL"]


def test_verify_makes_no_dense_state_on_the_sparse_path(monkeypatch, capsys) -> None:
    # Permutation gates only: every chunk stays on its held rows, so no 2**17 state is made.
    made = []
    state = edick.statevector._state

    def recording(num_qubits, rows, values):
        made.append(num_qubits)
        return state(num_qubits, rows, values)

    monkeypatch.setattr(edick.statevector, "_state", recording)
    assert main(["verify", "--direction", "edick-to-onehot", "--n", "17", "--trials", "20", "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[2] == "verify: PASS"
    assert made == []


def test_sweep_writes_csv(tmp_path) -> None:
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--n-min", "3", "--n-max", "8",
         "--methods", "recursion,expand-pow2", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == (
        "N,method,depth_logical,depth_basis,size_logical,size_basis,ancilla,build_time_ms"
    )
    assert len(lines) == 1 + 6 * 2
    assert all(line.endswith(",0.0") for line in lines[1:])


def test_sweep_is_deterministic(tmp_path) -> None:
    argv = ["sweep", "--n-min", "3", "--n-max", "10", "--methods", "recursion"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_timings_flag_records_wall_clock(tmp_path) -> None:
    out = tmp_path / "t.csv"
    argv = ["sweep", "--n-min", "5", "--n-max", "5", "--methods", "recursion",
            "--timings", "--out", str(out)]
    assert main(argv) == 0
    last_cell = out.read_text().strip().split("\n")[1].split(",")[-1]
    assert float(last_cell) > 0.0


def test_sweep_logical_granularity_zeroes_basis_columns(tmp_path) -> None:
    out = tmp_path / "l.csv"
    argv = ["sweep", "--n-min", "4", "--n-max", "4", "--methods", "recursion",
            "--granularity", "logical", "--out", str(out)]
    assert main(argv) == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    assert (row[3], row[5]) == ("0", "0")


def test_sweep_granularity_basis_is_the_default_and_unknown_names_exit_2(tmp_path) -> None:
    argv = ["sweep", "--n-min", "4", "--n-max", "6", "--methods", "recursion,onehot"]
    assert main(argv + ["--out", str(tmp_path / "default.csv")]) == 0
    assert main(argv + ["--granularity", "basis", "--out", str(tmp_path / "basis.csv")]) == 0
    assert (tmp_path / "basis.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()
    assert main(argv + ["--granularity", "two-qubit-basis", "--out", str(tmp_path / "bad.csv")]) == 2
    assert not (tmp_path / "bad.csv").exists()


def test_prepare_binomial_matches_the_pmf(tmp_path) -> None:
    out = tmp_path / "probs.csv"
    code = main(
        ["prepare-binomial", "--n", "6", "--p", "0.3", "--target", "binary",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "level,probability,pmf,abs_error"
    assert len(lines) == 8
    for k, line in enumerate(lines[1:]):
        level, probability, pmf, abs_error = line.split(",")
        assert int(level) == k
        expected = math.comb(6, k) * 0.3**k * 0.7 ** (6 - k)
        assert float(pmf) == pytest.approx(expected, abs=1e-15)
        assert float(abs_error) < 1e-9
        assert abs(float(probability) - expected) < 1e-9


# sha256 of `prepare-binomial --p 0.3` stdout, recorded before the spec carried
# its pipeline's plan. The staircase and one-hot targets ignore the method; the
# binary target's probabilities differ in the last bits from method to method.
_BINOMIAL_DIGESTS = {
    2: "7abbd6bac975acbb32290471fc64c55cd2e8021bd6e6cc666fdd1e141f33212d",
    5: "dc37f0564f4a2324522ffb978b121d9eb8548939cf068d49570f790baf749b15",
    12: "f8ba6ff7a004836fa0cf0832063ad078554d4665f1206e47d9826c29ade26d54",
}
_BINARY_DIGESTS = {
    ("recursion", 12): "9ab43635d15c18b945a5955a8c6c472a4a51a52c7b1168ef1ad69ae3412274a8",
    ("expand-n-plus-1", 5): "a774b155553ba52e446a826fce815a69d8f3c17ffcbe0606ab022e13193e7ab5",
    ("expand-n-plus-1", 12): "21388c836dcd67aa6c9b1ed854820682a65e01d08cddf2cbdce8d771840424fb",
    ("expand-pow2", 12): "21388c836dcd67aa6c9b1ed854820682a65e01d08cddf2cbdce8d771840424fb",
}


@pytest.mark.parametrize("n", list(_BINOMIAL_DIGESTS))
@pytest.mark.parametrize("method", [m.value for m in EvenMethod])
@pytest.mark.parametrize("target", [k.value for k in EncodingKind])
def test_prepare_binomial_output_matches_its_recorded_digest(
    target: str, method: str, n: int, capsys
) -> None:
    argv = ["prepare-binomial", "--n", str(n), "--p", "0.3", "--target", target, "--method", method]
    assert main(argv) == 0
    expected = _BINOMIAL_DIGESTS[n]
    if target == "binary":
        expected = _BINARY_DIGESTS.get((method, n), expected)
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected


def test_prepare_binomial_defaults_to_staircase_target(capsys) -> None:
    assert main(["prepare-binomial", "--n", "3", "--p", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 5


def test_usage_errors_exit_two(capsys, tmp_path) -> None:
    assert main(["build", "--direction", "sideways", "--n", "4"]) == 2
    assert main(["build", "--direction", "edick-to-onehot", "--n", "1"]) == 2
    assert main(["sweep", "--n-min", "5", "--n-max", "3"]) == 2
    assert main(["sweep", "--n-min", "3", "--n-max", "4", "--methods", "qft"]) == 2
    assert main(["prepare-binomial", "--n", "4", "--p", "1.5"]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


# The commands that take --out, and the function in edick.cli that does each one's work.
_WRITERS = [
    (["build", "--direction", "edick-to-onehot", "--n", "4"], "build_converter"),
    (["sweep", "--n-min", "3", "--n-max", "4", "--methods", "recursion"], "run_sweep"),
    (["prepare-binomial", "--n", "3", "--p", "0.5"], "build_binomial_pipeline"),
]


@pytest.mark.parametrize("argv", [argv for argv, _ in _WRITERS], ids=lambda argv: argv[0])
def test_an_out_path_that_cannot_be_written_exits_two(argv: list[str], capsys, tmp_path) -> None:
    out = tmp_path / "missing" / "out.txt"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert not out.parent.exists()


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("argv, worker", _WRITERS, ids=[argv[0] for argv, _ in _WRITERS])
def test_an_out_path_that_cannot_be_written_is_refused_before_any_work(
    argv: list[str], worker: str, where: str, capsys, monkeypatch, tmp_path
) -> None:
    def no_work(*args, **kwargs):
        raise AssertionError(f"{worker} ran before --out was checked")

    monkeypatch.setattr(edick.cli, worker, no_work)
    out = tmp_path / "missing" / "out.txt" if where == "missing-directory" else tmp_path
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--direction", "edick-to-onehot", "--n", "1"],
        ["sweep", "--n-min", "3", "--n-max", "4", "--methods", "qft"],
        ["prepare-binomial", "--n", "4", "--p", "1.5"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_command_that_fails_creates_and_truncates_no_file(argv: list[str], capsys, tmp_path) -> None:
    kept, fresh = tmp_path / "kept.txt", tmp_path / "fresh.txt"
    kept.write_text("earlier output\n")
    assert main([*argv, "--out", str(kept)]) == 2
    assert main([*argv, "--out", str(fresh)]) == 2
    assert kept.read_text() == "earlier output\n" and not fresh.exists()
    assert capsys.readouterr().out == ""


def test_prepare_binomial_refuses_one_trial(capsys) -> None:
    assert main(["prepare-binomial", "--n", "1", "--p", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "need at least two trials" in captured.err


def test_calls_share_the_parser_but_no_parsed_state(capsys, tmp_path) -> None:
    verify = ["verify", "--direction", "edick-to-binary", "--n", "5"]
    assert main([*verify, "--method", "recursion", "--trials", "1", "--seed", "9"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert main(verify) == 0
    second = capsys.readouterr().out.splitlines()[0]
    assert first.endswith("method=recursion trials=1 seed=9")
    assert second.endswith("method=expand-pow2 trials=20 seed=0")
    timed, plain = tmp_path / "timed.csv", tmp_path / "plain.csv"
    sweep = ["sweep", "--n-min", "4", "--n-max", "4", "--methods", "recursion"]
    assert main([*sweep, "--timings", "--out", str(timed)]) == 0
    assert main([*sweep, "--out", str(plain)]) == 0
    assert not timed.read_text().splitlines()[1].endswith(",0.0")
    assert plain.read_text().splitlines()[1].endswith(",0.0")
    assert edick.cli._build_parser() is edick.cli._build_parser()


def test_method_option_and_method_list_have_one_source() -> None:
    parser = edick.cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    options = [
        next(a for a in commands[name]._actions if "--method" in a.option_strings)
        for name in ("build", "verify", "prepare-binomial")
    ]
    methods = tuple(m.value for m in EvenMethod)
    for option in options:
        assert (tuple(option.choices), option.default, option.help) == (
            methods, "expand-pow2", "strategy for even level counts"
        )
    assert inspect.signature(run_sweep).parameters["subjects"].default == methods
    args = parser.parse_args(["sweep", "--n-min", "2", "--n-max", "3"])
    assert tuple(args.methods.split(",")) == methods
    # One default method: the builders, BinomialSpec and --method read it.
    default = edick.converters._DEFAULT_METHOD
    builders = (build_converter, edick.build_edick_to_binary, edick.build_onehot_to_binary,
                edick.build_binary_to_onehot, edick.BinomialSpec.from_probability)
    for builder in builders:
        assert inspect.signature(builder).parameters["method"].default is default, builder
    assert all(option.default == default.value for option in options)


def test_help_and_usage_errors_repeat_byte_for_byte(capsys) -> None:
    outputs = []
    for _ in range(2):
        for argv in (["--help"], ["verify", "--help"], ["build", "--n", "4"], ["sweep", "--n-min", "x"]):
            code = main(argv)
            captured = capsys.readouterr()
            outputs.append((code, captured.out, captured.err))
    assert outputs[:4] == outputs[4:]
    assert [code for code, _, _ in outputs[:4]] == [0, 0, 2, 2]


def test_verify_rejects_negative_trials(capsys) -> None:
    argv = ["verify", "--direction", "edick-to-binary", "--n", "5", "--trials", "-3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "--trials" in captured.err


def test_verify_rejects_a_negative_seed_before_any_work(capsys, monkeypatch) -> None:
    def planned(*args):
        raise AssertionError("a plan was made")

    monkeypatch.setattr(edick.cli, "ConverterPlan", planned)
    assert main(["verify", "--direction", "edick-to-binary", "--n", "5", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --seed must be non-negative\n"


def test_verify_refuses_more_trials_than_a_state_holds_before_any_draw(capsys, monkeypatch) -> None:
    # 15 levels by 15 + T columns may hold 2**24 amplitudes: T = 1,118,466 at most.
    def drawn(*args):
        raise AssertionError("trials were drawn")

    monkeypatch.setattr(edick.cli, "random_vectors", drawn)
    for trials in ("99999999999999999999", "1118467"):
        assert main(["verify", "--direction", "cnot-stair", "--n", "15", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: --trials {trials} is too many"), trials
    monkeypatch.undo()
    # At the cap the block is drawn: 4 levels by 4 + 60 columns fill a 8-qubit state.
    monkeypatch.setattr(edick.cli, "_MAX_QUBITS", 8)
    for trials, code in (("60", 0), ("61", 2)):
        assert main(["verify", "--direction", "edick-to-binary", "--n", "4", "--trials", trials]) == code
        assert ("verify: PASS" in capsys.readouterr().out) == (code == 0), trials


def test_verify_rejects_registers_above_the_simulation_cap(capsys) -> None:
    # 45 levels need a 49-qubit register, 8 PiB of amplitudes: far past any allocation.
    assert main(["verify", "--direction", "edick-to-binary", "--n", "45"]) == 2
    assert "register width" in capsys.readouterr().err


@pytest.mark.parametrize("direction", [d.value for d in Direction])
def test_verify_derives_one_plan(direction: str, capsys, monkeypatch: pytest.MonkeyPatch) -> None:
    # The converter is built from the plan whose width was checked, not a second one.
    derived = []
    post_init = ConverterPlan.__post_init__

    def counting(self: ConverterPlan) -> None:
        derived.append(self.direction)
        post_init(self)

    monkeypatch.setattr(ConverterPlan, "__post_init__", counting)
    assert main(["verify", "--direction", direction, "--n", "6", "--trials", "1"]) == 0
    assert derived == [Direction(direction)]
    assert "verify: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("target", [k.value for k in EncodingKind])
def test_prepare_binomial_derives_one_plan(target: str, capsys, monkeypatch: pytest.MonkeyPatch) -> None:
    # The pipeline is built from the plan whose width was checked, not a second one.
    derived = []
    post_init = ConverterPlan.__post_init__

    def counting(self: ConverterPlan) -> None:
        derived.append(self.direction)
        post_init(self)

    monkeypatch.setattr(ConverterPlan, "__post_init__", counting)
    assert main(["prepare-binomial", "--n", "6", "--p", "0.3", "--target", target]) == 0
    assert len(derived) == 1
    assert len(capsys.readouterr().out.splitlines()) == 8


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--direction", "cnot-stair", "--n", "4000"],
        ["verify", "--direction", "edick-to-binary", "--n", "26", "--method", "recursion"],
        ["prepare-binomial", "--n", "1500", "--p", "0.3"],
        ["prepare-binomial", "--n", "25", "--p", "0.3", "--target", "binary"],
        # 24 expand-pow2 levels need 9 ancillas: 32 qubits, or 33 with the flag.
        ["verify", "--direction", "edick-to-binary", "--n", "24", "--method", "expand-pow2"],
        ["verify", "--direction", "binary-to-onehot", "--n", "24", "--method", "expand-pow2"],
        # 24 trials fit the staircase, but the flag or the binary stage's ancilla make 25 qubits.
        ["prepare-binomial", "--n", "24", "--p", "0.3", "--target", "binary"],
        ["prepare-binomial", "--n", "24", "--p", "0.3", "--target", "onehot"],
    ],
)
def test_too_wide_registers_are_refused_before_anything_is_built(
    argv: list[str], capsys, monkeypatch: pytest.MonkeyPatch
) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("built a circuit for a register that cannot be simulated")

    monkeypatch.setattr(edick.cli, "build_converter", refuse)
    monkeypatch.setattr(edick.cli, "_converter", refuse)
    monkeypatch.setattr(edick.cli, "build_binomial_pipeline", refuse)
    assert main(argv) == 2
    assert "register width must be in 1..24" in capsys.readouterr().err


def test_sweep_naming_no_subject_exits_two_and_writes_nothing(capsys) -> None:
    assert main(["sweep", "--n-min", "3", "--n-max", "4", "--methods", ","]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "names no sweep subject" in err


def test_sweep_names_the_known_subjects_for_an_unknown_one(capsys) -> None:
    assert main(["sweep", "--n-min", "3", "--n-max", "4", "--methods", "onehot,qft"]) == 2
    err = capsys.readouterr().err
    assert "'qft'" in err and "choose from" in err and "cnot-stair" in err


def _python_m_edick(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(edick.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "edick", *argv], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_python_m_edick_runs_the_command_line() -> None:
    direction, n, method = case = ("binary-to-onehot", 15, "expand-pow2")
    fid, where = _GOLDEN_VERIFY[case]
    done = _python_m_edick("verify", "--direction", direction, "--n", str(n), "--method", method,
                           "--trials", "20", "--seed", "1")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        f"verify direction={direction} n={n} method={method} trials=20 seed=1\n"
        f"worst fidelity {fid} at {where}\n"
        "verify: PASS\n"
    )
    bad = _python_m_edick("verify", "--direction", direction, "--n", "1", "--method", method)
    assert bad.returncode == 2
    assert "at least two levels" in bad.stderr
