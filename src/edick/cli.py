"""Command line front end: build, verify, sweep, prepare-binomial.

Exit codes: 0 success, 1 a verification check failed, 2 usage or
parameter error, or an --out path that cannot be written (a missing
directory or a directory is refused before any work). All randomness
flows through --seed, and emitted text uses repr floats, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import SWEEP_SUBJECTS, rows_to_csv, run_sweep
from .circuit import GateKind, Granularity
from .converters import _DEFAULT_METHOD, ConverterPlan, Direction, EvenMethod, _converter, build_converter
from .decompose import decompose_to_basis
from .dicke import BinomialSpec, build_binomial_pipeline
from .encodings import EncodingKind, random_vector
from .qasm import _NAMES, emit_text
from .statevector import _check_width, run_rows

_FIDELITY_TOL = 1e-9

_DIRECTION_CHOICES = [d.value for d in Direction]
_METHOD_CHOICES = [m.value for m in EvenMethod]
# The --method option of build, verify and prepare-binomial.
_METHOD_OPTION = {
    "choices": _METHOD_CHOICES,
    "default": _DEFAULT_METHOD.value,
    "help": "strategy for even level counts",
}
_GRANULARITIES = {"logical": Granularity.LOGICAL, "basis": Granularity.TWO_QUBIT_BASIS}

_NEEDS_LOWERING = {kind for kind in GateKind if kind not in _NAMES}  # no QASM line


def _cmd_build(args: argparse.Namespace) -> int:
    out = _out_path(args.out)
    circuit, _ = build_converter(Direction(args.direction), args.n, EvenMethod(args.method))
    if any(g.kind in _NEEDS_LOWERING for g in circuit.gates):
        circuit = decompose_to_basis(circuit)
    _write(emit_text(circuit), out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    for flag, value in (("--trials", args.trials), ("--seed", args.seed)):
        if value < 0:
            raise ValueError(f"{flag} must be non-negative")
    direction, method = Direction(args.direction), EvenMethod(args.method)
    plan = ConverterPlan(args.n, method, direction)
    _check_width(plan.total_qubits)
    circuit = _converter(plan)
    inputs = [plan.input_index(level) for level in range(args.n)]
    outputs = [plan.output_index(level) for level in range(args.n)]
    rng = np.random.default_rng(args.seed)
    # Every basis level, then the seeded trials, as columns of level amplitudes.
    vectors = list(np.eye(args.n))
    vectors += [random_vector(args.n, rng).alphas for _ in range(args.trials)]
    columns = np.array(vectors, dtype=np.complex128).T
    block = run_rows(inputs, columns, circuit, outputs)
    # A level reads its own output row; a trial's overlap is a fixed-order sum over the N output rows.
    values = [abs(block[k, k]) for k in range(args.n)]
    values += np.abs(np.sum(np.conj(columns[:, args.n :]) * block[:, args.n :], axis=0)).tolist()
    worst, worst_label = 2.0, ""
    for k, value in enumerate(values):
        if value < worst or (math.isnan(value) and not math.isnan(worst)):
            worst, worst_label = float(value), f"level {k}" if k < args.n else f"trial {k - args.n}"

    print(
        f"verify direction={args.direction} n={args.n} method={args.method} "
        f"trials={args.trials} seed={args.seed}"
    )
    print(f"worst fidelity {worst!r} at {worst_label}")
    ok = worst >= 1.0 - _FIDELITY_TOL  # False for NaN
    print(f"verify: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    out = _out_path(args.out)
    subjects = [s.strip() for s in args.methods.split(",") if s.strip()]
    if not 2 <= args.n_min <= args.n_max:
        raise ValueError("need 2 <= n-min <= n-max")
    rows = run_sweep(
        range(args.n_min, args.n_max + 1),
        subjects,
        _GRANULARITIES[args.granularity],
        measure_time=args.timings,
    )
    _write(rows_to_csv(rows), out)
    return 0


def _cmd_prepare_binomial(args: argparse.Namespace) -> int:
    out = _out_path(args.out)
    target = EncodingKind(args.target)
    spec = BinomialSpec.from_probability(args.n, args.p, target, EvenMethod(args.method))
    _check_width(spec.plan.total_qubits)
    circuit, plan = build_binomial_pipeline(spec)
    amplitudes = run_rows([0], [[1.0]], circuit, [plan.output_index(k) for k in range(args.n + 1)])[:, 0]

    lines = ["level,probability,pmf,abs_error"]
    for k in range(args.n + 1):
        probability = float(abs(amplitudes[k]) ** 2)
        pmf = math.comb(args.n, k) * args.p**k * (1.0 - args.p) ** (args.n - k)
        lines.append(f"{k},{probability!r},{pmf!r},{abs(probability - pmf)!r}")
    _write("\n".join(lines) + "\n", out)
    return 0


def _out_path(out: str | None) -> Path | None:
    """The --out file, or None for stdout; refused before any work where no file can be."""
    if out is None or out == "-":
        return None
    path = Path(out)
    if path.is_dir():
        raise ValueError(f"--out {out} is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"--out {out}: no directory {path.parent}")
    return path


def _write(text: str, path: Path | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--direction", required=True, choices=_DIRECTION_CHOICES)
    sub.add_argument("--n", required=True, type=int, help="number of levels")
    sub.add_argument("--method", **_METHOD_OPTION)


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edick",
        description="Build and check amplitude-encoding conversion circuits.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="emit a converter as OPENQASM 2.0")
    _add_common(build)
    build.add_argument("--out", help="output path (default: stdout)")
    build.set_defaults(handler=_cmd_build)

    verify = commands.add_parser("verify", help="simulate a converter against its contract")
    _add_common(verify)
    verify.add_argument("--trials", type=int, default=20, help="random vectors to test")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(handler=_cmd_verify)

    sweep = commands.add_parser("sweep", help="cost table over a range of level counts")
    sweep.add_argument("--n-min", required=True, type=int)
    sweep.add_argument("--n-max", required=True, type=int)
    sweep.add_argument(
        "--methods",
        default=",".join(_METHOD_CHOICES),
        help=f"comma-separated subset of {','.join(SWEEP_SUBJECTS)}",
    )
    sweep.add_argument("--granularity", choices=list(_GRANULARITIES), default="basis")
    sweep.add_argument(
        "--timings",
        action="store_true",
        help="record wall-clock build times (off by default, keeping output reproducible)",
    )
    sweep.add_argument("--out", help="output path (default: stdout)")
    sweep.set_defaults(handler=_cmd_sweep)

    binomial = commands.add_parser(
        "prepare-binomial", help="distribution-loading circuit and its level probabilities"
    )
    binomial.add_argument("--n", required=True, type=int, help="number of trials")
    binomial.add_argument("--p", required=True, type=float, help="success probability")
    binomial.add_argument(
        "--target",
        choices=[k.value for k in EncodingKind],
        default=EncodingKind.EDICK.value,
    )
    binomial.add_argument("--method", **_METHOD_OPTION)
    binomial.add_argument("--out", help="output path (default: stdout)")
    binomial.set_defaults(handler=_cmd_prepare_binomial)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
