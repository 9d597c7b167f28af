"""Seeded workloads of the edick benchmark: op lists, op execution, checks.

A workload turns a seed into a fixed list of ops, one "pass". Running an op
calls the public API of edick with the generated arguments only; checking it
compares the output with a reference that edick does not produce (closed
forms written here, the exact pmf from math.comb, a gate-for-gate QASM round
trip, or the known verdict PASS of an exact converter). Running is timed,
checking is not.

The draws are stratified so that every seed gives the same mix of work: each
op belongs to a fixed (direction, method) or (target, method) cell and to a
fixed stratum of the log-uniform size range, and the seed sets where in its
stratum the size falls, the probabilities, the verify seeds and the order.
With independent draws, a seed that lands one more N=500 CNOT staircase than
another does twice the work, and no metric would hold still.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_edick():
    """Import edick from the sources of this checkout, never from elsewhere."""
    package = SRC / "edick"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no edick sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import edick
    import edick.cli

    if Path(edick.__file__).resolve().parent != package.resolve():
        raise ImportError(f"edick was imported from {edick.__file__}, not from {package}")
    return edick


edick = _import_edick()

WORKLOADS = ("synth", "verify", "binomial")
DIRECTIONS = ("edick-to-onehot", "cnot-stair", "edick-to-binary", "onehot-to-binary", "binary-to-onehot")
METHODS = ("recursion", "expand-n-plus-1", "expand-pow2")
TARGETS = ("edick", "onehot", "binary")

SYNTH_N = (16, 513)
SYNTH_STRATA = 8  # ops per (direction, method) cell in one pass
# The recursion method's cost swings fivefold with the low bits of N (they
# set how many halvings are even and need an MCX); fixing N mod 16 per
# stratum keeps a seed from drawing more of the expensive residues.
SYNTH_MODULUS = 16
VERIFY_WIDTHS = range(10, 18)
VERIFY_OPS = 64
VERIFY_TRIALS = 20
BINOMIAL_N = (4, 128)
BINOMIAL_P = (0.05, 0.95)
BINOMIAL_STRATA = 16  # ops per (target, method) cell in one pass
# The expansion methods' ancilla count swings with the low bits of n + 1;
# fixing n mod 8 per stratum keeps ancilla_total from following the seed.
BINOMIAL_MODULUS = 8
SIMULATE_MAX_QUBITS = 17

VERIFY_TOL = 1e-9
PMF_TOL = 1e-12
COUNT_KEYS = ("size_logical", "depth_logical", "size_basis", "depth_basis", "ancilla")


@dataclass(frozen=True)
class Op:
    workload: str
    direction: str = ""
    method: str = ""
    n: int = 0
    p: float = 0.0
    target: str = ""
    seed: int = 0


class CheckFailed(Exception):
    """An op ran but its output disagrees with the reference."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# op lists


def _cells(outer: tuple[str, ...]) -> list[tuple[str, str]]:
    return [(a, m) for a in outer for m in METHODS]


def _log_strata(rng: random.Random, lo: int, hi: int, count: int, modulus: int) -> list[int]:
    """One log-uniform draw in each of `count` equal log-width strata of [lo, hi].

    Draw j is moved to the nearest value that is 3*j modulo `modulus`, so the
    low bits of the sizes are spread over the strata in a fixed pattern.
    """
    sizes = []
    for j in range(count):
        x = lo * (hi / lo) ** ((j + rng.random()) / count)
        r = (3 * j) % modulus
        n = modulus * round((x - r) / modulus) + r
        while n < lo:
            n += modulus
        while n > hi:
            n -= modulus
        sizes.append(n)
    return sizes


def synth_ops(seed: int) -> list[Op]:
    rng = random.Random(f"synth/{seed}")
    cells = _cells(DIRECTIONS)
    sizes = _log_strata(rng, *SYNTH_N, len(cells) * SYNTH_STRATA, SYNTH_MODULUS)
    ops = [Op("synth", *cells[j % len(cells)], n=n) for j, n in enumerate(sizes)]
    rng.shuffle(ops)
    return ops


def register_width(direction: str, method: str, n: int) -> int:
    """Qubits of the converter that `edick verify` simulates, from the construction's rules."""
    if direction in ("edick-to-onehot", "cnot-stair"):
        return n
    ancilla = 0 if method == "recursion" else _expansion_ancilla(n, method)
    return (n - 1 if direction == "edick-to-binary" else n) + ancilla


def _expansion_ancilla(levels: int, method: str) -> int:
    # Peak ancilla of the staircase -> binary compression: an odd level count
    # splits into two equal halves of (levels-1)/2 qubits that reuse each
    # other's ancillas; an even one pads to the next odd size
    # (expand-n-plus-1) or to the next 2**k + 1 (expand-pow2) on fresh qubits.
    if levels <= 3:
        return 0
    if levels % 2:
        return _expansion_ancilla((levels - 1) // 2 + 1, method)
    target = levels + 1 if method == "expand-n-plus-1" else (1 << (levels - 2).bit_length()) + 1
    return target - levels + _expansion_ancilla(target, method)


def verify_ops(seed: int) -> list[Op]:
    # Slot j takes cell j mod 15 and width 10 + j mod 8; the seed picks N
    # among those giving that width. An expansion method that skips the
    # width takes the nearest width it reaches, the wider on a tie.
    rng = random.Random(f"verify/{seed}")
    cells = _cells(DIRECTIONS)
    widths = list(VERIFY_WIDTHS)
    ops = []
    for j in range(VERIFY_OPS):
        direction, method = cells[j % len(cells)]
        by_width: dict[int, list[int]] = {}
        for n in range(2, 2 * widths[-1]):
            by_width.setdefault(register_width(direction, method, n), []).append(n)
        want = widths[j % len(widths)]
        width = min((w for w in by_width if w in widths), key=lambda w: (abs(w - want), -w))
        n = rng.choice(by_width[width])
        ops.append(Op("verify", direction, method, n=n, seed=rng.randrange(1 << 31)))
    rng.shuffle(ops)
    return ops


def binomial_ops(seed: int) -> list[Op]:
    rng = random.Random(f"binomial/{seed}")
    cells = _cells(TARGETS)
    sizes = _log_strata(rng, *BINOMIAL_N, len(cells) * BINOMIAL_STRATA, BINOMIAL_MODULUS)
    ops = [
        Op("binomial", method=cells[j % len(cells)][1], target=cells[j % len(cells)][0], n=n,
           p=rng.uniform(*BINOMIAL_P))
        for j, n in enumerate(sizes)
    ]
    rng.shuffle(ops)
    return ops


GENERATORS = {"synth": synth_ops, "verify": verify_ops, "binomial": binomial_ops}


def generate(workload: str, seed: int) -> list[Op]:
    """The op list of one pass; a pure function of (workload, seed)."""
    return GENERATORS[workload](seed)


# ---------------------------------------------------------------------------
# running (timed) and checking (untimed)


@dataclass(frozen=True)
class Outcome:
    counts: dict[str, int]
    error: float | None  # deviation from the reference, where one is simulated


BASIS_KINDS = {edick.GateKind.X, edick.GateKind.H, edick.GateKind.RY, edick.GateKind.PHASE, edick.GateKind.CNOT}


def build_converter(direction: str, method: str, n: int):
    """The circuit the CLI builds for a direction, and its ancilla count."""
    if direction == "cnot-stair":
        return edick.build_cnot_stair(n), 0
    circuit, plan = edick.build_converter(edick.Direction(direction), n, edick.EvenMethod(method))
    return circuit, plan.ancilla


def _run_synth(op: Op):
    circuit, ancilla = build_converter(op.direction, op.method, op.n)
    logical = edick.cost(circuit)
    lowered = edick.decompose_to_basis(circuit)
    basis = edick.cost(lowered)
    parsed = edick.parse_text(edick.emit_text(lowered))
    return circuit, ancilla, logical, lowered, basis, parsed


def _verify_argv(op: Op) -> list[str]:
    return [
        "verify", "--direction", op.direction, "--n", str(op.n), "--method", op.method,
        "--trials", str(VERIFY_TRIALS), "--seed", str(op.seed),
    ]


def _run_verify(op: Op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = edick.cli.main(_verify_argv(op))
    return code, out.getvalue()


def _run_binomial(op: Op):
    target = edick.EncodingKind(op.target)
    spec = edick.BinomialSpec.from_probability(op.n, op.p, target, edick.EvenMethod(op.method))
    circuit, plan = edick.build_binomial_pipeline(spec)
    logical = edick.cost(circuit)
    basis = edick.cost(edick.decompose_to_basis(circuit))
    alphas = None
    if circuit.num_qubits <= SIMULATE_MAX_QUBITS:
        state = edick.run(edick.zero_state(circuit.num_qubits), circuit)
        alphas = edick.read_state(target, state, op.n + 1).alphas
    return circuit, plan.ancilla, logical, basis, alphas


RUNNERS = {"synth": _run_synth, "verify": _run_verify, "binomial": _run_binomial}


def execute(op: Op):
    """The timed part of an op: calls into edick and nothing else."""
    return RUNNERS[op.workload](op)


def onehot_size(n: int) -> int:
    """Gate count of the staircase -> one-hot unfolding: s(2N)=s(N)+2N-1, s(N+1)=s(N)+1."""
    if n == 2:
        return 1
    if n % 2:
        return onehot_size(n - 1) + 1
    return onehot_size(n // 2) + n - 1


def onehot_depth(n: int) -> int:
    """Greedy depth of the unfolding: 2b - 3 for b = bit_length(n), +1 if n's second bit is set."""
    if n == 2:
        return 1
    b = n.bit_length()
    return 2 * b - 3 + ((n >> (b - 2)) & 1)


def _counts(logical, basis, ancilla: int) -> dict[str, int]:
    return {
        "size_logical": logical.size, "depth_logical": logical.depth,
        "size_basis": basis.size, "depth_basis": basis.depth, "ancilla": ancilla,
    }


def _check_synth(op: Op, raw) -> Outcome:
    circuit, ancilla, logical, lowered, basis, parsed = raw
    n = op.n
    _expect(circuit.num_qubits == register_width(op.direction, op.method, n), "unexpected register width")
    _expect(logical.size == len(circuit.gates) and basis.size == len(lowered.gates), "cost miscounts gates")
    _expect(all(g.kind in BASIS_KINDS for g in lowered.gates), "lowering left non-basis gates")
    _expect(
        parsed.num_qubits == lowered.num_qubits and parsed.gates == lowered.gates,
        "QASM round trip changed the circuit",
    )
    if op.direction == "edick-to-onehot":
        _expect((logical.size, logical.depth) == (onehot_size(n), onehot_depth(n)), "unfolding cost off its closed form")
    if op.direction == "cnot-stair":
        _expect((logical.size, logical.depth) == (n * (n - 1) // 2, 2 * n - 3), "staircase cost off its closed form")
    return Outcome(_counts(logical, basis, ancilla), None)


def _check_verify(op: Op, raw) -> Outcome:
    code, text = raw
    lines = text.splitlines()
    header = (
        f"verify direction={op.direction} n={op.n} method={op.method} "
        f"trials={VERIFY_TRIALS} seed={op.seed}"
    )
    _expect(code == 0 and len(lines) == 3 and lines[0] == header, f"verify exited {code}: {text!r}")
    _expect(lines[2] == "verify: PASS", f"exact converter not verified: {lines[1]}")
    worst = float(lines[1].split()[2])
    error = 1.0 - worst
    _expect(error <= VERIFY_TOL, f"worst fidelity {worst!r}")
    return Outcome(converter_counts(op), error)


def converter_counts(op: Op) -> dict[str, int]:
    """Costs of the circuit a verify op checks; computed outside the timed run."""
    circuit, ancilla = build_converter(op.direction, op.method, op.n)
    return _counts(edick.cost(circuit), edick.cost(edick.decompose_to_basis(circuit)), ancilla)


def _dicke_pipeline_size(n: int) -> int:
    # n RY gates, then the inverse Dicke unitary: one SCS block of 3(n-1)
    # gates and blocks of 3(w-1) gates for w = n-1 .. 2.
    return n + 3 * (n - 1) + 3 * (n - 1) * (n - 2) // 2


def _check_binomial(op: Op, raw) -> Outcome:
    circuit, ancilla, logical, basis, alphas = raw
    n = op.n
    if op.target == "edick":
        width, size = n, _dicke_pipeline_size(n)
    elif op.target == "onehot":
        width, size = n + 1, _dicke_pipeline_size(n) + 1 + onehot_size(n + 1)
    else:
        width, size = register_width("edick-to-binary", op.method, n + 1), None
    _expect(circuit.num_qubits == width, "unexpected register width")
    _expect(size is None or logical.size == size, "pipeline size off its closed form")
    _expect(basis.size >= logical.size, "lowering lost gates")
    error = None
    if alphas is not None:
        error = max(
            abs(abs(a) ** 2 - math.comb(n, k) * op.p**k * (1.0 - op.p) ** (n - k))
            for k, a in enumerate(alphas)
        )
        _expect(error <= PMF_TOL, f"pmf off by {error!r}")
    return Outcome(_counts(logical, basis, ancilla), error)


CHECKS = {"synth": _check_synth, "verify": _check_verify, "binomial": _check_binomial}


def check(op: Op, raw) -> Outcome:
    """Compare what `execute` returned with the reference; raises CheckFailed."""
    return CHECKS[op.workload](op, raw)
