"""Golden digests of logical gate lists: builders stay gate-for-gate identical.

Each digest is the sha256 over a family of built circuits, taken in order:
the register width, the label, the converter plan and, per gate, its kind,
target, controls and float.hex(angle), so that 0.0 and -0.0 differ. They
were recorded before the builders emitted physical qubits directly and the
binomial pipeline was emitted in place. The binary-to-onehot digests were
re-recorded when its plan's ancilla count became the compression's peak, as
for onehot-to-binary; its gates did not change.
"""

from __future__ import annotations

import hashlib
from operator import attrgetter

import pytest

from edick import (
    BinomialSpec,
    Direction,
    EncodingKind,
    EvenMethod,
    build_binomial_pipeline,
    build_cnot_stair,
    build_converter,
    build_dicke_unitary,
    build_scs,
)

# Every level count to 130 and three large ones for the staircase builders.
# The composed directions reuse the same compression blocks, and the quadratic
# staircase baseline builds 131k gates at N=513, so sparser sets keep the file
# to a few seconds.
SIZES = (*range(2, 131), 257, 300, 513)
COMPOSED_SIZES = (*range(2, 34), 63, 64, 65, 127, 128, 129, 130, 257, 300, 513)
STAIR_SIZES = (*range(2, 65), 130, 257)
TRIALS = (*range(2, 41), 64, 97, 128)
P = 0.37

CONVERTER_DIGESTS = {
    ("cnot-stair", None):
        "8eb717623e7472167c22532235631eda38ece3329d34784a6faf60814ebb2f4f",
    ("edick-to-onehot", None):
        "6173517d43c04401d94002202a9f34b3cbb4c2c08ab7baa4b1cc8716f0acaa84",
    ("edick-to-binary", "recursion"):
        "e2bf8ad8e352831fc2f3e27e2720b941e99357955dc1112942b9cadab7cf1f5d",
    ("edick-to-binary", "expand-n-plus-1"):
        "3da2fda6f35ab8f2d2af1d9a1d2d092ebc84943c94b212a2be1152b28e3a3522",
    ("edick-to-binary", "expand-pow2"):
        "cb4116ea786d838835f6a6a6c1987bfd92037b92f549ce781cc5bb96723723dd",
    ("onehot-to-binary", "recursion"):
        "5b431422f987bf4064d46cc709440848e7d78a19d736f2c4493c3f6e8e2f5e6a",
    ("onehot-to-binary", "expand-n-plus-1"):
        "c09cf97db582c55511f18ad483bb8b7c6df00e2eede036f96ccca53f3d6c8b7e",
    ("onehot-to-binary", "expand-pow2"):
        "f7d8a0d363e90f6d695ea0b18d3f286b7b471aafc5bfe601c0a44ac64ffc71aa",
    ("binary-to-onehot", "recursion"):
        "6cffa51884017e20bd76ee3b61d9a77b0be235bb067461f4bf0fe497c79043c1",
    ("binary-to-onehot", "expand-n-plus-1"):
        "750cec6a01bc702f7ade5282912f79a32bd2f4c1c04f372daac8929c20361dcb",
    ("binary-to-onehot", "expand-pow2"):
        "7329dd7a0c2fdf4a373143272f8e161bf2be55facb3911fb33431bf5213a61f1",
}

BINOMIAL_DIGESTS = {
    ("edick", "recursion"):
        "c4feb21b2e89f25440122551b1267a7351dca9a9d534a6dd4c2411edd477439f",
    ("edick", "expand-n-plus-1"):
        "c4feb21b2e89f25440122551b1267a7351dca9a9d534a6dd4c2411edd477439f",
    ("edick", "expand-pow2"):
        "c4feb21b2e89f25440122551b1267a7351dca9a9d534a6dd4c2411edd477439f",
    ("onehot", "recursion"):
        "0aeb674e3181e312bc46d66025b73a7df0e71abef97bd3f6c38bb30b5a4febee",
    ("onehot", "expand-n-plus-1"):
        "0aeb674e3181e312bc46d66025b73a7df0e71abef97bd3f6c38bb30b5a4febee",
    ("onehot", "expand-pow2"):
        "0aeb674e3181e312bc46d66025b73a7df0e71abef97bd3f6c38bb30b5a4febee",
    ("binary", "recursion"):
        "7cd44fc9b393b9c3f2b72fcb963e3e658c9fae152a3913efcd593db569f54e1b",
    ("binary", "expand-n-plus-1"):
        "414c363bd23fe2bf9f70f41b3edeb2bbd228b69b8ff09d5b80ca188d5f6c5c2a",
    ("binary", "expand-pow2"):
        "272f75578f587f088256a605069679113a5f7a7bf271efbc3641358a39848a29",
}


def _case_id(case: tuple[str, str | None]) -> str:
    return "-".join(part for part in case if part)


def _update(digest, circuit, plan) -> None:
    gates = circuit.gates
    angles = [None if a is None else a.hex() for a in map(attrgetter("angle"), gates)]
    record = (
        circuit.num_qubits,
        circuit.label,
        plan,
        list(map(attrgetter("kind._value_"), gates)),
        list(map(attrgetter("target"), gates)),
        list(map(attrgetter("controls"), gates)),
        angles,
    )
    digest.update(repr(record).encode())


def converter_digest(direction: str, method: str | None) -> str:
    if direction == "cnot-stair":
        sizes = STAIR_SIZES
    elif direction in ("onehot-to-binary", "binary-to-onehot"):
        sizes = COMPOSED_SIZES
    else:
        sizes = SIZES
    digest = hashlib.sha256()
    for n in sizes:
        if direction == "cnot-stair":
            circuit, plan = build_cnot_stair(n), None
        elif method is None:
            circuit, plan = build_converter(Direction(direction), n)
        else:
            circuit, plan = build_converter(Direction(direction), n, EvenMethod(method))
        _update(digest, circuit, plan)
    return digest.hexdigest()


def binomial_digest(target: str, method: str) -> str:
    digest = hashlib.sha256()
    for n in TRIALS:
        spec = BinomialSpec.from_probability(n, P, EncodingKind(target), EvenMethod(method))
        _update(digest, *build_binomial_pipeline(spec))
    return digest.hexdigest()


@pytest.mark.parametrize("case", list(CONVERTER_DIGESTS), ids=_case_id)
def test_logical_converter_gates_match_their_golden_digest(case: tuple[str, str | None]) -> None:
    assert converter_digest(*case) == CONVERTER_DIGESTS[case]


@pytest.mark.parametrize("case", list(BINOMIAL_DIGESTS), ids=_case_id)
def test_logical_binomial_gates_match_their_golden_digest(case: tuple[str, str]) -> None:
    assert binomial_digest(*case) == BINOMIAL_DIGESTS[case]


# The Dicke blocks and the pipelines that run them, with object sharing: per
# gate, the index where that gate object first appears in its circuit, so a
# CNOT that one level uses twice, as one object, stays one object. Recorded
# while each block was still written in both directions.
BLOCK_DIGEST = "7f2358c35f851bb317674e35c05e08354d2bbebf7ac34cda41b213fd0d5efdc7"


def _update_shared(digest, circuit) -> None:
    first: dict[int, int] = {}
    record = [circuit.num_qubits, circuit.label]
    for i, gate in enumerate(circuit.gates):
        angle = None if gate.angle is None else gate.angle.hex()
        shared = first.setdefault(id(gate), i)
        record.append((gate.kind.value, gate.target, gate.controls, angle, shared))
    digest.update(repr(record).encode())


def block_digest() -> str:
    digest = hashlib.sha256()
    for n in range(2, 13):
        for k in range(1, n):
            _update_shared(digest, build_scs(n, k))
    for m in range(2, 25):
        _update_shared(digest, build_dicke_unitary(m))
    for target in EncodingKind:
        for n in (2, 5, 17):
            spec = BinomialSpec.from_probability(n, P, target)
            _update_shared(digest, build_binomial_pipeline(spec)[0])
    return digest.hexdigest()


def test_dicke_blocks_and_pipelines_match_their_golden_digest() -> None:
    assert block_digest() == BLOCK_DIGEST
