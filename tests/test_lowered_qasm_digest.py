"""Golden digests of lowered QASM: lowering and emission stay byte-identical.

Each digest is the sha256 over emit_text(decompose_to_basis(circuit)) of a
family of circuits, taken in order, recorded before lowering and parsing
began to share work between repeated gates. The recursion entries, which
hold every multi-controlled X, were re-recorded when lowering began to
borrow idle qubits for them, and the binomial entries, which hold every
CCRY, when a CCRY began to lower as an 8-gate multiplexor. Every lowered
circuit must also survive a QASM round trip gate for gate.
"""

from __future__ import annotations

import hashlib

import pytest

from edick import (
    BinomialSpec,
    Direction,
    EncodingKind,
    EvenMethod,
    build_binomial_pipeline,
    build_cnot_stair,
    build_converter,
    decompose_to_basis,
    emit_text,
    parse_text,
)

# Every level count up to 64 and two large self-similar ones for the core
# builders. The composed directions reuse the same compression blocks, and
# the staircase baseline lowers nothing (at N=513 it is 131k distinct lines),
# so sparser sets keep the file to a few seconds.
SIZES = (*range(2, 65), 257, 513)
COMPOSED_SIZES = (*range(2, 17), 31, 32, 33, 63, 64, 257, 513)
STAIR_SIZES = (*range(2, 65), 129)
BINOMIAL = ((2, 0.5), (5, 0.3), (12, 0.71), (31, 0.05))

CONVERTER_DIGESTS = {
    ("edick-to-onehot", None):
        "45dbf7f2f114786957d00598bad5ab58a231603f5bb7d1e3d0680ff1b4d7e967",
    ("cnot-stair", None):
        "58a709c09077c164f81fd85002ddd2d17183bb638c15ed719c53a14060cb3d5b",
    ("edick-to-binary", "recursion"):
        "97445c1f658d0d3c2164d46b292e5dac0e6d3e040bdd646b1f678b21bccfe8a5",
    ("edick-to-binary", "expand-n-plus-1"):
        "97606e961a8c8052c16ef3ec675abc9ffb92149d5b32317d8490eb9f12d226c9",
    ("edick-to-binary", "expand-pow2"):
        "c3fb92cdf7769ac6ab10a13158583cbc6c3ca7a01ec6a82528f631e7f142e89a",
    ("onehot-to-binary", "recursion"):
        "2629a05caaac765305484b3445ab938a4a4580bb9ef0adb7c5d8025b73a62743",
    ("onehot-to-binary", "expand-n-plus-1"):
        "d0f0ef10e5515d1c4fb68c4f43a7842a8fb6ddd54838f1fa4d60fa9cbd68a926",
    ("onehot-to-binary", "expand-pow2"):
        "b98a20ab7dea047f61a36055c99e2364edc8f8c9e8e933568708dca85dd02ed8",
    ("binary-to-onehot", "recursion"):
        "ed0e03799e83054261b278b91fb5f0eead6ea7b55f4be07260355192d6b14a2e",
    ("binary-to-onehot", "expand-n-plus-1"):
        "cb960e582d601da691e3e6d5b92eea6195dab45757938c86669f014033747624",
    ("binary-to-onehot", "expand-pow2"):
        "7e06e2d917040898408ee41f639a658cb9ab0e934ff78d5c92347bd9dc8951e9",
}

BINOMIAL_DIGESTS = {
    ("edick", "recursion"):
        "5c97db6c2f425bb19f6af6415b2d1297061205492a19159d9afe8b75f8db3432",
    ("edick", "expand-n-plus-1"):
        "5c97db6c2f425bb19f6af6415b2d1297061205492a19159d9afe8b75f8db3432",
    ("edick", "expand-pow2"):
        "5c97db6c2f425bb19f6af6415b2d1297061205492a19159d9afe8b75f8db3432",
    ("onehot", "recursion"):
        "477ea5c0b139a2381c016ca23f88d84f018be2a43791e7bc38fbbcaf71b8bd47",
    ("onehot", "expand-n-plus-1"):
        "477ea5c0b139a2381c016ca23f88d84f018be2a43791e7bc38fbbcaf71b8bd47",
    ("onehot", "expand-pow2"):
        "477ea5c0b139a2381c016ca23f88d84f018be2a43791e7bc38fbbcaf71b8bd47",
    ("binary", "recursion"):
        "86681546957e052c1f72025821fa2a0162a341fe9ee04b8bed3253fd03126ed4",
    ("binary", "expand-n-plus-1"):
        "7ae5623dee1de610c1623d4835f0ddbdc1a4f3aa6a471b066cce3c106c25ce52",
    ("binary", "expand-pow2"):
        "cca675edd0bd9c0a9ab77383a92d0a73d27a4ff806960e7bff4639fd5bace6a4",
}


def _case_id(case: tuple[str, str | None]) -> str:
    return "-".join(part for part in case if part)


def _converter(direction: str, method: str | None, n: int):
    if direction == "cnot-stair":
        return build_cnot_stair(n)
    if method is None:
        return build_converter(Direction(direction), n)[0]
    return build_converter(Direction(direction), n, EvenMethod(method))[0]


def _digest(circuits) -> str:
    """sha256 over the lowered QASM of each circuit, checking each round trip."""
    digest = hashlib.sha256()
    for circuit in circuits:
        lowered = decompose_to_basis(circuit)
        text = emit_text(lowered)
        parsed = parse_text(text)
        assert parsed.num_qubits == lowered.num_qubits
        assert parsed.gates == lowered.gates
        digest.update(text.encode())
    return digest.hexdigest()


def converter_digest(direction: str, method: str | None) -> str:
    if direction == "cnot-stair":
        sizes = STAIR_SIZES
    elif direction in ("onehot-to-binary", "binary-to-onehot"):
        sizes = COMPOSED_SIZES
    else:
        sizes = SIZES
    return _digest(_converter(direction, method, n) for n in sizes)


def binomial_digest(target: str, method: str) -> str:
    return _digest(
        build_binomial_pipeline(
            BinomialSpec.from_probability(n, p, EncodingKind(target), EvenMethod(method))
        )[0]
        for n, p in BINOMIAL
    )


@pytest.mark.parametrize("case", list(CONVERTER_DIGESTS), ids=_case_id)
def test_lowered_converter_qasm_matches_its_golden_digest(case: tuple[str, str | None]) -> None:
    assert converter_digest(*case) == CONVERTER_DIGESTS[case]


@pytest.mark.parametrize("case", list(BINOMIAL_DIGESTS), ids=_case_id)
def test_lowered_binomial_qasm_matches_its_golden_digest(case: tuple[str, str]) -> None:
    assert binomial_digest(*case) == BINOMIAL_DIGESTS[case]
