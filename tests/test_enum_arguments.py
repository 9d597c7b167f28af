"""Directions, methods and targets are enum members: anything else raises ValueError.

A value string or a member of the wrong enum is refused before anything is
built. Every direction checks its method, the unfoldings included, which do
not use it.
"""

from __future__ import annotations

import pytest

from edick import BinomialSpec, Direction, EncodingKind, EvenMethod, build_converter

NOT_METHODS = ["recursion", "expand-pow2", None, 0, EncodingKind.BINARY, Direction.EDICK_TO_BINARY]
NOT_TARGETS = ["binary", "onehot", None, 0, EvenMethod.RECURSION, Direction.EDICK_TO_ONEHOT]


@pytest.mark.parametrize("method", NOT_METHODS, ids=repr)
@pytest.mark.parametrize("direction", list(Direction))
def test_converter_refuses_a_method_that_is_not_an_even_method(
    direction: Direction, method: object
) -> None:
    with pytest.raises(ValueError, match="method must be an EvenMethod"):
        build_converter(direction, 6, method)


@pytest.mark.parametrize("direction", ["edick-to-binary", None, EvenMethod.RECURSION])
def test_converter_refuses_a_direction_that_is_not_a_direction(direction: object) -> None:
    with pytest.raises(ValueError, match="unknown direction"):
        build_converter(direction, 6)


@pytest.mark.parametrize("method", NOT_METHODS, ids=repr)
@pytest.mark.parametrize("target", list(EncodingKind))
def test_binomial_spec_refuses_a_method_that_is_not_an_even_method(
    target: EncodingKind, method: object
) -> None:
    with pytest.raises(ValueError, match="method must be an EvenMethod"):
        BinomialSpec.from_probability(5, 0.3, target, method)


@pytest.mark.parametrize("target", NOT_TARGETS, ids=repr)
def test_binomial_spec_refuses_a_target_that_is_not_an_encoding_kind(target: object) -> None:
    with pytest.raises(ValueError, match="target must be an EncodingKind"):
        BinomialSpec.from_probability(5, 0.3, target)
