"""Directions, methods, targets, encoding kinds, scaling models and sweep subjects are members
of their set: anything else raises ValueError.

A value string or a member of the wrong enum is refused before anything is
built. Every direction checks its method, the unfoldings included, which do
not use it. A converter plan takes None where no method or direction applies.
"""

from __future__ import annotations

import pytest

from edick import (
    AmplitudeVector,
    BinomialSpec,
    ConverterPlan,
    Direction,
    EncodingKind,
    EvenMethod,
    ScalingModel,
    SweepRow,
    build_converter,
    fit_scaling,
    build_state,
    level_to_basis,
    read_state,
    zero_state,
)

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


@pytest.mark.parametrize("method", ["a,b", "Recursion", "", None, EvenMethod.RECURSION], ids=repr)
def test_sweep_row_refuses_a_method_that_is_not_a_sweep_subject(method: object) -> None:
    with pytest.raises(ValueError, match="unknown sweep subject"):
        SweepRow(4, method, 1, 1, 1, 1, 0, 0.0)


@pytest.mark.parametrize("model", ["A*N", "A*log2(N)^2", None, EvenMethod.RECURSION], ids=repr)
def test_fit_refuses_a_model_that_is_not_a_scaling_model(model: object) -> None:
    points = [(n, float(n)) for n in (3, 5, 9, 17, 33)]
    with pytest.raises(ValueError, match="model must be a ScalingModel"):
        fit_scaling(points, model)
    assert fit_scaling(points, ScalingModel.LINEAR) == (1.0, 0.0)


@pytest.mark.parametrize("kind", NOT_TARGETS, ids=repr)
def test_level_maps_refuse_a_kind_that_is_not_an_encoding_kind(kind: object) -> None:
    with pytest.raises(ValueError, match="kind must be an EncodingKind"):
        level_to_basis(kind, 2, 3)
    with pytest.raises(ValueError, match="kind must be an EncodingKind"):
        read_state(kind, zero_state(3), 3)


@pytest.mark.parametrize("kind", NOT_TARGETS, ids=repr)
@pytest.mark.parametrize("amplitudes", [AmplitudeVector((0.6, 0.8)), None], ids=["vector", "none"])
def test_build_state_refuses_a_kind_that_is_not_an_encoding_kind(kind, amplitudes) -> None:
    with pytest.raises(ValueError, match="kind must be an EncodingKind"):
        build_state(kind, amplitudes, 3)


@pytest.mark.parametrize("method", ["recursion", 0, EncodingKind.BINARY, Direction.EDICK_TO_BINARY], ids=repr)
def test_converter_plan_refuses_a_method_that_is_not_an_even_method(method: object) -> None:
    with pytest.raises(ValueError, match="method must be an EvenMethod or None"):
        ConverterPlan(4, method, Direction.EDICK_TO_BINARY)


@pytest.mark.parametrize("direction", ["edick-to-binary", 0, EvenMethod.RECURSION], ids=repr)
def test_converter_plan_refuses_a_direction_that_is_not_a_direction(direction: object) -> None:
    with pytest.raises(ValueError, match="direction must be a Direction or None"):
        ConverterPlan(4, EvenMethod.RECURSION, direction)


@pytest.mark.parametrize("direction", [*Direction, None], ids=repr)
@pytest.mark.parametrize("method", [*EvenMethod, None], ids=repr)
def test_converter_plan_takes_members_or_none(method, direction) -> None:
    # Only the compressing directions use a method; they need one and keep it.
    compresses = direction in (
        Direction.EDICK_TO_BINARY, Direction.ONEHOT_TO_BINARY, Direction.BINARY_TO_ONEHOT
    )
    if compresses and method is None:
        with pytest.raises(ValueError, match="needs an EvenMethod"):
            ConverterPlan(4, method, direction)
        return
    plan = ConverterPlan(4, method, direction)
    assert (plan.method, plan.direction) == (method if compresses else None, direction)
    assert plan.input_index(3) >= 0
