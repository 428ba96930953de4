"""Parameter container: validation, immutability, scaling, error taxonomy."""

import dataclasses
import math

import pytest

from zenopdc import (
    BoundaryNotFoundError,
    CouplerError,
    CouplerParams,
    DomainError,
    IntegrationError,
    InvalidParameterError,
    NumericError,
    max_signal_over_length,
    require_finite,
    resonant_vs_qpm,
)


def test_fields_and_defaults():
    p = CouplerParams(gamma=0.5, kappa=1.0, delta=-2.0, length=1.5)
    assert (p.gamma, p.kappa, p.delta, p.length) == (0.5, 1.0, -2.0, 1.5)


def test_coerces_to_float():
    p = CouplerParams(gamma=1, kappa=2, delta=-3, length=0)
    for name in ("gamma", "kappa", "delta", "length"):
        assert isinstance(getattr(p, name), float)


def test_frozen():
    p = CouplerParams(0.5, 1.0, 0.0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.gamma = 2.0


@pytest.mark.parametrize("field", ["gamma", "kappa", "length"])
def test_rejects_negative(field):
    kwargs = dict(gamma=0.5, kappa=1.0, delta=0.0, length=1.0)
    kwargs[field] = -0.1
    with pytest.raises(InvalidParameterError):
        CouplerParams(**kwargs)


def test_delta_may_be_negative():
    assert CouplerParams(0.5, 1.0, -5.0, 1.0).delta == -5.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite(bad):
    with pytest.raises(InvalidParameterError):
        CouplerParams(gamma=bad, kappa=1.0, delta=0.0, length=1.0)
    with pytest.raises(InvalidParameterError):
        CouplerParams(gamma=0.5, kappa=1.0, delta=bad, length=1.0)


def test_rejects_bool():
    with pytest.raises(InvalidParameterError):
        CouplerParams(True, 0, 0, 1)


def test_rescaled_fields():
    p = CouplerParams(0.5, 1.0, -2.0, 1.5)
    q = p.rescaled(2.0)
    assert (q.gamma, q.kappa, q.delta, q.length) == (1.0, 2.0, -4.0, 0.75)


@pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan, -0.0, "2", True, None, 1j])
def test_rescaled_rejects_bad_factor(c):
    with pytest.raises(InvalidParameterError):
        CouplerParams(0.5, 1.0, 0.0, 1.0).rescaled(c)


def test_require_finite():
    assert require_finite("x", 2) == 2.0
    assert require_finite("x", -2, nonnegative=False) == -2.0
    with pytest.raises(InvalidParameterError):
        require_finite("x", -2)
    with pytest.raises(InvalidParameterError):
        require_finite("x", math.nan, nonnegative=False)


def test_array_and_count_inputs_raise_invalid_parameter():
    # a bool or a quoted number is not a length, and a sample count is an int >= 1
    for lengths in ([True], ["1.5"]):
        with pytest.raises(InvalidParameterError):
            resonant_vs_qpm(0.5, 5.0, lengths)
    for samples in (0, -3, 2.5):
        with pytest.raises(InvalidParameterError):
            max_signal_over_length(0.5, 1.0, 0.0, 3.0, samples)


def test_error_taxonomy():
    assert issubclass(InvalidParameterError, CouplerError)
    assert issubclass(InvalidParameterError, ValueError)
    assert issubclass(DomainError, ValueError)
    assert issubclass(NumericError, ArithmeticError)
    assert issubclass(IntegrationError, NumericError)
    assert issubclass(BoundaryNotFoundError, RuntimeError)
    for exc in (DomainError, NumericError, IntegrationError, BoundaryNotFoundError):
        assert issubclass(exc, CouplerError)
