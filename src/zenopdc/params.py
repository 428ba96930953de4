"""Physical parameters and error types shared by all modules.

The device under study is a three-mode bosonic coupler: a strong classical
pump drives signal/idler pair production with nonlinear gain ``gamma`` and
phase mismatch ``delta``, while the idler exchanges photons with an auxiliary
probe mode at linear coupling rate ``kappa``.  All three rates carry units of
inverse length; ``length`` is the interaction length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


class CouplerError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(CouplerError, ValueError):
    """A physical parameter or option is non-finite, negative, or malformed."""


class DomainError(CouplerError, ValueError):
    """An operation was requested outside its mathematical domain."""


class NumericError(CouplerError, ArithmeticError):
    """A numerical routine failed to converge or produced non-finite output."""


class IntegrationError(NumericError):
    """The ODE oracle failed: its integrator stalled, or the phase is beyond its bound."""


class BoundaryNotFoundError(CouplerError, RuntimeError):
    """No regime-boundary sign change was found in the scanned interval."""


class FlatLandscapeWarning(UserWarning):
    """A maximization scan found an (almost) flat objective."""


_FIELD_NAMES = ("gamma", "kappa", "delta", "length")
_NONNEGATIVE = ("gamma", "kappa", "length")


def require_finite(name: str, value: float, nonnegative: bool = True) -> float:
    """Coerce ``value`` to a finite float, optionally >= 0, or raise.

    A bool is rejected: ``true`` in a config is malformed, not the rate 1.0.
    """
    if isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    if nonnegative and value < 0.0:
        raise InvalidParameterError(f"{name} must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class CouplerParams:
    """The four physical knobs.

    Parameters
    ----------
    gamma:
        Downconversion gain Γ (inverse length, >= 0).
    kappa:
        Idler-probe linear coupling κ (inverse length, >= 0).
    delta:
        Pump phase mismatch Δ (inverse length, any sign).
    length:
        Interaction length L (>= 0).

    The dynamics depend on the knobs only through the products ΓL, κL, ΔL, so
    occupations are invariant under (Γ, κ, Δ, L) -> (cΓ, cκ, cΔ, L/c); see
    :meth:`rescaled`.
    """

    gamma: float
    kappa: float
    delta: float
    length: float

    def __post_init__(self) -> None:
        for name in _FIELD_NAMES:
            value = require_finite(name, getattr(self, name), nonnegative=name in _NONNEGATIVE)
            object.__setattr__(self, name, value)

    def rescaled(self, c: float) -> "CouplerParams":
        """Return the physically equivalent parameter set (cΓ, cκ, cΔ, L/c)."""
        if c <= 0 or not math.isfinite(c):
            raise InvalidParameterError(f"scale factor must be positive and finite, got {c}")
        return replace(
            self,
            gamma=c * self.gamma,
            kappa=c * self.kappa,
            delta=c * self.delta,
            length=self.length / c,
        )
