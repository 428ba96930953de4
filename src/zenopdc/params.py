"""Physical parameters, their names, error types and the three input and failure rules.

The device under study is a three-mode bosonic coupler: a strong classical
pump drives signal/idler pair production with nonlinear gain ``gamma`` and
phase mismatch ``delta``, while the idler exchanges photons with an auxiliary
probe mode at linear coupling rate ``kappa``.  All three rates carry units of
inverse length; ``length`` is the interaction length.

A number is a finite real, and >= 0 for Γ, κ and L (:func:`require_finite`,
:func:`valid_cells`); a count is an int, not a bool, at or above its minimum
(:func:`require_count`); a non-finite result raises NumericError (:func:`require_ok`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


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


#: The parameter names, in :class:`CouplerParams` field order; a sweep axis varies one of them.
PARAM_AXES = ("gamma", "kappa", "delta", "length")
#: A sweep's per-cell engine policies; here, not in ``sweeps``, so the CLI parser can name them.
ENGINE_NUMERIC = "numeric"
ENGINE_CLOSED_WHEN_APPLICABLE = "closed_form_when_applicable"
ENGINES = (ENGINE_NUMERIC, ENGINE_CLOSED_WHEN_APPLICABLE)
_NONNEGATIVE = ("gamma", "kappa", "length")


def _real(name: str, values, nonnegative: bool):
    """``values`` as float64 plus the mask of its finite (and, if asked, >= 0) entries.

    A bool (``true`` in a config is malformed, not the rate 1.0), a string, a
    complex value, None, a ragged sequence or an integer of 2**64 or more raises.
    """
    try:
        array = np.asarray(values)
    except ValueError as exc:  # a ragged sequence
        raise InvalidParameterError(f"{name} takes only real numbers, got {values!r}") from exc
    if array.dtype.kind not in "iuf":
        got = repr(values) if array.ndim == 0 else f"dtype {array.dtype}"
        raise InvalidParameterError(f"{name} takes only real numbers, got {got}")
    x = array.astype(np.float64, copy=False)
    ok = np.isfinite(x)
    if nonnegative:
        ok &= x >= 0.0
    return x, ok


def require_finite(name: str, value, nonnegative: bool = True) -> float:
    """``value`` as a float if it is one finite real number, optionally >= 0, else raise."""
    x, ok = _real(name, value, nonnegative)
    if x.ndim or not ok:
        rule = "finite number >= 0" if nonnegative else "finite number"
        raise InvalidParameterError(f"{name} must be one {rule}, got {value!r}")
    return float(x)


def require_count(name: str, value, minimum: int) -> int:
    """``value`` if it is an int, not a bool, and >= ``minimum``, else raise."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise InvalidParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def require_ok(ok, what: str) -> None:
    """Raise NumericError naming ``what`` unless every entry of the ``ok`` mask is set."""
    if not np.asarray(ok).all():
        raise NumericError(
            f"{what}: {np.count_nonzero(~np.asarray(ok))} of {np.size(ok)} values are not "
            "finite; the rates or rate*length are beyond the representable range"
        )


def require_allocatable(what: str, count: int, dtype) -> int:
    """``count`` if ``count`` items of ``dtype`` fit numpy's array size limit, else raise."""
    limit = np.iinfo(np.intp).max // np.dtype(dtype).itemsize
    if count > limit:
        raise InvalidParameterError(f"{what} {count} exceeds numpy's array size limit of {limit}")
    return count


def valid_cells(gamma, kappa, delta, length):
    """Broadcast (Γ, κ, Δ, L) to float64 and mask the cells :class:`CouplerParams` accepts.

    Returns ``(g, k, d, t, ok)``: a cell is valid when its four values are
    finite and Γ, κ, L >= 0.  Invalid cells are zeroed, so every stacked path
    can compute on all cells and blank the invalid ones after.  Values that are
    not real numbers raise InvalidParameterError, as in :func:`require_finite`.
    """
    fields = [
        _real(name, values, name in _NONNEGATIVE)
        for name, values in zip(PARAM_AXES, (gamma, kappa, delta, length))
    ]
    ok = np.ones(np.broadcast(*(x for x, _ in fields)).shape, dtype=bool)
    for _, valid in fields:
        ok &= valid
    g, k, d, t = (np.where(ok, x, 0.0) for x, _ in fields)
    return g, k, d, t, ok


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
        for name in PARAM_AXES:
            value = require_finite(name, getattr(self, name), nonnegative=name in _NONNEGATIVE)
            object.__setattr__(self, name, value)

    def rescaled(self, c: float) -> "CouplerParams":
        """Return the physically equivalent parameter set (cΓ, cκ, cΔ, L/c)."""
        c = require_finite("scale factor", c)
        if c == 0.0:
            raise InvalidParameterError(f"scale factor must be > 0, got {c!r}")
        return replace(
            self,
            gamma=c * self.gamma,
            kappa=c * self.kappa,
            delta=c * self.delta,
            length=self.length / c,
        )
