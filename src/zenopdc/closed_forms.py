"""Closed-form signal photon numbers for the analytically solvable corners.

Four regimes admit explicit laws for the vacuum-input signal occupation:

* matched, unprobed (κ = 0, Δ = 0):  n_s = sinh²(ΓL)
* matched, probed   (Δ = 0):         two-term law in χ² = κ² - Γ², valid on
  both sides of the κ = Γ threshold by analytic continuation
* mismatched, unprobed (κ = 0):      gain law in g² = Γ² - Δ²/4
* strong-coupling / large-mismatch envelopes: bounded sine oscillations

Every formula is an entire function of the squared rate that controls it, so
the oscillatory and growing branches are the same expression continued across
zero; a short even series bridges the numerically degenerate window around
the branch point.  The matched probed and mismatched unprobed laws return
one ClosedFormResult (n_s, n_i, n_b, branch).  Where rate·length is too large
for a float, every law raises NumericError instead of returning inf/nan.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .params import CouplerParams, DomainError, NumericError, require_finite as _require

#: Branch tags reported by the closed-form laws.
BRANCH_TRIG = "trigonometric"
BRANCH_HYPERBOLIC = "hyperbolic"
BRANCH_THRESHOLD = "threshold"

#: Relative half-width (in units of Γ²) of the window around a branch point
#: inside which the series expansion is used and the branch is tagged
#: "threshold".
BRANCH_WINDOW = 1e-6


class ClosedFormResult(NamedTuple):
    """Occupations from a closed-form law plus the branch that produced them."""

    n_s: float
    n_i: float
    n_b: float
    branch: str


def _unrepresentable(law: str) -> NumericError:
    return NumericError(f"{law}: rate*length is beyond the representable range")


def _finite(law: str, value: float) -> float:
    """``value`` if it is finite, else NumericError (an inf or nan of overflowed terms)."""
    if not math.isfinite(value):
        raise _unrepresentable(law)
    return value


def _branch(x: float, gamma: float) -> str:
    """Branch at the squared rate x: threshold within BRANCH_WINDOW·Γ² of 0, else by sign."""
    if abs(x) <= BRANCH_WINDOW * gamma * gamma:
        return BRANCH_THRESHOLD
    return BRANCH_TRIG if x > 0.0 else BRANCH_HYPERBOLIC


def _sin_ratio(x: float, length: float, branch: str) -> float:
    """sin(√x L)/√x for x > 0, continued to sinh(√-x L)/√-x for x < 0.

    On the threshold branch a four-term even series around x = 0.
    """
    if branch == BRANCH_TRIG:
        r = math.sqrt(x)
        return math.sin(r * length) / r
    if branch == BRANCH_HYPERBOLIC:
        r = math.sqrt(-x)
        return math.sinh(r * length) / r
    u = x * length * length
    return length * (1.0 - u / 6.0 + u * u / 120.0 - u * u * u / 5040.0)


def _versine_ratio(x: float, length: float, branch: str) -> float:
    """(1 - cos(√x L))/x continued across x = 0, evaluated cancellation-free.

    Uses 1 - cos θ = 2 sin²(θ/2) (and cosh θ - 1 = 2 sinh²(θ/2) for x < 0),
    so small arguments lose no precision; on the threshold branch a four-term
    even series around x = 0.
    """
    if branch == BRANCH_TRIG:
        s = math.sin(0.5 * math.sqrt(x) * length)
        return 2.0 * s * s / x
    if branch == BRANCH_HYPERBOLIC:
        s = math.sinh(0.5 * math.sqrt(-x) * length)
        return 2.0 * s * s / (-x)
    u = x * length * length
    return length * length * (0.5 - u / 24.0 + u * u / 720.0 - u * u * u / 40320.0)


def n_s_matched(gamma: float, length: float) -> float:
    """Matched unprobed growth: n_s = sinh²(ΓL)."""
    gamma = _require("gamma", gamma)
    length = _require("length", length)
    try:
        n_s = math.sinh(gamma * length) ** 2
    except OverflowError as exc:
        raise _unrepresentable("matched unprobed law") from exc
    return _finite("matched unprobed law", n_s)


def coupled_matched_occupations(gamma: float, kappa: float, length: float) -> ClosedFormResult:
    """All three occupations for the matched probed coupler (Δ = 0).

    With χ² = κ² - Γ²,

        n_i = Γ² [sin(χL)/χ]²,   n_b = κ²Γ² [(1 - cos χL)/χ²]²,

    and n_s = n_i + n_b; both brackets are entire in χ², so κ < Γ follows by
    substituting the hyperbolic counterparts.  Inside the window
    |κ² - Γ²| <= BRANCH_WINDOW·Γ² the even series is used and the branch is
    tagged "threshold" (at κ = Γ exactly: n_s = Γ²L² + Γ⁴L⁴/4).
    """
    gamma = _require("gamma", gamma)
    kappa = _require("kappa", kappa)
    length = _require("length", length)
    law = "matched probed law"
    try:
        x = (kappa - gamma) * (kappa + gamma)
        branch = _branch(x, gamma)
        n_i = (gamma * _sin_ratio(x, length, branch)) ** 2
        n_b = (kappa * gamma * _versine_ratio(x, length, branch)) ** 2
    except (OverflowError, ValueError) as exc:  # math.sinh overflow, math.sin(inf)
        raise _unrepresentable(law) from exc
    return ClosedFormResult(_finite(law, n_i + n_b), n_i, n_b, branch)


def n_s_mismatched_uncoupled(gamma: float, delta: float, length: float) -> ClosedFormResult:
    """Unprobed mismatched law: n_s = Γ² sinh²(gL)/g² with g² = Γ² - Δ²/4.

    The idler mirrors the signal (n_i = n_s) and the probe stays empty.  For
    Δ²/4 > Γ² the continuation oscillates (trigonometric branch); the window
    |Γ² - Δ²/4| <= BRANCH_WINDOW·Γ² uses the series and is tagged "threshold".
    """
    gamma = _require("gamma", gamma)
    delta = _require("delta", delta, nonnegative=False)
    length = _require("length", length)
    law = "mismatched unprobed law"
    # x > 0 is the oscillatory side of sin(√x L)/√x, i.e. Δ²/4 > Γ².
    try:
        x = 0.25 * delta * delta - gamma * gamma
        branch = _branch(x, gamma)
        n_s = (gamma * _sin_ratio(x, length, branch)) ** 2
    except (OverflowError, ValueError) as exc:  # math.sinh overflow, math.sin(inf)
        raise _unrepresentable(law) from exc
    n_s = _finite(law, n_s)
    return ClosedFormResult(n_s, n_s, 0.0, branch)


def closed_form_occupations(params: CouplerParams) -> ClosedFormResult:
    """The result of the closed form that covers ``params``.

    Δ = 0 takes the matched probed law, else κ = 0 the mismatched unprobed
    law; any other point raises DomainError.
    """
    if params.delta == 0.0:
        return coupled_matched_occupations(params.gamma, params.kappa, params.length)
    if params.kappa == 0.0:
        return n_s_mismatched_uncoupled(params.gamma, params.delta, params.length)
    raise DomainError(
        "closed-form engine requires delta = 0 or kappa = 0; "
        "use --engine exact (or ode) for the general case"
    )


def n_s_strong_coupling_asymptote(gamma: float, kappa: float, length: float) -> float:
    """Strong-probe envelope at Δ = 0: n_s -> (4Γ²/κ²) sin²(κL/2).

    Valid for κ >> Γ; the prefactor 4Γ²/κ² bounds the conversion, which is
    the freezing (Zeno-like) suppression of pair production.
    """
    gamma = _require("gamma", gamma)
    kappa = _require("kappa", kappa)
    length = _require("length", length)
    if kappa == 0.0:
        raise DomainError("strong-coupling envelope is undefined at kappa = 0")
    return _envelope("strong-coupling envelope", gamma, kappa, length)


def n_s_large_mismatch_asymptote(gamma: float, delta: float, length: float) -> float:
    """Unprobed large-mismatch envelope: n_s -> (4Γ²/Δ²) sin²(ΔL/2) for |Δ| >> Γ."""
    gamma = _require("gamma", gamma)
    delta = _require("delta", delta, nonnegative=False)
    length = _require("length", length)
    if delta == 0.0:
        raise DomainError("large-mismatch envelope is undefined at delta = 0")
    return _envelope("large-mismatch envelope", gamma, delta, length)


def _envelope(law: str, gamma: float, rate: float, length: float) -> float:
    """(4Γ²/rate²) sin²(rate·L/2), or NumericError where rate·L or the prefactor overflows."""
    try:
        value = (2.0 * gamma / rate * math.sin(0.5 * rate * length)) ** 2
    except (OverflowError, ValueError) as exc:  # math.sin(inf), float ** 2 overflow
        raise _unrepresentable(law) from exc
    return _finite(law, value)
