"""Closed-form signal photon numbers for the analytically solvable corners.

The two solvable corners are the probed matched coupler (Δ = 0, where strong
coupling freezes conversion) and the unprobed mismatched one (κ = 0).  Both
have the eigenvalues 0, ±√x with x = κ² + Δ²/4 - Γ², so one law covers every
cell with κΔ = 0 (:func:`covered`):

    n_i = Γ² [sin(√x L)/√x]²,   n_b = κ²Γ² [(1 - cos √x L)/x]²,   n_s = n_i + n_b.

Both brackets are entire in x, so the oscillatory (x > 0) and growing (x < 0)
branches are one expression continued across zero, and a short even series
bridges the window around x = 0.  At κ = Δ = 0 it is sinh²(ΓL).
:func:`closed_form_batch` evaluates the law over stacks of cells and never
raises; the scalar laws are one cell of it and raise NumericError where the
result is not finite.  The strong-coupling and large-mismatch envelopes are
bounded sine oscillations.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .params import CouplerParams, DomainError, require_ok, valid_cells

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


def covered(kappa, delta):
    """Where the closed form covers a cell: κΔ = 0, i.e. κ = 0 or Δ = 0."""
    return (kappa == 0.0) | (delta == 0.0)


def closed_form_batch(gamma, kappa, delta, length):
    """The closed-form law over the broadcast (Γ, κ, Δ, L) arrays.

    Returns ``(n_s, n_i, n_b, branch, ok)``.  The branch is "threshold" where
    |x| <= BRANCH_WINDOW·Γ² (there the even series is used), else
    "trigonometric" for x > 0 and "hyperbolic" for x < 0.  A cell that is
    invalid (:func:`params.valid_cells`), is not :func:`covered` or whose
    occupations are not finite gets ``ok = False``, NaN occupations and the
    branch ""; nothing raises or warns.
    """
    g, k, d, t, ok = valid_cells(gamma, kappa, delta, length)
    ok &= covered(k, d)
    # Rates times 2^-e and L times 2^e, with 2^e just above the largest rate: the
    # law depends only on ΓL, κL, ΔL, the scaling is exact, and no squared rate overflows.
    e = np.frexp(np.maximum(np.maximum(g, k), np.abs(d)))[1]
    with np.errstate(all="ignore"):
        g, k, d, t = np.ldexp(g, -e), np.ldexp(k, -e), np.ldexp(d, -e), np.ldexp(t, e)
        r = k + 0.5 * np.abs(d)  # √(κ² + Δ²/4), as κΔ = 0
        x = (r - g) * (r + g)
        threshold = np.abs(x) <= BRANCH_WINDOW * g * g
        trig = (x > 0.0) & ~threshold
        q = np.sqrt(np.abs(x))
        u = x * t * t
        # sin(√x L)/√x and (1 - cos √x L)/x = 2 sin²(√x L/2)/x, continued to sinh for
        # x < 0; the half-angle form loses no precision at small arguments.
        sin_ratio = np.where(
            threshold,
            t * (1.0 - u / 6.0 + u * u / 120.0 - u * u * u / 5040.0),
            np.where(trig, np.sin(q * t), np.sinh(q * t)) / q,
        )
        half = np.where(trig, np.sin(0.5 * q * t), np.sinh(0.5 * q * t))
        versine = np.where(
            threshold,
            t * t * (0.5 - u / 24.0 + u * u / 720.0 - u * u * u / 40320.0),
            2.0 * half * half / np.abs(x),
        )
        n_i = (g * sin_ratio) ** 2
        n_b = (k * g * versine) ** 2
        n_s = n_i + n_b
    ok &= np.isfinite(n_s)
    n_s, n_i, n_b = (np.where(ok, n, np.nan) for n in (n_s, n_i, n_b))
    tags = np.where(threshold, BRANCH_THRESHOLD, np.where(trig, BRANCH_TRIG, BRANCH_HYPERBOLIC))
    branch = np.where(ok, tags, "")
    return n_s, n_i, n_b, branch, ok


def _cell(law: str, p: CouplerParams) -> ClosedFormResult:
    """One cell of :func:`closed_form_batch`, or NumericError naming ``law``."""
    n_s, n_i, n_b, branch, ok = closed_form_batch(p.gamma, p.kappa, p.delta, p.length)
    require_ok(ok, law)
    return ClosedFormResult(float(n_s), float(n_i), float(n_b), str(branch))


def n_s_matched(gamma: float, length: float) -> float:
    """Matched unprobed growth (κ = Δ = 0): n_s = sinh²(ΓL)."""
    return _cell("matched unprobed law", CouplerParams(gamma, 0.0, 0.0, length)).n_s


def coupled_matched_occupations(gamma: float, kappa: float, length: float) -> ClosedFormResult:
    """All three occupations for the matched probed coupler (Δ = 0), where x = κ² - Γ².

    At the threshold κ = Γ: n_s = Γ²L² + Γ⁴L⁴/4.
    """
    return _cell("matched probed law", CouplerParams(gamma, kappa, 0.0, length))


def n_s_mismatched_uncoupled(gamma: float, delta: float, length: float) -> ClosedFormResult:
    """Unprobed mismatched law (κ = 0, x = Δ²/4 - Γ²): n_i = n_s and the probe stays empty."""
    return _cell("mismatched unprobed law", CouplerParams(gamma, 0.0, delta, length))


def closed_form_occupations(params: CouplerParams) -> ClosedFormResult:
    """The closed-form result for ``params``, or DomainError where it is not :func:`covered`."""
    if not covered(params.kappa, params.delta):
        raise DomainError(
            "closed-form engine requires delta = 0 or kappa = 0; "
            "use --engine exact (or ode) for the general case"
        )
    return _cell("matched probed law" if params.delta == 0.0 else "mismatched unprobed law", params)


def n_s_strong_coupling_asymptote(gamma: float, kappa: float, length: float) -> float:
    """Strong-probe envelope at Δ = 0: n_s -> (4Γ²/κ²) sin²(κL/2).

    Valid for κ >> Γ; the prefactor 4Γ²/κ² bounds the conversion, which is
    the freezing (Zeno-like) suppression of pair production.
    """
    p = CouplerParams(gamma, kappa, 0.0, length)
    if p.kappa == 0.0:
        raise DomainError("strong-coupling envelope is undefined at kappa = 0")
    return _envelope("strong-coupling envelope", p.gamma, p.kappa, p.length)


def n_s_large_mismatch_asymptote(gamma: float, delta: float, length: float) -> float:
    """Unprobed large-mismatch envelope: n_s -> (4Γ²/Δ²) sin²(ΔL/2) for |Δ| >> Γ."""
    p = CouplerParams(gamma, 0.0, delta, length)
    if p.delta == 0.0:
        raise DomainError("large-mismatch envelope is undefined at delta = 0")
    return _envelope("large-mismatch envelope", p.gamma, p.delta, p.length)


def _envelope(law: str, gamma: float, rate: float, length: float) -> float:
    """(4Γ²/rate²) sin²(rate·L/2), or NumericError where rate·L or the prefactor overflows."""
    with np.errstate(all="ignore"):
        value = float((2.0 * gamma / rate * np.sin(0.5 * rate * length)) ** 2)
    require_ok(np.isfinite(value), law)  # an inf or nan of overflowed terms
    return value
