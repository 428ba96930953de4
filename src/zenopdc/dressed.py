"""Dressed-mode picture: diagonalize the idler-probe coupling first.

The symmetric/antisymmetric combinations c = (a_i + b)/√2, d = (a_i - b)/√2
diagonalize the linear idler-probe exchange, splitting the dressed energies
by ±κ.  The pump then drives two independent downconversion channels with
effective gain Γ/√2 and effective mismatches Δ + κ (channel c) and Δ - κ
(channel d).  When κ = Δ the d channel becomes perfectly matched: this is the
anti-freezing resonance, and its effective gain Γ/√2 slightly exceeds the
2Γ/π of the standard quasi-phase-matching (QPM) comparison.

``propagate_dressed`` solves the dynamics entirely in this picture, with its
own generator and rotating frame (phases Δ, ±κ per mode instead of the
uniform Δ/2 used by ``dynamics.propagate_exact``), which makes it a genuinely
independent route to the same occupations; only the last step,
``dynamics.propagate_step``, and its finiteness rule are shared.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .dynamics import (
    BogoliubovMap,
    ModeOccupations,
    frozen_map,
    occupation_numbers,
    propagate_step,
    require_ok,
)
from .params import CouplerParams, DomainError, require_finite as _require

#: Mode order of the dressed-basis maps: signal, symmetric, antisymmetric.
DRESSED_MODES = ("s", "c", "d")

_SQRT2 = math.sqrt(2.0)


def build_dressed_generator(gamma: float, kappa: float, delta: float) -> NDArray[np.float64]:
    """Constant generator N of the dressed rotating frame, on (a_s†, c, d).

    The frame phases are e^{iΔt} on a_s† and e^{∓iκt} on (c, d); with
    g = Γ/√2 the rotated vector obeys dv/dt = i N v,

        N = [[ Δ,  g,  g ],
             [ -g, -κ,  0 ],
             [ -g,  0,  κ ]].

    ``kappa`` may be negative here (sign flip swaps the roles of c and d),
    which is what makes the κ -> -κ symmetry testable.
    """
    g = _require("gamma", gamma) / _SQRT2
    kappa = _require("kappa", kappa, nonnegative=False)
    delta = _require("delta", delta, nonnegative=False)
    return np.array(
        [
            [delta, g, g],
            [-g, -kappa, 0.0],
            [-g, 0.0, kappa],
        ]
    )


def _dressed_blocks(gamma: float, kappa: float, delta: float, length):
    """Original-picture (U, V) blocks on (s, c, d), stacked over ``length``.

    The dressed rotating frame is unwound mode-wise: the e^{∓iκt} phases on
    (c, d) cancel exactly against their dressed energy shifts, so only the
    signal row needs the factor e^{-iΔL}.  A cell that is not finite raises
    NumericError.
    """
    angles = np.zeros(np.shape(length) + (3,))
    with np.errstate(over="ignore"):
        angles[..., 0] = -delta * np.asarray(length)
    u, v, ok = propagate_step(build_dressed_generator(gamma, kappa, delta), angles, length)
    require_ok(ok, "dressed propagation")
    return u, v


def dressed_bogoliubov_map(params: CouplerParams) -> BogoliubovMap:
    """Full Bogoliubov map over (s, c, d) in the original interaction picture."""
    u, v = _dressed_blocks(params.gamma, params.kappa, params.delta, params.length)
    return frozen_map(u, v, params, modes=DRESSED_MODES)


def propagate_dressed(params: CouplerParams) -> ModeOccupations:
    """Vacuum occupations of (s, i, b) computed via the dressed channels.

    The bare-mode numbers follow from the dressed ones and the coherence
    between the channels:

        n_i = (n_c + n_d)/2 + Re<c†d>,   n_b = (n_c + n_d)/2 - Re<c†d>,

    with <c†d> = Σ_β conj(V_cβ) V_dβ for vacuum input.
    """
    v = dressed_bogoliubov_map(params).v_block
    n_s, n_c, n_d = map(float, occupation_numbers(v))
    coherence = float(np.sum(np.conj(v[1]) * v[2]).real)
    half = 0.5 * (n_c + n_d)
    return ModeOccupations(
        n_s=n_s,
        n_i=max(0.0, half + coherence),
        n_b=max(0.0, half - coherence),
    )


def qpm_comparison(gamma: float) -> tuple[float, float]:
    """(resonant effective gain Γ/√2, QPM effective gain 2Γ/π).

    The first strictly exceeds the second, by the universal factor
    π/(2√2) ≈ 1.1107: probing the idler at κ = Δ compensates a phase
    mismatch slightly better than first-order QPM does.
    """
    gamma = _require("gamma", gamma)
    if gamma <= 0.0:
        raise DomainError("qpm comparison requires gamma > 0")
    return gamma / _SQRT2, 2.0 * gamma / math.pi


def resonant_vs_qpm(
    gamma: float, delta: float, lengths: "NDArray[np.float64] | list[float]"
) -> dict[str, NDArray[np.float64]]:
    """Empirical finite-length comparison at the κ = Δ resonance.

    Returns the exact resonant signal occupation, the QPM-model value
    sinh²(2ΓL/π), and the matched dressed-channel value sinh²(ΓL/√2) on the
    given length grid, all lengths in one stacked dressed-frame propagation;
    a length at which it is not finite raises NumericError.
    Sampled checks (Γ = 0.5, Δ ∈ {3, 5, 8}, L <= 3) show the resonant curve
    above the QPM model at every length, not only asymptotically; this helper
    exists so that claim stays checkable.
    """
    gamma = _require("gamma", gamma)
    delta = _require("delta", delta, nonnegative=False)
    ls = np.array([_require("length", L) for L in np.asarray(lengths, dtype=np.float64)])
    _, v = _dressed_blocks(gamma, abs(delta), delta, ls)
    resonant = occupation_numbers(v)[:, 0]
    return {
        "lengths": ls,
        "resonant": resonant,
        "qpm_model": np.sinh(2.0 * gamma * ls / math.pi) ** 2,
        "matched_channel": np.sinh(gamma * ls / _SQRT2) ** 2,
    }
