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
independent route to the same occupations; only the kernel
``dynamics.expm_i``, the step ``dynamics.propagate_step`` (``n`` and its
finiteness rule) and, for the map alone, ``dynamics.transfer`` (the signal's
phase factor e^{-iΔL} and the (c, d) pair's factor 1) are shared.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import (
    BogoliubovMap,
    ModeOccupations,
    expm_i,
    propagate_step,
    split_transfer,
    transfer,
)
from .params import CouplerParams, DomainError, InvalidParameterError, require_ok, valid_cells
from .params import require_finite as _require

if TYPE_CHECKING:
    from numpy.typing import NDArray

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


def _dressed_step(gamma: float, kappa: float, delta: float, length):
    """Dressed-frame exponent on (s, c, d) and its occupations, stacked over ``length``.

    A cell that is not finite raises NumericError.
    """
    e = expm_i(build_dressed_generator(gamma, kappa, delta), length)
    n, ok = propagate_step(e)
    require_ok(ok, "dressed propagation")
    return e, n


def dressed_bogoliubov_map(params: CouplerParams) -> BogoliubovMap:
    """Full Bogoliubov map over (s, c, d) in the original interaction picture.

    The dressed rotating frame is unwound mode-wise: the e^{∓iκt} phases on
    (c, d) cancel exactly against their dressed energy shifts, so only the
    signal row needs the factor e^{-iΔL}.
    """
    e, _ = _dressed_step(params.gamma, params.kappa, params.delta, params.length)
    signal = np.exp(1j * (-params.delta * np.asarray(params.length)))
    return BogoliubovMap(*split_transfer(transfer(e, signal, 1.0)), params, modes=DRESSED_MODES)


def propagate_dressed(params: CouplerParams) -> ModeOccupations:
    """Vacuum occupations of (s, i, b) computed via the dressed channels.

    The bare-mode numbers follow from the dressed ones and the coherence
    between the channels:

        n_i = (n_c + n_d)/2 + Re<c†d>,   n_b = (n_c + n_d)/2 - Re<c†d>,

    with <c†d> = Σ_β conj(V_cβ) V_dβ = conj(e_c0)·e_d0 for vacuum input: the
    frame's factor on the (c, d) rows is exactly 1, so no W is formed.
    """
    e, n = _dressed_step(params.gamma, params.kappa, params.delta, params.length)
    n_s, n_c, n_d = map(float, n)
    coherence = float((np.conj(e[1, :1]) * e[2, :1]).real[0])  # arrays: scalars round otherwise
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
    *_, ls, ok = valid_cells(gamma, 0.0, delta, lengths)
    if not np.all(ok):
        raise InvalidParameterError(f"lengths must be finite and >= 0, got {lengths!r}")
    _, n = _dressed_step(gamma, abs(delta), delta, ls)
    return {
        "lengths": ls,
        "resonant": n[..., 0],
        "qpm_model": np.sinh(2.0 * gamma * ls / math.pi) ** 2,
        "matched_channel": np.sinh(gamma * ls / _SQRT2) ** 2,
    }
