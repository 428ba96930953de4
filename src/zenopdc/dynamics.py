"""Exact and ODE propagation of the three-mode coupler in the Heisenberg picture.

The linearized equations of motion for the interaction-picture operators read

    d/dt a_s = -i Γ a_i† e^{iΔt}
    d/dt a_i = -i Γ a_s† e^{iΔt} - i κ b
    d/dt b   = -i κ a_i

Rotating every mode by e^{-iΔt/2} removes the explicit time dependence: the
vector v = (A_s†, A_i, B) of rotated operators obeys dv/dt = i M v with the
constant real generator

    M = [[ Δ/2,   Γ,    0  ],
         [ -Γ,  -Δ/2,  -κ  ],
         [  0,   -κ,  -Δ/2 ]].

``propagate_exact`` exponentiates M with :func:`expm_i`, the package's one
matrix-exponential kernel, and reattaches the frame phases e^{∓iΔL/2}, so the
returned map refers to the original (unrotated) operators.
``propagate_ode`` integrates the time-dependent system directly, with no
rotating frame, and serves as an independent numerical oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray
from scipy import linalg as sla

from .params import (
    CouplerParams,
    IntegrationError,
    InvalidParameterError,
    NumericError,
)

#: Mode order used by every map in this package: signal, idler, probe.
MODES = ("s", "i", "b")


@dataclass(frozen=True)
class BogoliubovMap:
    """Linear input-output map  a_out = U a_in + V a_in†  for the mode vector.

    ``u_block`` and ``v_block`` are 3x3 complex matrices over ``modes``
    (default signal/idler/probe).  A physical map satisfies
    U U† - V V† = I and U Vᵀ symmetric; see :func:`check_symplectic`.
    ``params`` records the generating parameters so that maps can be chained
    with the correct frame-phase bookkeeping (:func:`compose`).
    """

    u_block: NDArray[np.complex128]
    v_block: NDArray[np.complex128]
    params: CouplerParams
    modes: tuple[str, ...] = MODES


@dataclass(frozen=True)
class ModeOccupations:
    """Vacuum-input photon numbers per mode (clamped at zero in reporting)."""

    n_s: float
    n_i: float
    n_b: float


def build_generator(params: CouplerParams) -> NDArray[np.float64]:
    """Return the constant rotating-frame generator M as a real 3x3 array.

    The row/column order is the operator vector (a_s†, a_i, b); the rotated
    vector evolves as dv/dt = i M v.  Parameter validation happens when the
    ``CouplerParams`` instance is constructed.
    """
    g, k, half_d = params.gamma, params.kappa, 0.5 * params.delta
    return np.array(
        [
            [half_d, g, 0.0],
            [-g, -half_d, -k],
            [0.0, -k, -half_d],
        ]
    )


def expm_i(m: NDArray[np.float64], t: float) -> NDArray[np.complex128]:
    """exp(i m t) for a real 3x3 generator, by scaling-and-squaring Padé.

    Unlike an eigendecomposition it needs no switch near the defective set,
    where two roots of the characteristic cubic coalesce (κ = Γ at Δ = 0,
    |Δ| = 2Γ at κ = 0).  Entries that overflow float64 raise NumericError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = sla.expm(1j * t * m)
    if not np.all(np.isfinite(out)):
        raise NumericError(
            f"matrix exponential produced non-finite entries for t={t!r}"
        )
    return out


def _frame_phases(params: CouplerParams) -> NDArray[np.complex128]:
    """Diagonal of the frame restoration: e^{-iΔL/2} on row s†, e^{+iΔL/2} on i, b."""
    half = 0.5 * params.delta * params.length
    return np.array([np.exp(-1j * half), np.exp(1j * half), np.exp(1j * half)])


def map_from_transfer(
    w: NDArray[np.complex128], params: CouplerParams, modes: tuple[str, ...] = MODES
) -> BogoliubovMap:
    """Split the transfer matrix on (a_s†, a_i, b) into annihilation-basis blocks.

    Row 0 of ``w`` propagates a creation operator, so its conjugate supplies
    the signal row of U (diagonal part) and V (cross terms); rows 1-2
    propagate annihilation operators directly.
    """
    u = np.zeros((3, 3), dtype=np.complex128)
    v = np.zeros((3, 3), dtype=np.complex128)
    u[0, 0] = np.conj(w[0, 0])
    u[1:, 1:] = w[1:, 1:]
    v[0, 1:] = np.conj(w[0, 1:])
    v[1:, 0] = w[1:, 0]
    u.setflags(write=False)
    v.setflags(write=False)
    return BogoliubovMap(u_block=u, v_block=v, params=params, modes=modes)


def propagate_exact(params: CouplerParams) -> BogoliubovMap:
    """Propagate through length L by exponentiating the rotating-frame generator.

    Returns the Bogoliubov map for the original-frame operators: the rotated
    propagator exp(i M L) is computed first and the frame phases e^{∓iΔL/2}
    are then reattached row-wise.
    """
    m = build_generator(params)
    w = _frame_phases(params)[:, None] * expm_i(m, params.length)
    return map_from_transfer(w, params)


def propagate_ode(params: CouplerParams, step_tolerance: float = 1e-10) -> BogoliubovMap:
    """Independent oracle: integrate the time-dependent system directly.

    The transfer matrix on (a_s†, a_i, b) obeys dW/dt = C(t) W with

        C(t) = [[0, iΓe^{-iΔt}, 0], [-iΓe^{iΔt}, 0, -iκ], [0, -iκ, 0]],

    integrated column-by-column in the 6-dimensional real representation
    (real and imaginary parts interleaved) by an adaptive 4th/5th-order
    embedded Runge-Kutta pair.  No rotating frame is used, so this path
    shares no derivation step with :func:`propagate_exact`.

    ``step_tolerance`` is the accuracy request for the returned map; the
    integrator runs at rtol = atol = step_tolerance/20 so that accumulated
    global error stays within the documented 10x agreement contract.
    """
    tol = float(step_tolerance)
    if not math.isfinite(tol) or tol <= 0.0:
        raise InvalidParameterError(f"step_tolerance must be > 0, got {step_tolerance!r}")
    if params.length == 0.0:
        return map_from_transfer(np.eye(3, dtype=np.complex128), params)

    from scipy.integrate import solve_ivp  # the oracle alone pays this import

    g, k, d = params.gamma, params.kappa, params.delta

    def rhs(t: float, y: NDArray[np.float64]) -> NDArray[np.float64]:
        w = y.view(np.complex128).reshape(3, 3)
        ph = np.exp(1j * d * t)
        c = np.array(
            [
                [0.0, 1j * g / ph, 0.0],
                [-1j * g * ph, 0.0, -1j * k],
                [0.0, -1j * k, 0.0],
            ]
        )
        return (c @ w).ravel().view(np.float64)

    y0 = np.eye(3, dtype=np.complex128).ravel().view(np.float64).copy()
    sol = solve_ivp(rhs, (0.0, params.length), y0, method="RK45", rtol=tol / 20.0, atol=tol / 20.0)
    if not sol.success:
        raise IntegrationError(f"adaptive integrator failed: {sol.message}")
    w = sol.y[:, -1].copy().view(np.complex128).reshape(3, 3)
    return map_from_transfer(w, params)


def vacuum_occupations(bmap: BogoliubovMap) -> ModeOccupations:
    """Photon numbers for vacuum input: n_α = Σ_β |V_{αβ}|².

    A map can have finite entries whose squares overflow float64 (gain·length
    far beyond the supported range); that is reported as NumericError rather
    than returned as inf.
    """
    with np.errstate(over="ignore"):
        n = np.sum(np.abs(bmap.v_block) ** 2, axis=1)
    if not np.all(np.isfinite(n)):
        raise NumericError(
            "vacuum occupations overflow float64; gain*length is beyond the "
            "representable range"
        )
    return ModeOccupations(*(max(0.0, float(x)) for x in n))


def check_symplectic(bmap: BogoliubovMap) -> float:
    """Max-norm residual of the two symplectic identities of the map.

    Returns max(‖U U† - V V† - I‖_max, ‖U Vᵀ - (U Vᵀ)ᵀ‖_max); a physical map
    satisfies both identities, so the residual is pure numerical error.
    """
    u, v = bmap.u_block, bmap.v_block
    r1 = np.max(np.abs(u @ u.conj().T - v @ v.conj().T - np.eye(3)))
    a = u @ v.T
    r2 = np.max(np.abs(a - a.T))
    return float(max(r1, r2))


def compose(second: BogoliubovMap, first: BogoliubovMap) -> BogoliubovMap:
    """Chain two maps of the same device: ``first`` over L1, then ``second`` over L2.

    Because the original-frame equations are explicitly time dependent, the
    second leg must be conjugated by the frame phase accumulated over the
    first leg before the blocks are multiplied; for this device the whole
    conjugation reduces to the scalar e^{iΔL1} on the V block.  The result
    equals ``propagate_exact`` at length L1+L2 to machine precision.
    """
    p1, p2 = first.params, second.params
    if (p1.gamma, p1.kappa, p1.delta) != (p2.gamma, p2.kappa, p2.delta):
        raise InvalidParameterError(
            "compose requires both maps to come from the same (gamma, kappa, delta)"
        )
    if first.modes != second.modes:
        raise InvalidParameterError("compose requires identical mode bases")
    phase = np.exp(1j * p1.delta * p1.length)
    u1, v1 = first.u_block, first.v_block
    u2, v2 = second.u_block, second.v_block
    u = u2 @ u1 + phase * (v2 @ np.conj(v1))
    v = u2 @ v1 + phase * (v2 @ np.conj(u1))
    u.setflags(write=False)
    v.setflags(write=False)
    total = replace(p1, length=p1.length + p2.length)
    return BogoliubovMap(u_block=u, v_block=v, params=total, modes=first.modes)
