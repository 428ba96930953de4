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

``propagate_batch`` takes arrays of (Γ, κ, Δ, L), stacks one generator per
cell, exponentiates the whole stack with one call of :func:`expm_i`, the
package's one matrix-exponential kernel, and reattaches the frame phases
e^{∓iΔL/2}, so the returned blocks refer to the original (unrotated)
operators.  ``propagate_exact`` is its single-cell case and wraps the result
in a :class:`BogoliubovMap`.  ``propagate_ode`` integrates the time-dependent
system directly, with no rotating frame, and serves as an independent
numerical oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .params import (
    CouplerParams,
    IntegrationError,
    InvalidParameterError,
    NumericError,
)

#: Mode order used by every map in this package: signal, idler, probe.
MODES = ("s", "i", "b")

#: Accuracy request of the ODE oracle :func:`propagate_ode` for its map.
ODE_TOLERANCE = 1e-10

#: Frame-phase exponents per row of (a_s†, a_i, b), in units of ΔL/2.
_FRAME_SIGNS = np.array([-1j, 1j, 1j])

#: Padé [13/13] coefficients b_0 … b_13 of exp (Higham 2005, eq. 2.11).
_PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
#: The pairs (b_{2k+1}, b_{2k}) for k = 0 … 6, shaped to broadcast over the stacked
#: pair (W, V) of Padé polynomials in A², so one expression evaluates both.
_PADE_PAIRS = np.array(_PADE_13).reshape(7, 2)[:, ::-1].reshape(7, 2, 1, 1, 1)
#: Largest 1-norm for which Padé [13/13] meets double precision unscaled (Higham 2005, Table 2.3).
_THETA_13 = 5.371920351148152
#: Most squarings that leave a significant digit: each doubles the rounding error,
#: and 2^s·u >= 1 for the unit roundoff u = 2^-53 once s exceeds the mantissa bits.
_MAX_SQUARINGS = np.finfo(np.float64).nmant


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
    return _generators(params.gamma, params.kappa, params.delta)


def _generators(gamma, kappa, delta) -> NDArray[np.float64]:
    """Generators M stacked over the broadcast shape of the three rates."""
    g, k, half_d = np.asarray(gamma), np.asarray(kappa), 0.5 * np.asarray(delta)
    m = np.zeros(np.broadcast_shapes(g.shape, k.shape, half_d.shape) + (3, 3))
    m[..., 0, 0] = half_d
    m[..., 0, 1] = g
    m[..., 1, 0] = -g
    m[..., 1, 1] = -half_d
    m[..., 1, 2] = -k
    m[..., 2, 1] = -k
    m[..., 2, 2] = -half_d
    return m


def expm_i(m: NDArray[np.float64], t) -> NDArray[np.complex128]:
    """exp(i m t) for a real 3x3 generator or a stack (..., 3, 3) of them.

    ``t`` broadcasts over the stack.  This is scaling and squaring with one
    Padé [13/13] approximant (Higham 2005), vectorized over the stack: each
    matrix A = i m t gets its own scaling 2^-s with s = max(0, ⌈log2(‖A‖₁/θ₁₃)⌉),
    so a matrix comes out bitwise as it would from a call on it alone.
    Unlike an eigendecomposition it needs no switch near the defective set,
    where two roots of the characteristic cubic coalesce (κ = Γ at Δ = 0,
    |Δ| = 2Γ at κ = 0).  A matrix whose 1-norm is not finite, or that needs
    more than 52 squarings (‖A‖₁ > 2^52·θ₁₃ ≈ 2.4e16) and so keeps no
    significant digit, comes back NaN; one whose entries overflow float64
    comes back non-finite.  Neither raises or warns, and callers check.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        b = np.asarray(t)[..., None, None] * m  # A = i b with b real
        shape = b.shape
        b = b.reshape(-1, 3, 3)
        norm = np.abs(b).sum(axis=-2).max(axis=-1)
        s = np.ceil(np.log2(norm / _THETA_13)).clip(0)
        bad = ~(s <= _MAX_SQUARINGS)  # also a norm that is inf or NaN
        b[bad] = 0.0  # a zero generator keeps the solve clean; blanked below
        s[bad] = 0.0
        s = s.astype(np.intp)
        b = np.ldexp(b, -s[:, None, None])
        # A = i b is purely imaginary, so A², A⁴, A⁶ and the even part V are real,
        # and the odd part is U = i b W with W real.  Then exp(A) ≈ (V - U)⁻¹(V + U).
        a2 = -(b @ b)
        a4 = a2 @ a2
        a6 = a4 @ a2
        c = _PADE_PAIRS
        inner = c[6] * a6 + c[5] * a4 + c[4] * a2
        w, v = a6 @ inner + c[3] * a6 + c[2] * a4 + c[1] * a2 + c[0] * np.eye(3)
        u = 1j * (b @ w)
        r = np.linalg.solve(v - u, v + u)
        for j in range(s.max(initial=0)):
            todo = np.flatnonzero(s > j)
            r_j = r[todo]
            r[todo] = r_j @ r_j
    r[bad] = np.nan
    return r.reshape(shape)


def _transfer(gamma, kappa, delta, length) -> NDArray[np.complex128]:
    """Original-frame transfer matrices on (a_s†, a_i, b), stacked over the inputs.

    The rotated propagator exp(i M L) is computed first; the frame phases
    e^{-iΔL/2} (row s†) and e^{+iΔL/2} (rows i, b) are then reattached.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(np.multiply.outer(0.5 * np.asarray(delta) * length, _FRAME_SIGNS))
        return phases[..., :, None] * expm_i(_generators(gamma, kappa, delta), length)


def split_transfer(
    w: NDArray[np.complex128],
) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """Split transfer matrices on (a_s†, a_i, b) into annihilation-basis (U, V) blocks.

    Works on one 3x3 matrix or a stack.  Row 0 of ``w`` propagates a creation
    operator, so its conjugate supplies the signal row of U (diagonal part)
    and V (cross terms); rows 1-2 propagate annihilation operators directly.
    """
    u = np.zeros_like(w)
    v = np.zeros_like(w)
    u[..., 0, 0] = np.conj(w[..., 0, 0])
    u[..., 1:, 1:] = w[..., 1:, 1:]
    v[..., 0, 1:] = np.conj(w[..., 0, 1:])
    v[..., 1:, 0] = w[..., 1:, 0]
    return u, v


def map_from_transfer(
    w: NDArray[np.complex128], params: CouplerParams, modes: tuple[str, ...] = MODES
) -> BogoliubovMap:
    """Wrap one 3x3 transfer matrix as a write-protected :class:`BogoliubovMap`."""
    u, v = split_transfer(w)
    u.setflags(write=False)
    v.setflags(write=False)
    return BogoliubovMap(u_block=u, v_block=v, params=params, modes=modes)


def _real_array(name: str, values) -> NDArray[np.float64]:
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":  # bools, complex, strings, objects
        raise InvalidParameterError(f"{name} must be real numbers, got dtype {array.dtype}")
    return array.astype(np.float64)


def propagate_batch(gamma, kappa, delta, length):
    """Propagate every cell of the broadcast (Γ, κ, Δ, L) arrays in one stacked call.

    Returns ``(u, v, ok)``: the stacked Bogoliubov blocks, shape
    ``broadcast + (3, 3)``, and a boolean mask of that broadcast shape.  A cell
    is valid when, as :class:`CouplerParams` requires, its four values are
    finite and Γ, κ, L >= 0.  An invalid cell, or one whose exponential or
    vacuum occupations are not finite, gets ``ok = False`` and NaN blocks;
    nothing is raised for it.  Every valid cell is bit-identical to
    :func:`propagate_exact` on the same values.
    """
    g, k, d, t = np.broadcast_arrays(*(
        _real_array(name, x)
        for name, x in (("gamma", gamma), ("kappa", kappa), ("delta", delta), ("length", length))
    ))
    ok = np.isfinite(g) & np.isfinite(k) & np.isfinite(d) & np.isfinite(t)
    ok &= (g >= 0.0) & (k >= 0.0) & (t >= 0.0)
    # An invalid cell propagates the zero generator over L = 0 (W = I) and is blanked below.
    g, k, d, t = (np.where(ok, x, 0.0) for x in (g, k, d, t))
    w = _transfer(g, k, d, t)
    u, v = split_transfer(w)
    ok &= np.isfinite(w).all(axis=(-2, -1)) & np.isfinite(occupation_numbers(v)).all(axis=-1)
    u[~ok] = np.nan
    v[~ok] = np.nan
    return u, v, ok


def propagate_exact(params: CouplerParams) -> BogoliubovMap:
    """Propagate through length L by exponentiating the rotating-frame generator.

    The single-cell case of :func:`propagate_batch`, through the same
    kernel.  Returns the Bogoliubov map for the original-frame operators; a
    non-finite exponential raises NumericError.
    """
    w = _transfer(params.gamma, params.kappa, params.delta, params.length)
    if not np.all(np.isfinite(w)):
        raise NumericError(
            f"matrix exponential produced non-finite entries for t={params.length!r}"
        )
    return map_from_transfer(w, params)


def propagate_ode(params: CouplerParams) -> BogoliubovMap:
    """Independent oracle: integrate the time-dependent system directly.

    The transfer matrix on (a_s†, a_i, b) obeys dW/dt = C(t) W with

        C(t) = [[0, iΓe^{-iΔt}, 0], [-iΓe^{iΔt}, 0, -iκ], [0, -iκ, 0]],

    integrated column-by-column in the 6-dimensional real representation
    (real and imaginary parts interleaved) by an adaptive 4th/5th-order
    embedded Runge-Kutta pair.  No rotating frame is used, so this path
    shares no derivation step with :func:`propagate_exact`.

    ``ODE_TOLERANCE`` is the accuracy request for the returned map; the
    integrator runs at rtol = atol = ODE_TOLERANCE/20 so that accumulated
    global error stays within the documented 10x agreement contract.
    """
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
    rtol = ODE_TOLERANCE / 20.0
    sol = solve_ivp(rhs, (0.0, params.length), y0, method="RK45", rtol=rtol, atol=rtol)
    if not sol.success:
        raise IntegrationError(f"adaptive integrator failed: {sol.message}")
    w = sol.y[:, -1].copy().view(np.complex128).reshape(3, 3)
    return map_from_transfer(w, params)


def occupation_numbers(v: NDArray[np.complex128]) -> NDArray[np.float64]:
    """n_α = Σ_β |V_αβ|² per row of one V block or a stack; overflow gives inf."""
    with np.errstate(over="ignore"):
        return np.sum(np.abs(v) ** 2, axis=-1)


def vacuum_occupations(bmap: BogoliubovMap) -> ModeOccupations:
    """Photon numbers for vacuum input: n_α = Σ_β |V_{αβ}|².

    A map can have finite entries whose squares overflow float64 (gain·length
    far beyond the supported range); that is reported as NumericError rather
    than returned as inf.
    """
    n = occupation_numbers(bmap.v_block)
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


def __getattr__(name: str):
    # Exists only for the frozen benchmark tracer (perfbench/tracer.py), which
    # wraps ``dynamics.sla.expm``; delete it with the benchmark refresh that
    # hooks the tracer on ``expm_i`` (ROADMAP, "Refresh the benchmark").
    if name == "sla":
        from scipy import linalg

        return linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
