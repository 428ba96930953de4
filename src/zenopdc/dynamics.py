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

Every exact route ends in one :func:`propagate_step`: exponents exp(i M L)
from :func:`expm_i` (the package's one matrix-exponential kernel) and per-row
frame phase factors in, ``(w, n, ok)`` out: W, its vacuum occupations ``n``
and the one finiteness rule ``ok`` (finite W and ``n``).  One-cell routes split W.
:func:`expm_i` works on planes, one contiguous (3, 3, n) array per stack,
so each 3×3 product, the closed-form Padé solve adj(D)·conj(D)/det(D) and
each masked squaring is a handful of elementwise numpy calls over all cells.
:func:`params.require_ok` raises on a failed mask, and a :class:`BogoliubovMap`
write-protects its blocks itself.  ``propagate_batch`` runs the frame above (phases
e^{∓iΔL/2}, one exponential per cell) over arrays of (Γ, κ, Δ, L),
``propagate_exact`` is one cell of it, and ``dressed`` runs its own frame
through the same step.  ``propagate_lengths`` runs the same frame over a
uniform length grid of one generator, each sample the product of two kernel
outputs (semigroup law), all formed in one complex matrix product.
``propagate_ode`` is the independent numerical oracle: a numpy-only
Dormand–Prince 5(4) pair integrates the time-dependent system directly, with
no rotating frame and no matrix exponential, over t/L ∈ [0, 1].  It advances
a stack of cells in lockstep (``propagate_ode`` is the one-cell case), and a
phase limit and a step budget bound its work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .params import (
    CouplerParams,
    IntegrationError,
    InvalidParameterError,
    require_count,
    require_ok,
    valid_cells,
)

if TYPE_CHECKING:
    from numpy.typing import NDArray

#: Mode order used by every map in this package: signal, idler, probe.
MODES = ("s", "i", "b")

#: Accuracy request of the ODE oracle :func:`propagate_ode` for its map.
ODE_TOLERANCE = 1e-10
#: Largest phase max(Γ, κ, |Δ|)·L the ODE oracle integrates: its steps must resolve
#: every oscillation, so its cost grows with the phase, to seconds at 1e3, while the
#: supported range ends at 30.
ODE_PHASE_LIMIT = 1e3

#: Dormand–Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6, 1980): the
#: stage nodes c, the stage rows a (row 6 holds the fifth-order weights, so stage 7
#: is the derivative at the new state and the next step's stage 1) and the error
#: weights of the fifth- minus the embedded fourth-order solution.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
#: Step-size controller (Hairer, Nørsett & Wanner, §II.4): the next step is the last
#: one times SAFETY·err^(-1/5), clipped to [MIN_FACTOR, MAX_FACTOR].
_DP_SAFETY, _DP_MIN_FACTOR, _DP_MAX_FACTOR = 0.9, 0.2, 10.0
#: Most steps, accepted or rejected, one ODE integration takes before it raises: 200 per
#: unit of the phase limit, three times the most a phase needs (≈63 per unit, measured at
#: (Γ, κ, Δ)·L = (300, 1e3, 1e3)).
_ODE_STEP_BUDGET = 200 * int(ODE_PHASE_LIMIT)

#: Padé [13/13] coefficients b_0 … b_13 of exp (Higham 2005, eq. 2.11).
_PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
#: The pairs (b_{2k+1}, b_{2k}) for k = 0 … 6, shaped to broadcast over the stacked
#: pair (W, V) of Padé polynomials in A² on planes, so one expression evaluates both.
_PADE_PAIRS = np.array(_PADE_13).reshape(7, 2)[:, ::-1].reshape(7, 2, 1, 1, 1)
#: The 3×3 identity as planes, shape (3, 3, 1), broadcasting over the cells.
_IDENTITY = np.eye(3)[..., None]
#: Index planes of the adjugate, indices mod 3:
#: adj(D)[i, j] = D[j+1, i+1]·D[j+2, i+2] - D[j+1, i+2]·D[j+2, i+1].
_R1, _C1 = (np.indices((3, 3))[::-1] + 1) % 3
_R2, _C2 = (np.indices((3, 3))[::-1] + 2) % 3
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
    with the correct frame-phase bookkeeping (:func:`compose`).  Construction
    write-protects both blocks, copying first a block that views another array.
    """

    u_block: NDArray[np.complex128]
    v_block: NDArray[np.complex128]
    params: CouplerParams
    modes: tuple[str, ...] = MODES

    def __post_init__(self) -> None:
        for name in ("u_block", "v_block"):
            if getattr(self, name).base is not None:
                object.__setattr__(self, name, getattr(self, name).copy())
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True)
class ModeOccupations:
    """Vacuum-input photon numbers per mode."""

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
    """Generators M for three rate arrays of one shape, stacked over it as a (..., 3, 3) view."""
    g, k, half_d = np.asarray(gamma), np.asarray(kappa), 0.5 * np.asarray(delta)
    zero = np.zeros(g.shape)
    m = np.array([[half_d, g, zero], [-g, -half_d, -k], [zero, -k, -half_d]])
    return m.transpose(*range(2, m.ndim), 0, 1)  # planes (3, 3, ...) viewed as (..., 3, 3)


def _mul(x, y):
    """Matrix products x·y on planes: x is (3, 3, n), y is (..., 3, 3, n)."""
    return (x[:, :, None] * y[..., None, :, :, :]).sum(axis=-3)


def expm_i(m: NDArray[np.float64], t) -> NDArray[np.complex128]:
    """exp(i m t) for a real 3x3 generator or a stack (..., 3, 3) of them.

    ``t`` broadcasts over the stack.  This is scaling and squaring with one
    Padé [13/13] approximant (Higham 2005), vectorized over the stack: each
    matrix A = i m t gets its own scaling 2^-s with s = max(0, ⌈log2(‖A‖₁/θ₁₃)⌉).
    The stack is laid out as planes, one contiguous (3, 3, n) array whose entry
    [i, j] is a row over the n cells, so every step is an elementwise numpy
    call and a matrix comes out bitwise as it would from a call on it alone.
    The Padé solve is a closed form: A is purely imaginary, so the even part V
    and U/i are real, the numerator V + U is the conjugate of the denominator
    D = V - U, and exp(A) ≈ D⁻¹·conj(D) = adj(D)·conj(D)/det(D).  Each squaring
    runs on the whole stack and keeps the product only where s is not used up.
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
        b = np.ascontiguousarray(b.reshape(-1, 9).T).reshape(3, 3, -1)
        s = np.ceil(np.log2(np.abs(b).sum(axis=0).max(axis=0) / _THETA_13)).clip(0)
        fit = s <= _MAX_SQUARINGS  # False also for a norm that is inf or NaN
        s = np.where(fit, s, 0.0).astype(np.intp)
        # A NaN scale makes every entry of a rejected cell NaN, and only of that cell.
        b = b * np.where(fit, np.ldexp(1.0, -s), np.nan)
        # A = i b is purely imaginary, so A², A⁴, A⁶ and the even part V are real,
        # and the odd part is U = i b W with W real.
        a2 = -_mul(b, b)
        a4 = _mul(a2, a2)
        a6 = _mul(a4, a2)
        c = _PADE_PAIRS
        inner = c[6] * a6 + c[5] * a4 + c[4] * a2
        w, v = _mul(a6, inner) + c[3] * a6 + c[2] * a4 + c[1] * a2 + c[0] * _IDENTITY
        d = v - 1j * _mul(b, w)
        adj = d[_R1, _C1] * d[_R2, _C2] - d[_R1, _C2] * d[_R2, _C1]
        det = (d[0] * adj[:, 0]).sum(axis=0)  # expanded along row 0
        r = _mul(adj, d.conj()) / det  # (V - U)⁻¹(V + U), as V + U = conj(D)
        for j in range(s.max(initial=0)):
            r = np.where(s > j, _mul(r, r), r)
    return np.ascontiguousarray(r.reshape(9, -1).T).reshape(shape)


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


def propagate_step(e: NDArray[np.complex128], phases):
    """The one exact propagation step: the transfer matrix W = diag(phases) · e.

    ``e`` is the rotating-frame exponent exp(i m L) of one generator or a
    stack (..., 3, 3), from :func:`expm_i` or :func:`propagate_lengths`, and
    ``phases`` the frame phase factors e^{iθ} per row, shape ``stack + (3,)``.  Returns
    stacked ``(w, n, ok)``: ``n`` holds the occupations, read from the four
    V entries of W, and ``ok`` marks the cells whose W and ``n`` are finite.
    Nothing raises or warns for the others.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.asarray(phases)[..., :, None] * e
        n = np.abs(w[..., (0, 1, 2), (1, 0, 0)]) ** 2  # |W01|², |W10|², |W20|²
        n[..., 0] += np.abs(w[..., 0, 2]) ** 2  # n_s = |W01|² + |W02|²
    ok = np.isfinite(w).all(axis=(-2, -1)) & np.isfinite(n).all(axis=-1)
    return w, n, ok


def _frame_phases(delta, length):
    """(e^{-ih}, e^{ih}, e^{ih}) per cell with h = ΔL/2, from one exponential; never warns."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.exp(1j * (0.5 * delta * length))[..., None]
    return np.concatenate((p.conj(), p, p), axis=-1)


def propagate_batch(gamma, kappa, delta, length):
    """Propagate every cell of the broadcast (Γ, κ, Δ, L) arrays in one stacked call.

    Returns ``(w, n, ok)``: the stacked transfer matrices W, shape
    ``broadcast + (3, 3)``, their vacuum occupations (n_s, n_i, n_b) and a
    boolean mask of the broadcast shape.  A cell that :func:`params.valid_cells`
    rejects, or whose exponential or occupations are not finite, gets
    ``ok = False`` and NaN W and occupations; nothing is raised for it.
    :func:`propagate_exact` is one cell of it.
    """
    # An invalid cell propagates the zero generator over L = 0 (W = I) and is blanked below.
    g, k, d, t, ok = valid_cells(gamma, kappa, delta, length)
    w, n, finite = propagate_step(expm_i(_generators(g, k, d), t), _frame_phases(d, t))
    ok &= finite
    w[~ok] = n[~ok] = np.nan
    return w, n, ok


def propagate_exact(params: CouplerParams) -> BogoliubovMap:
    """Propagate through length L by exponentiating the rotating-frame generator.

    One cell of :func:`propagate_batch`.  Returns the Bogoliubov map for the
    original-frame operators; a cell whose exponential or vacuum occupations
    are not finite raises NumericError.
    """
    w, _, ok = propagate_batch(params.gamma, params.kappa, params.delta, params.length)
    require_ok(ok, "exact propagation")
    return BogoliubovMap(*split_transfer(w), params)


def propagate_lengths(gamma: float, kappa: float, delta: float, length_max: float, samples: int):
    """Propagate one (Γ, κ, Δ) over the lengths ``np.linspace(0, length_max, samples)``.

    The grid comes from the semigroup law exp(iM(a+b)) = exp(iMa)·exp(iMb):
    with the spacing h, b = ⌊√(samples−1)⌋ + 1 and sample k = q·b + j, one
    :func:`expm_i` call exponentiates the b fine lengths j·h and the
    ⌈samples/b⌉ coarse lengths q·b·h (50 lengths for 601 samples), and all
    coarse·fine 3×3 products are one complex matrix product with inner
    dimension 3.  Each sample is the product of exactly two kernel outputs,
    so its rounding error does not grow along the grid as it would by
    stepping.  The frame phases are those of :func:`propagate_batch`.
    Returns the ``(w, n, ok)`` of :func:`propagate_step`, stacked over the
    samples; a sample that is not finite gets ``ok = False`` and raises
    nothing.  The rates and ``length_max`` are validated as one
    :class:`CouplerParams`, so a bad ``length_max`` is reported as ``length``;
    that, or a ``samples`` that is not an int >= 1, raises InvalidParameterError.
    """
    p = CouplerParams(gamma, kappa, delta, length_max)
    b = math.isqrt(require_count("samples", samples, 1) - 1) + 1
    steps = np.concatenate([np.arange(b), b * np.arange(-(-samples // b))])
    e = expm_i(build_generator(p), steps * (p.length / max(samples - 1, 1)))
    with np.errstate(over="ignore", invalid="ignore"):  # rows (q, i), columns (j, l)
        grid = e[b:].reshape(-1, 3) @ e[:b].transpose(1, 0, 2).reshape(3, -1)
    grid = grid.reshape(-1, 3, b, 3).swapaxes(1, 2).reshape(-1, 3, 3)[:samples]
    return propagate_step(grid, _frame_phases(p.delta, np.linspace(0.0, p.length, samples)))


def propagate_ode(params: CouplerParams) -> BogoliubovMap:
    """Independent oracle: integrate the time-dependent system directly.

    The transfer matrix on (a_s†, a_i, b) obeys dW/dt = C(t) W with

        C(t) = [[0, iΓe^{-iΔt}, 0], [-iΓe^{iΔt}, 0, -iκ], [0, -iκ, 0]],

    integrated from W(0) = I by the numpy Dormand–Prince 5(4) pair of
    :func:`_ode_transfer`, as the one-cell case of its lockstep stack.  No
    rotating frame, no matrix exponential and no :func:`propagate_step` is
    used, so this path shares no derivation step with :func:`propagate_exact`.
    Its cost grows with the phase max(Γ, κ, |Δ|)·L, so a phase above
    ``ODE_PHASE_LIMIT`` raises IntegrationError before integrating, and a
    step budget bounds the work below it.

    ``ODE_TOLERANCE`` is the accuracy request for the returned map; the
    integrator runs at rtol = atol = ODE_TOLERANCE/20 so that accumulated
    global error stays within the documented 10x agreement contract.
    """
    rates = (np.array([rate * params.length]) for rate in (params.gamma, params.kappa, params.delta))
    return BogoliubovMap(*split_transfer(_ode_transfer(*rates)[0]), params)


def _ode_transfer(g, k, d) -> NDArray[np.complex128]:
    """W(1) of dW/dτ = C(τ) W, W(0) = I, for a stack of cells advanced in lockstep.

    ``g``, ``k`` and ``d`` are the dimensionless rates ΓL, κL and ΔL, shape
    ``(n,)``, and τ = t/L runs over [0, 1], so huge rates over tiny lengths
    stay away from the edge of float64.  Each step of the Dormand–Prince 5(4)
    pair takes one ``np.exp`` for the seven stage phases, and its size comes
    from the worst cell's RMS error norm over the real and imaginary parts
    (Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.4).  Returns the
    ``(n, 3, 3)`` stack of transfer matrices.  Raises IntegrationError when a
    phase exceeds ``ODE_PHASE_LIMIT``, at once on a non-finite state or error
    norm, and when the step budget runs out; nothing warns.
    """
    tol = ODE_TOLERANCE / 20.0
    with np.errstate(all="ignore"):
        phase = np.max(np.abs([g, k, d]), initial=0.0)
        if not phase <= ODE_PHASE_LIMIT:
            raise IntegrationError(
                f"ODE oracle phase max(gamma, kappa, |delta|)*length = {phase:.6g} exceeds "
                f"{ODE_PHASE_LIMIT:g}; use the exact engine"
            )
        ig = 1j * g
        c = np.zeros((7, g.size, 3, 3), dtype=np.complex128)  # C(τ) at the seven stages
        c[..., 1, 2] = c[..., 2, 1] = -1j * k
        c[..., 0, 1], c[..., 1, 0] = ig, -ig
        stages = np.zeros_like(c)
        stages[0] = c[0]  # C(0) W(0) with W(0) = I
        flat = stages.reshape(7, -1)  # a view: one tableau row @ flat sums the stages
        w = np.broadcast_to(np.eye(3, dtype=np.complex128), c.shape[1:]).copy()
        # First step: h·phase = tol^(1/5), where the local error is about tol.
        tau, h, rejected = 0.0, tol**0.2 / max(1.0, phase), False
        for _ in range(_ODE_STEP_BUDGET):
            tau_new = min(tau + h, 1.0)
            h = tau_new - tau
            rot = np.exp(1j * np.multiply.outer(tau + h * _DP_C, d))
            c[..., 0, 1] = ig * rot.conj()
            c[..., 1, 0] = -ig * rot
            for i in range(1, 7):  # stage 7 is evaluated at the new state
                y = w + h * (_DP_A[i, :i] @ flat[:i]).reshape(w.shape)
                np.matmul(c[i], y, out=stages[i])
            err = (h * (_DP_E @ flat)).view(np.float64)
            scale = tol + tol * np.maximum(np.abs(w.view(np.float64)), np.abs(y.view(np.float64)))
            norm = np.sqrt(np.max(np.mean((err.reshape(scale.shape) / scale) ** 2, axis=(1, 2))))
            if not (np.isfinite(norm) and np.isfinite(y).all()):
                raise IntegrationError(
                    f"ODE oracle state is not finite at t/L = {tau:.6g}; "
                    "rate*length is beyond the representable range"
                )
            factor = _DP_SAFETY * norm**-0.2  # inf for a zero norm
            if norm < 1.0:
                tau, w, stages[0] = tau_new, y, stages[6]
                if tau == 1.0:
                    return w
                h *= min(1.0 if rejected else _DP_MAX_FACTOR, factor)
                rejected = False
            else:
                h *= max(_DP_MIN_FACTOR, factor)
                rejected = True
    raise IntegrationError(
        f"ODE oracle used its budget of {_ODE_STEP_BUDGET} steps and reached only "
        f"t/L = {tau:.6g}; use the exact engine"
    )


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
    require_ok(np.isfinite(n), "vacuum occupations")
    return ModeOccupations(*map(float, n))


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
    return BogoliubovMap(u, v, replace(p1, length=p1.length + p2.length), first.modes)


def __getattr__(name: str):
    # Exists only for the frozen benchmark tracer (perfbench/tracer.py), which
    # wraps ``dynamics.sla.expm``; delete it with the benchmark refresh that
    # hooks the tracer on ``expm_i`` (ROADMAP, "Refresh the benchmark").
    if name == "sla":
        from scipy import linalg

        return linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
