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

Every exact route ends in one :func:`propagate_step`: an exponent
exp(i M L) from :func:`expm_i` (the package's one matrix-exponential
kernel) in, ``(n, ok)`` out: the vacuum occupations ``n``, read from the
exponent because the frame's phases have unit modulus, and the one
finiteness rule ``ok`` (finite exponent and ``n``).  Only a caller that
builds a map forms W = diag(first, rest, rest)·e with :func:`transfer`.
:func:`expm_i` works on planes, one contiguous (3, 3, n) array per stack,
so each 3×3 product, the closed-form Padé solve adj(D)·conj(D)/det(D) and
each masked squaring is a handful of numpy calls over all cells, each
writing into planes: a real product is one ``np.einsum``, a complex one its
terms multiplied and summed.  Each thread computes every stack of up to
:data:`STACK_CELLS` cells in one workspace of planes, allocated on its
first kernel call and kept while the thread lives, so no caller allocates
kernel memory and a loop of stacks (a sweep's chunks) faults in none.  The
plane views for a stack size are made on the thread's first call of that
size and kept beside the workspace, so a call of a size seen before builds
no view; no output of the kernel or of a step is such a view.  Every array
of a stacked call stays cell-fastest: the kernel returns a copy of its
result planes seen as a (..., 3, 3) view, and the step writes ``n`` into
cell-fastest memory of its own, so the finiteness rule reduces over the
leading axes of contiguous rows.  :func:`params.require_ok` raises on a
failed mask, and a :class:`BogoliubovMap` write-protects its blocks itself.
``propagate_batch`` runs the step over arrays of (Γ, κ, Δ, L) and
``propagate_lengths`` over a uniform length grid of one generator, each
sample the product of two kernel outputs (semigroup law), all formed in one
complex matrix product; neither forms a frame phase or W.
``propagate_exact`` turns W by the phases e^{∓iΔL/2} of the frame above,
and ``dressed`` runs its own frame through the same step and :func:`transfer`.
``propagate_ode`` is the independent numerical oracle: a numpy-only
Dormand–Prince 5(4) pair integrates the time-dependent system directly, with
no rotating frame and no matrix exponential, over t/L ∈ [0, 1].  It advances
a stack of cells in lockstep (``propagate_ode`` is the one-cell case), and a
phase limit and a step budget bound its work.
"""

from __future__ import annotations

import math
import threading
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
#: The pairs (b_{2k+1}, b_{2k}) for k = 0 … 6, each shaped (2, 1, 1, 1) to broadcast over
#: the stacked pair (W, V) of Padé polynomials in A² on planes, so one expression evaluates both.
_PADE_PAIRS = tuple(np.array(_PADE_13).reshape(7, 2)[:, ::-1].reshape(7, 2, 1, 1, 1))
#: The pair's constant term (b_1·I, b_0·I) as planes, shape (2, 3, 3, 1), formed once.
_PADE_IDENTITY = _PADE_PAIRS[0] * np.eye(3)[..., None]
#: The adjugate's four factors as indices into the nine planes of D, indices mod 3:
#: adj(D)[i, j] = D[j+1, i+1]·D[j+2, i+2] - D[j+1, i+2]·D[j+2, i+1].
_I, _J = np.indices((3, 3))
_ADJ = tuple(3 * ((_J + r) % 3) + (_I + c) % 3 for r, c in ((1, 1), (2, 2), (1, 2), (2, 1)))
#: Rows and columns of W01, W10 and W20 in W, the first terms of (n_s, n_i, n_b).
_V_ROWS, _V_COLS = np.array([0, 1, 2]), np.array([1, 0, 0])
#: Dtype and leading shape of each plane stack the kernel computes in, in the order
#: :func:`expm_i` unpacks them: six real ones, then six complex ones.
_PLANES = ([(np.float64, lead) for lead in [(3, 3)] * 4 + [(2, 3, 3)] * 2]
           + [(np.complex128, lead) for lead in [(3, 3)] * 5 + [(3, 3, 3)]])
#: Largest 1-norm for which Padé [13/13] meets double precision unscaled (Higham 2005, Table 2.3).
_THETA_13 = 5.371920351148152
#: Most squarings that leave a significant digit: each doubles the rounding error,
#: and 2^s·u >= 1 for the unit roundoff u = 2^-53 once s exceeds the mantissa bits.
_MAX_SQUARINGS = np.finfo(np.float64).nmant
#: Cells of the largest stack the kernel computes in its thread's workspace, 1728 B per
#: cell (0.84 MiB), and the most sizes whose views it keeps (one list per size
#: 0 … STACK_CELLS); a larger stack gets planes of its own.  ``sweeps`` chunks by it.
#: Sweeps in chunks of 512 took fig3 10.9–11.1 ms, of 256 13.4–15.1 and of 1024, in
#: twice the memory, 9.5–9.7; fig2 took 6.6–6.9, 8.3–9.6 and 6.6–6.9 ms (min of 15,
#: 2-core guest).
STACK_CELLS = 512
#: Each thread's workspace, one flat buffer per plane stack, made on its first kernel call,
#: and the plane views into it for each stack size it has computed (:func:`_planes`).
_THREAD = threading.local()


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


def _planes(n: int) -> list[NDArray]:
    """The kernel's plane stacks for ``n`` cells, each of shape ``lead + (n,)`` and contiguous.

    Up to :data:`STACK_CELLS` cells they are views of this thread's workspace,
    made on the first call for each ``n`` and kept with the workspace, so the
    cache holds at most one list per size 0 … STACK_CELLS; a larger stack gets
    new arrays, one per stack.  A view is laid out as a new array is, so the
    kernel computes bitwise the same in it.
    """
    if n > STACK_CELLS:
        return [np.empty((*lead, n), dtype) for dtype, lead in _PLANES]
    views = getattr(_THREAD, "views", None)
    if views is None:
        _THREAD.workspace = [np.empty(math.prod(lead) * STACK_CELLS, dtype)
                             for dtype, lead in _PLANES]
        views = _THREAD.views = {}
    if n not in views:
        views[n] = [buffer[: math.prod(lead) * n].reshape(*lead, n)
                    for buffer, (_, lead) in zip(_THREAD.workspace, _PLANES)]
    return views[n]


def _mul(x, y, out, terms):
    """Complex matrix products x·y on planes (3, 3, n) into ``out``, via the (3, 3, 3, n) ``terms``."""
    np.multiply(x[:, :, None], y[None], out=terms)
    return terms.sum(axis=-3, out=out)


def _mul_real(x, y, out):
    """Real matrix products x·y on planes into ``out``: x is (3, 3, n), y is (..., 3, 3, n).

    ``np.einsum`` without ``optimize`` uses no BLAS and builds no (..., 3, 3, 3, n)
    temporary.  Its values are bitwise those of multiplying and then summing the
    terms, as :func:`_mul` does, except for the sign of a NaN where two NaNs meet
    (pinned by a test).
    """
    return np.einsum("ijn,...jkn->...ikn", x, y, out=out)


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
    The result is a copy of the result planes, memory of its own and never
    the workspace, seen as a ``stack + (3, 3)`` view: its values are those of
    a C-order stack, its memory is cell-fastest.
    """
    m, t = np.asarray(m), np.asarray(t)
    stack = np.broadcast(t, m[..., 0, 0]).shape
    n = math.prod(stack)
    b, a2, a4, a6, inner, wv, d, adj, r, x, y, terms = _planes(n)
    # m as planes: its 3×3 axes first, its stack axes after as many new axes as t has more
    m = m.reshape((1,) * (len(stack) + 2 - m.ndim) + m.shape).transpose(-2, -1, *range(len(stack)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.multiply(t, m, out=b.reshape(3, 3, *stack))  # A = i b with b real
        s = np.abs(b, out=a2).sum(axis=0).max(axis=0)
        s /= _THETA_13
        np.maximum(np.ceil(np.log2(s, out=s), out=s), 0.0, out=s)
        fit = s <= _MAX_SQUARINGS  # False also for a norm that is inf or NaN
        s = np.where(fit, s, 0.0).astype(np.intp)
        # A NaN scale makes every entry of a rejected cell NaN, and only of that cell.
        b *= np.where(fit, np.ldexp(1.0, -s), np.nan)
        # A = i b is purely imaginary, so A², A⁴, A⁶ and the even part V are real,
        # and the odd part is U = i b W with W real.
        np.negative(_mul_real(b, b, a2), out=a2)
        _mul_real(a2, a2, a4)
        _mul_real(a4, a2, a6)
        # Each sum below adds its terms left to right, forming the next term in the
        # other pair buffer: inner = c6·A⁶ + c5·A⁴ + c4·A², then
        # (W, V) = A⁶·inner + c3·A⁶ + c2·A⁴ + c1·A² + c0·I.
        c = _PADE_PAIRS
        np.multiply(c[6], a6, out=inner)
        inner += np.multiply(c[5], a4, out=wv)
        inner += np.multiply(c[4], a2, out=wv)
        _mul_real(a6, inner, wv)
        wv += np.multiply(c[3], a6, out=inner)
        wv += np.multiply(c[2], a4, out=inner)
        wv += np.multiply(c[1], a2, out=inner)
        wv += _PADE_IDENTITY
        w, v = wv[0], wv[1]
        np.subtract(v, np.multiply(1j, _mul_real(b, w, a2), out=x), out=d)  # D = V - i b W
        # adj(D) = x·y - adj·t from the four gathered factors x, y, adj and t
        planes = d.reshape(9, n)
        for i, factor in zip(_ADJ, (x, y, adj, terms[0])):
            planes.take(i, axis=0, out=factor, mode="clip")
        adj *= terms[0]
        np.subtract(np.multiply(x, y, out=x), adj, out=adj)
        det = np.multiply(d[0], adj[:, 0], out=x[0]).sum(axis=0)  # expanded along row 0
        # r = (V - U)⁻¹(V + U), as V + U = conj(D)
        np.divide(_mul(adj, np.conjugate(d, out=y), r, terms), det, out=r)
        for j in range(s.max(initial=0)):
            np.copyto(r, _mul(r, r, y, terms), where=s > j)
    return r.copy().reshape(3, 3, *stack).transpose(*range(2, len(stack) + 2), 0, 1)


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


def propagate_step(e: NDArray[np.complex128]):
    """The one exact propagation step: the vacuum occupations, read from the exponent.

    ``e`` is the rotating-frame exponent exp(i m L) of one generator or a
    stack (..., 3, 3), from :func:`expm_i` or :func:`propagate_lengths`.
    Every frame turns W's rows by unit-modulus factors (:func:`transfer`),
    so ``n`` is read from the four V entries of ``e``: n_s = |e01|² + |e02|²,
    n_i = |e10|², n_b = |e20|².  Returns stacked ``(n, ok)``; ``ok`` marks the
    cells whose ``e`` and ``n`` are finite, and nothing raises or warns for
    the others.  ``e`` is read as planes (3, 3, ...), any layout giving the
    same bytes, and ``n`` is new cell-fastest memory seen as ``stack + (3,)``.
    """
    e = np.asarray(e)
    planes = e.transpose(-2, -1, *range(e.ndim - 2))
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.abs(planes[_V_ROWS, _V_COLS]) ** 2  # |e01|², |e10|², |e20|²
        n[0] += np.abs(planes[0, 2]) ** 2  # n_s = |e01|² + |e02|²
    ok = np.isfinite(planes).all(axis=(0, 1)) & np.isfinite(n).all(axis=0)
    return n.transpose(*range(1, n.ndim), 0), ok


def transfer(e: NDArray[np.complex128], first, rest) -> NDArray[np.complex128]:
    """The transfer matrix W = diag(first, rest, rest) · e, for the callers that build a map.

    ``first`` is the frame phase factor of the signal row and ``rest`` the one
    the idler and probe rows share, each a scalar or an array that broadcasts
    to ``e``'s stack: (e^{-iΔL/2}, e^{iΔL/2}) in :func:`propagate_exact` and
    (e^{-iΔL}, 1) in ``dressed``.  W is two multiplies into new cell-fastest
    memory, never the inputs, returned as a ``stack + (3, 3)`` view.
    """
    e = np.asarray(e)
    planes = e.transpose(-2, -1, *range(e.ndim - 2))
    w = np.empty(planes.shape, np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(first, planes[0], out=w[0])
        np.multiply(rest, planes[1:], out=w[1:])
    return w.transpose(*range(2, w.ndim), 0, 1)


def propagate_batch(gamma, kappa, delta, length):
    """Vacuum occupations of every cell of the broadcast (Γ, κ, Δ, L) arrays in one stacked call.

    Returns the ``(n, ok)`` of :func:`propagate_step`: (n_s, n_i, n_b), shape
    ``broadcast + (3,)``, and a mask of the broadcast shape.  A cell that
    :func:`params.valid_cells` rejects, or whose exponential or occupations
    are not finite, gets ``ok = False`` and NaN occupations; nothing raises.
    No frame phase or W is formed; ``n`` agrees with the occupations of
    :func:`propagate_exact`'s map to ≈1e-15 relative.
    """
    # An invalid cell propagates the zero generator over L = 0 (e = I) and is blanked below.
    g, k, d, t, ok = valid_cells(gamma, kappa, delta, length)
    n, finite = propagate_step(expm_i(_generators(g, k, d), t))
    ok &= finite
    if not ok.all():
        n[~ok] = np.nan
    return n, ok


def propagate_exact(params: CouplerParams) -> BogoliubovMap:
    """Propagate through length L by exponentiating the rotating-frame generator.

    Returns the Bogoliubov map for the original-frame operators, W turned by
    the frame phases e^{∓iΔL/2}; a cell whose exponential or vacuum
    occupations are not finite raises NumericError.
    """
    e = expm_i(build_generator(params), params.length)
    require_ok(propagate_step(e)[1], "exact propagation")
    phase = np.exp(1j * (0.5 * params.delta * params.length))  # finite, as e is
    return BogoliubovMap(*split_transfer(transfer(e, np.conjugate(phase), phase)), params)


def propagate_lengths(gamma: float, kappa: float, delta: float, length_max: float, samples: int):
    """Propagate one (Γ, κ, Δ) over the lengths ``np.linspace(0, length_max, samples)``.

    The grid comes from the semigroup law exp(iM(a+b)) = exp(iMa)·exp(iMb):
    with the spacing h, b = ⌊√(samples−1)⌋ + 1 and sample k = q·b + j, one
    :func:`expm_i` call exponentiates the b fine lengths j·h and the
    ⌈samples/b⌉ coarse lengths q·b·h (50 lengths for 601 samples), and all
    coarse·fine 3×3 products are one complex matrix product with inner
    dimension 3.  Each sample is the product of exactly two kernel outputs,
    so its rounding error does not grow along the grid as it would by
    stepping.  Returns the ``(n, ok)`` of :func:`propagate_step`, stacked
    over the samples; a sample that is not finite gets ``ok = False`` and
    raises nothing.  The rates and ``length_max`` are validated as one
    :class:`CouplerParams`, so a bad ``length_max`` is reported as ``length``;
    that, or a ``samples`` that is not an int >= 1, raises InvalidParameterError.
    """
    p = CouplerParams(gamma, kappa, delta, length_max)
    b = math.isqrt(require_count("samples", samples, 1) - 1) + 1
    steps = np.concatenate([np.arange(b), b * np.arange(-(-samples // b))])
    e = expm_i(build_generator(p), steps * (p.length / max(samples - 1, 1)))
    with np.errstate(over="ignore", invalid="ignore"):  # rows (q, i), columns (j, l)
        grid = e[b:].reshape(-1, 3) @ e[:b].transpose(1, 0, 2).reshape(3, -1)
    # Contiguous planes (i, l, k), k = q·b + j: the whole coarse blocks, then the rest of the last.
    grid = grid.reshape(-1, 3, b, 3).transpose(1, 3, 0, 2)
    planes, (q, r) = np.empty((3, 3, samples), np.complex128), divmod(samples, b)
    planes[..., : q * b].reshape(3, 3, q, b)[...] = grid[:, :, :q]
    planes[..., q * b :] = grid[:, :, q:, :r].reshape(3, 3, r)
    del grid  # freed before the step allocates, so the call's peak holds one grid
    return propagate_step(planes.transpose(2, 0, 1))


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
