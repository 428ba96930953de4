"""Deterministic 2-D parameter sweeps and the anti-Zeno ridge tracker.

A grid is flattened and evaluated in chunks of a fixed number of cells: a
chunk's numeric cells are one :func:`dynamics.propagate_batch` call and,
under ``closed_form_when_applicable``, its Δ = 0 / κ = 0 cells one
:func:`closed_forms.closed_form_batch` call, so memory stays flat in the
grid size.  Every cell carries its engine provenance as a one-byte code into
:data:`TAGS`, decoded on request, and a stacked cell is bit-identical to its
single-cell result, so repeated runs produce byte-identical artifacts.
Cell-level numerical failures are recorded as NaN with a "failed" tag rather
than aborting the sweep.  The peak-over-length envelope is one length-grid
propagation (:func:`dynamics.propagate_lengths`: one kernel call on ≈2√N
lengths), and the ridge propagates only in stacks: per Δ one 257-point κ
scan, then 4–5 zoom levels of 33 points at Δ ∈ [3, 10], each shrinking its
bracket 16× until its half-width is ≤ 1e-6.  The zoom levels are evaluated
in chains, so a Δ takes ≈2 stacked calls.  Every path reads n_s from the
occupations of the frame-free step (no phase, no W), which agree with
``simulate``'s to ≈1e-15 relative.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import STACK_CELLS, propagate_batch, propagate_lengths
from .params import (
    ENGINE_CLOSED_WHEN_APPLICABLE,
    ENGINE_NUMERIC,
    ENGINES,
    PARAM_AXES,
    CouplerParams,
    FlatLandscapeWarning,
    InvalidParameterError,
    require_allocatable,
    require_count,
    require_finite as _require,
    require_ok,
)

if TYPE_CHECKING:
    from numpy.typing import NDArray

TAG_NUMERIC = "numeric"
TAG_CLOSED = "closed_form"
TAG_FAILED = "failed"
#: The provenance tags; a sweep stores each cell's as its index here, one byte per cell.
TAGS = (TAG_NUMERIC, TAG_CLOSED, TAG_FAILED)
_NUMERIC, _CLOSED, _FAILED = range(len(TAGS))

#: Cells per stacked call of :func:`sweep_2d`, so memory stays flat in the grid size:
#: the stack size :mod:`dynamics` is built for.
_CHUNK = STACK_CELLS

#: κ points of the ridge scan over [0, 2Δ], zoom offsets in units of the
#: bracket half-width w (spacing w/16), and the w at which the zoom stops.
#: A 33-cell batch costs what a 9-cell one does, so wide levels save levels.
_SCAN_POINTS = 257
_ZOOM_OFFSETS = np.linspace(-1.0, 1.0, 33)
_OFFSETS, _MIDDLE = _ZOOM_OFFSETS.tolist(), _ZOOM_OFFSETS.size // 2  # as floats; index of 0
_TOL = 1e-6


@dataclass(frozen=True)
class SweepAxis:
    """One linearly spaced sweep dimension."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.name not in PARAM_AXES:
            raise InvalidParameterError(
                f"axis name must be one of {PARAM_AXES}, got {self.name!r}"
            )
        object.__setattr__(self, "start", _require("start", self.start, nonnegative=False))
        object.__setattr__(self, "stop", _require("stop", self.stop, nonnegative=False))
        require_count("count", self.count, 2)
        if not self.start < self.stop:
            raise InvalidParameterError(
                f"axis needs start < stop, got [{self.start}, {self.stop}]"
            )
        _require("stop - start", self.stop - self.start)  # the grid's spacing must be finite

    def grid(self) -> NDArray[np.float64]:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """A full 2-D sweep: baseline parameters, two axes, and an engine policy."""

    fixed: CouplerParams
    axis1: SweepAxis
    axis2: SweepAxis
    engine: str = ENGINE_NUMERIC

    def __post_init__(self) -> None:
        if self.axis1.name == self.axis2.name:
            raise InvalidParameterError(
                f"sweep axes must differ, both are {self.axis1.name!r}"
            )
        if self.engine not in ENGINES:
            raise InvalidParameterError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        # the values grid is a sweep's widest per-cell array
        require_allocatable("sweep cell count", self.axis1.count * self.axis2.count, np.float64)


@dataclass
class SweepGrid:
    """Row-major sweep result: values[i, j] belongs to (axis1[i], axis2[j]).

    ``codes[i, j]`` is the index of that cell's tag in :data:`TAGS`, one byte per
    cell; :attr:`provenance` decodes the codes to the tag strings.
    """

    spec: SweepSpec
    values: NDArray[np.float64]
    codes: NDArray[np.uint8]
    failures: int

    @property
    def provenance(self) -> NDArray[np.str_]:
        """The decoded tag of every cell, as a new string array."""
        return np.array(TAGS)[self.codes]


@dataclass(frozen=True)
class RidgePoint:
    """Optimal probe coupling and peak signal occupation at one mismatch."""

    delta: float
    kappa_opt: float
    n_s_max: float


def _signal(gamma, kappa, delta, length) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """Signal occupations of one stacked propagation, and its per-cell ok mask."""
    n, ok = propagate_batch(gamma, kappa, delta, length)
    return n[..., 0], ok


def sweep_2d(spec: SweepSpec, threads: int = 1) -> SweepGrid:
    """Evaluate the flattened grid in chunks of ``_CHUNK`` cells.

    With ``closed_form_when_applicable`` the :func:`closed_forms.covered`
    cells (Δ = 0 or κ = 0) of a chunk are one :func:`closed_form_batch` call
    and take the tag "closed_form"; the other cells are one stacked
    propagation.  ``threads`` is deprecated, validated and otherwise ignored:
    the work is a few stacked numpy calls per chunk, and worker threads would
    only slow it down.  A cell that is invalid or overflows is recorded as NaN
    with provenance "failed" and counted in ``failures``.
    """
    require_count("threads", threads, 1)
    with_closed_forms = spec.engine == ENGINE_CLOSED_WHEN_APPLICABLE
    if with_closed_forms:
        from .closed_forms import closed_form_batch, covered
    shape = (spec.axis1.count, spec.axis2.count)
    values = np.full(shape, np.nan)
    codes = np.full(shape, _FAILED, dtype=np.uint8)
    fixed = np.array([[getattr(spec.fixed, name)] for name in PARAM_AXES])
    rows = (PARAM_AXES.index(spec.axis1.name), PARAM_AXES.index(spec.axis2.name))
    a1, a2 = spec.axis1.grid(), spec.axis2.grid()

    def record(where, n_s, ok, code):
        where = where[ok]
        values.flat[where] = n_s[ok]
        codes.flat[where] = code

    for start in range(0, values.size, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, values.size))
        cells = np.repeat(fixed, flat.size, axis=1)  # rows Γ, κ, Δ, L; one column per cell
        cells[rows[0]], cells[rows[1]] = a1[flat // shape[1]], a2[flat % shape[1]]
        if with_closed_forms:
            closed = covered(cells[1], cells[2])
            n_s, _, _, _, ok = closed_form_batch(*cells[:, closed])
            record(flat[closed], n_s, ok, _CLOSED)
            flat, cells = flat[~closed], cells[:, ~closed]
        n, ok = propagate_batch(*cells)
        record(flat, n[..., 0], ok, _NUMERIC)
    failures = int(np.count_nonzero(codes == _FAILED))
    return SweepGrid(spec=spec, values=values, codes=codes, failures=failures)


def find_anti_zeno_ridge(gamma: float, length: float, deltas) -> list[RidgePoint]:
    """Locate the coupling κ_opt that maximizes n_s at each mismatch Δ.

    For each Δ every level's argmax becomes the new κ.  Level 0 scans
    κ ∈ [0, 2Δ] in 257 points; each zoom level after it evaluates 33 points on
    κ ± w, clamped to κ >= 0, while w shrinks 16×, from the scan spacing h until
    w <= 1e-6: one scan plus ⌈log₁₆(h/1e-6)⌉ zoom levels per Δ (4–5 at
    Δ ∈ [3, 10]).  κ stays among its points, so n_s_max never decreases, and
    the level count stays bounded for any κ.  After the scan, each stacked call
    evaluates the next level with the predicted levels after it
    (:func:`_zoom_chain`) and keeps those built around the argmax before them:
    ≈2 calls per Δ, with every result, error and warning of a level-by-level walk.
    On the ridge κ_opt tracks Δ (slope ~1, see :func:`ridge_linearity`).
    Emits FlatLandscapeWarning when the scan sees no structure to refine.
    """
    gamma = _require("gamma", gamma)
    length = _require("length", length)
    if gamma == 0.0 or length == 0.0:
        raise InvalidParameterError("ridge tracking requires gamma > 0 and length > 0")
    points: list[RidgePoint] = []
    for delta in deltas:
        delta = _require("delta", delta, nonnegative=False)
        if delta <= 0.0:
            raise InvalidParameterError(f"ridge deltas must be > 0, got {delta}")
        kappas = np.linspace(0.0, _require("ridge scan end 2*delta", 2.0 * delta), _SCAN_POINTS)
        n_s, ok = _signal(gamma, kappas, delta, length)
        require_ok(ok, f"ridge scan at delta={delta}")
        # Variation below one part in 1e6 is indistinguishable from the rounding noise of
        # near-identity maps (~1e-7 relative), so the argmax would track noise, not physics.
        if n_s.max() <= n_s.min() * (1.0 + 1e-6):
            warnings.warn(f"flat signal landscape at delta={delta}; refinement is meaningless",
                          FlatLandscapeWarning, stacklevel=2)
        best, w = int(n_s.argmax()), float(kappas[1])  # w starts at the scan spacing
        while w > _TOL:
            centers, grids = _zoom_chain(kappas, n_s, best, w)
            n_all, ok_all = _signal(gamma, grids.ravel(), delta, length)
            levels = zip(centers, grids, n_all.reshape(grids.shape), ok_all.reshape(grids.shape))
            for center, grid, n, ok in levels:
                if center != kappas[best]:  # a missed prediction: chain again from here
                    break
                require_ok(ok, f"ridge zoom at delta={delta}")
                kappas, n_s, best, w = grid, n, int(n.argmax()), w / 16.0
        points.append(RidgePoint(delta, float(kappas[best]), float(n_s[best])))
    return points


def _zoom_chain(kappas, n_s, best, w) -> tuple[list[float], NDArray[np.float64]]:
    """Centres and grids, one row each, of the zoom levels after a known one, down to w <= 1e-6.

    The first is built around the known argmax, so it is exact; each later one
    around a predicted argmax of the grid before it: its point nearest the vertex
    of the parabola through the known argmax and its neighbours (the argmax itself
    at an edge), found by rounding, not by a search.  The first argmax has
    y_a < y_b >= y_c, so the curvature is negative.  The prediction only chooses
    which exact levels are evaluated early; it never moves a grid.
    """
    vertex = center = float(kappas[best])
    if 0 < best < kappas.size - 1:
        y_a, y_b, y_c = n_s[best - 1 : best + 2].tolist()
        curvature = (y_a - y_b) + (y_c - y_b)
        vertex += 0.25 * (y_a - y_c) / curvature * float(kappas[best + 1] - kappas[best - 1])
    centers, widths = [], []
    while w > _TOL:
        centers.append(center)
        widths.append(w)
        # The grid point nearest the vertex (offsets are spaced 1/_MIDDLE), in Python
        # floats, computed as the grid computes its points below.
        i = min(max(round(_MIDDLE * (vertex - center) / w) + _MIDDLE, 0), 2 * _MIDDLE)
        center, w = max(center + w * _OFFSETS[i], 0.0), w / 16.0
    # The middle offset is exactly 0, so each centre itself is re-evaluated.
    grids = np.multiply.outer(widths, _ZOOM_OFFSETS) + np.array(centers)[:, None]
    return centers, np.maximum(grids, 0.0, out=grids)


def ridge_linearity(points: list[RidgePoint]) -> tuple[float, float, float]:
    """Least-squares line κ_opt = slope·Δ + intercept plus the worst residual.

    Requires at least three ridge points.  On the compensation ridge the
    slope is ~1 and residuals stay well under √2·Γ once Δ dominates Γ.
    """
    if len(points) < 3:
        raise InvalidParameterError(
            f"linearity fit needs >= 3 ridge points, got {len(points)}"
        )
    deltas = np.array([p.delta for p in points])
    kappas = np.array([p.kappa_opt for p in points])
    slope, intercept = np.polyfit(deltas, kappas, 1)
    residual = float(np.max(np.abs(kappas - (slope * deltas + intercept))))
    return float(slope), float(intercept), residual


def max_signal_over_length(
    gamma: float, kappa: float, delta: float, length_max: float, samples: int = 601
) -> float:
    """Peak signal occupation over L ∈ [0, length_max] on a uniform grid.

    The grid is one :func:`dynamics.propagate_lengths` call; a length at which
    it is not finite raises NumericError.
    """
    n, ok = propagate_lengths(gamma, kappa, delta, length_max, samples)
    require_ok(ok, "max_signal_over_length")
    return float(n[:, 0].max())
