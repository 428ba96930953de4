"""Deterministic 2-D parameter sweeps and the anti-Zeno ridge tracker.

Grids are evaluated one axis-1 row at a time: the row's numeric cells are
one stacked propagation (:func:`dynamics.propagate_batch`), so each row costs
one matrix-exponential call and memory stays flat in the number of rows.
Every cell carries its engine provenance, and a stacked cell is bit-identical
to its single-cell propagation, so repeated runs produce byte-identical
artifacts.  Cell-level numerical failures are recorded as NaN with a
"failed" tag rather than aborting the sweep.  The peak-over-length envelope
is one stacked propagation too, and the ridge propagates only in stacks: per
Δ one 257-point κ scan plus about 8–9 zoom batches of 9 points, each zoom
level shrinking the bracket 4× until its half-width is <= 1e-6.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .closed_forms import closed_form_occupations
from .dynamics import occupation_numbers, propagate_batch, require_ok
from .params import (
    CouplerError,
    CouplerParams,
    FlatLandscapeWarning,
    InvalidParameterError,
    require_finite as _require,
)

#: Parameter names a sweep axis may vary.
PARAM_AXES = ("gamma", "kappa", "delta", "length")

ENGINE_NUMERIC = "numeric"
ENGINE_CLOSED_WHEN_APPLICABLE = "closed_form_when_applicable"
ENGINES = (ENGINE_NUMERIC, ENGINE_CLOSED_WHEN_APPLICABLE)

TAG_NUMERIC = "numeric"
TAG_CLOSED = "closed_form"
TAG_FAILED = "failed"

#: κ points of the ridge scan over [0, 2Δ], zoom offsets in units of the
#: bracket half-width w (spacing w/4), and the w at which the zoom stops.
_SCAN_POINTS = 257
_ZOOM_OFFSETS = np.linspace(-1.0, 1.0, 9)
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
        if not isinstance(self.count, int) or isinstance(self.count, bool):
            raise InvalidParameterError(f"count must be an integer, got {self.count!r}")
        if self.count < 2:
            raise InvalidParameterError(f"count must be >= 2, got {self.count}")
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


@dataclass
class SweepGrid:
    """Row-major sweep result: values[i, j] belongs to (axis1[i], axis2[j])."""

    spec: SweepSpec
    values: NDArray[np.float64]
    provenance: NDArray[np.str_]
    failures: int


@dataclass(frozen=True)
class RidgePoint:
    """Optimal probe coupling and peak signal occupation at one mismatch."""

    delta: float
    kappa_opt: float
    n_s_max: float


def _signal(gamma, kappa, delta, length) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """Signal occupations of one stacked propagation, and its per-cell ok mask."""
    _, v, ok = propagate_batch(gamma, kappa, delta, length)
    return occupation_numbers(v)[..., 0], ok


def sweep_2d(spec: SweepSpec, threads: int = 1) -> SweepGrid:
    """Evaluate the grid row by row, one stacked propagation per axis-1 row.

    With ``closed_form_when_applicable`` the cells at Δ = 0 or κ = 0 take
    their closed form and the tag "closed_form"; every other cell is numeric.
    ``threads`` is deprecated, validated and otherwise ignored: the work is a
    few stacked numpy calls per row, and worker threads would only slow it
    down.  A cell that is invalid, raises a package error or overflows is
    recorded as NaN with provenance "failed" and counted in ``failures``.
    """
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        raise InvalidParameterError(f"threads must be a positive integer, got {threads!r}")
    shape = (spec.axis1.count, spec.axis2.count)
    values = np.full(shape, np.nan)
    provenance = np.full(shape, TAG_FAILED, dtype="<U16")
    a2 = spec.axis2.grid()
    for i, x in enumerate(spec.axis1.grid()):
        row = {name: getattr(spec.fixed, name) for name in PARAM_AXES}
        row[spec.axis1.name] = x
        row[spec.axis2.name] = a2
        gamma, kappa, delta, length = np.broadcast_arrays(*(row[name] for name in PARAM_AXES))
        numeric = np.ones(a2.shape, dtype=bool)
        if spec.engine == ENGINE_CLOSED_WHEN_APPLICABLE:
            numeric = (delta != 0.0) & (kappa != 0.0)
            for j in np.flatnonzero(~numeric):
                try:
                    cell = replace(spec.fixed, **{spec.axis1.name: x, spec.axis2.name: a2[j]})
                    values[i, j] = closed_form_occupations(cell)[0]
                    provenance[i, j] = TAG_CLOSED
                except CouplerError:
                    pass  # the cell stays NaN / "failed"
        n_s, ok = _signal(gamma[numeric], kappa[numeric], delta[numeric], length[numeric])
        cells = np.flatnonzero(numeric)[ok]
        values[i, cells] = n_s[ok]
        provenance[i, cells] = TAG_NUMERIC
    failures = int(np.count_nonzero(provenance == TAG_FAILED))
    return SweepGrid(spec=spec, values=values, provenance=provenance, failures=failures)


def find_anti_zeno_ridge(gamma: float, length: float, deltas) -> list[RidgePoint]:
    """Locate the coupling κ_opt that maximizes n_s at each mismatch Δ.

    For each Δ the signal occupation is scanned on κ ∈ [0, 2Δ] (one stacked
    propagation of 257 points) and the scan's argmax is refined by a zoom:
    each level is one stacked propagation of 9 points on κ ± w, clamped to
    κ >= 0, whose argmax becomes the new κ while w shrinks 4×, starting from
    the scan spacing and stopping once w <= 1e-6.  That is one scan batch
    plus about 8–9 zoom batches per Δ; κ stays among the points, so n_s_max
    never decreases, and w shrinks however large κ is.  On the compensation
    ridge κ_opt tracks Δ (slope ~1, see :func:`ridge_linearity`).  Emits
    FlatLandscapeWarning when the scan sees no structure to refine.
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
        scan, ok = _signal(gamma, kappas, delta, length)
        require_ok(ok, f"ridge scan at delta={delta}")
        lo, hi = float(scan.min()), float(scan.max())
        # Variation below one part in 1e6 is indistinguishable from the
        # rounding noise of near-identity maps (noise floor ~1e-7 relative),
        # so the argmax would track noise, not physics.
        if hi <= lo * (1.0 + 1e-6):
            warnings.warn(
                f"flat signal landscape at delta={delta}; refinement is meaningless",
                FlatLandscapeWarning,
                stacklevel=2,
            )
        best = int(np.argmax(scan))
        k_opt, n_max = float(kappas[best]), float(scan[best])
        w = float(kappas[1])  # the scan spacing
        while w > _TOL:
            # The middle offset is exactly 0, so k_opt itself is re-evaluated.
            zoom_kappas = np.maximum(k_opt + w * _ZOOM_OFFSETS, 0.0)
            zoom, ok = _signal(gamma, zoom_kappas, delta, length)
            require_ok(ok, f"ridge zoom at delta={delta}")
            best = int(np.argmax(zoom))
            k_opt, n_max = float(zoom_kappas[best]), float(zoom[best])
            w /= 4.0
        points.append(RidgePoint(delta=delta, kappa_opt=k_opt, n_s_max=n_max))
    return points


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

    The whole grid is one stacked propagation; a length at which it is not
    finite raises NumericError.
    """
    n_s, ok = _signal(
        _require("gamma", gamma),
        _require("kappa", kappa),
        _require("delta", delta, nonnegative=False),
        np.linspace(0.0, _require("length_max", length_max), samples),
    )
    require_ok(ok, "max_signal_over_length")
    return float(n_s.max())
