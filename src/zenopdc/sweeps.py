"""Deterministic 2-D parameter sweeps and the anti-Zeno ridge tracker.

Grids are evaluated serially in row-major order with per-cell engine
provenance, so repeated runs produce byte-identical artifacts.
Cell-level numerical failures are recorded as NaN with a "failed" tag rather
than aborting the sweep.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .closed_forms import closed_form_occupations
from .dynamics import propagate_exact, vacuum_occupations
from .params import (
    CouplerError,
    CouplerParams,
    DomainError,
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


def _evaluate_cell(params: CouplerParams, engine: str) -> tuple[float, str]:
    """Signal occupation of one grid cell plus the engine tag that produced it."""
    if engine == ENGINE_CLOSED_WHEN_APPLICABLE:
        try:
            return closed_form_occupations(params)[0], TAG_CLOSED
        except DomainError:
            pass
    return vacuum_occupations(propagate_exact(params)).n_s, TAG_NUMERIC


def sweep_2d(spec: SweepSpec, threads: int = 1) -> SweepGrid:
    """Evaluate the grid cell by cell in row-major order.

    ``threads`` is validated and otherwise ignored: each cell is a handful of
    3×3 numpy calls that hold the GIL, so worker threads would only slow the
    sweep down.  A cell that raises a package error (or overflows) is recorded as
    NaN with provenance "failed" and counted in ``failures``.
    """
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        raise InvalidParameterError(f"threads must be a positive integer, got {threads!r}")
    shape = (spec.axis1.count, spec.axis2.count)
    values = np.full(shape, np.nan)
    provenance = np.full(shape, TAG_FAILED, dtype="<U16")
    a2 = spec.axis2.grid()
    for i, x in enumerate(spec.axis1.grid()):
        for j, y in enumerate(a2):
            try:
                cell = replace(spec.fixed, **{spec.axis1.name: x, spec.axis2.name: y})
                values[i, j], provenance[i, j] = _evaluate_cell(cell, spec.engine)
            except (CouplerError, OverflowError, FloatingPointError):
                pass  # the cell stays NaN / "failed"
    failures = int(np.count_nonzero(provenance == TAG_FAILED))
    return SweepGrid(spec=spec, values=values, provenance=provenance, failures=failures)


def _golden_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal f on [a, b] to |x| tolerance."""
    ratio = 0.5 * (math.sqrt(5.0) - 1.0)
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def find_anti_zeno_ridge(
    gamma: float,
    length: float,
    deltas,
    scan_points: int = 257,
    tol: float = 1e-6,
) -> list[RidgePoint]:
    """Locate the coupling κ_opt that maximizes n_s at each mismatch Δ.

    For each Δ the signal occupation is scanned on κ ∈ [0, 2Δ] and the best
    bracket is refined by golden section to a κ tolerance of ``tol``.  On the
    compensation ridge κ_opt tracks Δ (slope ~1, see :func:`ridge_linearity`).
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

        def n_s(kappa: float, _delta: float = delta) -> float:
            return _evaluate_cell(CouplerParams(gamma, kappa, _delta, length), ENGINE_NUMERIC)[0]

        kappas = np.linspace(0.0, 2.0 * delta, scan_points)
        scan = np.array([n_s(k) for k in kappas])
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
        a = kappas[max(0, best - 1)]
        b = kappas[min(scan_points - 1, best + 1)]
        k_opt, n_max = _golden_max(n_s, float(a), float(b), tol)
        if scan[best] > n_max:
            k_opt, n_max = float(kappas[best]), float(scan[best])
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
    """Peak signal occupation over L ∈ [0, length_max] on a uniform grid."""
    grid = np.linspace(0.0, length_max, samples)
    return max(
        _evaluate_cell(CouplerParams(gamma, kappa, delta, L), ENGINE_NUMERIC)[0] for L in grid
    )
