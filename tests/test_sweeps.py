"""Grid sweeps and ridge tracking: determinism, provenance, failures."""

import math
import os
import platform
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from zenopdc import (
    ENGINE_CLOSED_WHEN_APPLICABLE,
    ENGINE_NUMERIC,
    CouplerError,
    CouplerParams,
    FlatLandscapeWarning,
    InvalidParameterError,
    NumericError,
    RidgePoint,
    SweepAxis,
    SweepGrid,
    SweepSpec,
    find_anti_zeno_ridge,
    max_signal_over_length,
    ridge_linearity,
    sweep_2d,
)
from zenopdc.closed_forms import closed_form_occupations, n_s_mismatched_uncoupled
from zenopdc.dressed import dressed_bogoliubov_map, resonant_vs_qpm
from zenopdc.dynamics import propagate_batch, propagate_exact, vacuum_occupations
from zenopdc import dressed, dynamics, sweeps
from zenopdc.params import require_ok
from zenopdc.sweeps import TAG_CLOSED, TAG_FAILED, TAG_NUMERIC, TAGS

from conftest import MAP_RTOL


def _axis(name="kappa", start=0.0, stop=2.0, count=5):
    return SweepAxis(name=name, start=start, stop=stop, count=count)


def test_axis_grid_is_linspace():
    np.testing.assert_allclose(
        _axis(count=5).grid(), np.linspace(0.0, 2.0, 5), atol=0
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(name="omega"),
        dict(count=1),
        dict(count=True),
        dict(start=2.0, stop=2.0),
        dict(start=3.0, stop=2.0),
        dict(start=math.nan),
    ],
)
def test_axis_validation(kwargs):
    base = dict(name="kappa", start=0.0, stop=2.0, count=5)
    base.update(kwargs)
    with pytest.raises(InvalidParameterError):
        SweepAxis(**base)


def test_spec_rejects_duplicate_axes_and_bad_engine():
    fixed = CouplerParams(0.5, 0.0, 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        SweepSpec(fixed=fixed, axis1=_axis("kappa"), axis2=_axis("kappa"))
    with pytest.raises(InvalidParameterError):
        SweepSpec(
            fixed=fixed,
            axis1=_axis("kappa"),
            axis2=_axis("delta"),
            engine="magic",
        )


def test_sweep_values_and_shape():
    spec = SweepSpec(
        fixed=CouplerParams(0.5, 0.0, 0.0, 1.0),
        axis1=_axis("kappa", 0.0, 2.0, 5),
        axis2=_axis("length", 0.0, 2.0, 4),
    )
    grid = sweep_2d(spec)
    assert grid.values.shape == (5, 4)
    assert grid.failures == 0
    # spot-check one interior cell against the propagator
    from zenopdc import propagate_exact, vacuum_occupations

    k = spec.axis1.grid()[3]
    L = spec.axis2.grid()[2]
    direct = vacuum_occupations(
        propagate_exact(CouplerParams(0.5, k, 0.0, L))
    ).n_s
    assert grid.values[3, 2] == pytest.approx(direct, abs=1e-12)


def test_sweep_deterministic_across_threads():
    spec = SweepSpec(
        fixed=CouplerParams(0.5, 0.0, 0.0, 1.5),
        axis1=_axis("kappa", 0.0, 10.0, 11),
        axis2=_axis("delta", -5.0, 5.0, 13),
    )
    one = sweep_2d(spec, threads=1)
    eight = sweep_2d(spec, threads=8)
    assert np.array_equal(one.values, eight.values)
    assert np.array_equal(one.provenance, eight.provenance)
    assert one.failures == eight.failures


def test_closed_form_engine_matches_numeric_and_tags_cells():
    spec_template = dict(
        fixed=CouplerParams(0.5, 0.0, 0.0, 1.2),
        axis1=_axis("kappa", 0.0, 6.0, 9),
        axis2=_axis("delta", 0.0, 4.0, 5),
    )
    numeric = sweep_2d(SweepSpec(**spec_template, engine=ENGINE_NUMERIC))
    closed = sweep_2d(
        SweepSpec(**spec_template, engine=ENGINE_CLOSED_WHEN_APPLICABLE)
    )
    np.testing.assert_allclose(closed.values, numeric.values, atol=1e-9)
    assert set(numeric.provenance.ravel()) == {TAG_NUMERIC}
    # delta = 0 column and kappa = 0 row have closed forms; elsewhere numeric
    deltas = spec_template["axis2"].grid()
    kappas = spec_template["axis1"].grid()
    for i, k in enumerate(kappas):
        for j, d in enumerate(deltas):
            expected = TAG_CLOSED if (d == 0.0 or k == 0.0) else TAG_NUMERIC
            assert closed.provenance[i, j] == expected


def test_failed_cells_are_nan_and_counted():
    spec = SweepSpec(
        fixed=CouplerParams(0.5, 0.0, 0.0, 1.0),
        axis1=_axis("gamma", 200.0, 500.0, 2),
        axis2=_axis("length", 2.5, 3.0, 2),
    )
    grid = sweep_2d(spec)
    assert grid.failures == 4
    assert np.isnan(grid.values).all()
    assert set(grid.provenance.ravel()) == {TAG_FAILED}


def _cell_by_cell(spec):
    """Reference: every cell on its own, through CouplerParams and a one-cell propagate_batch.

    A numeric cell fails where ``propagate_exact`` raises; the third grid holds the n_s of
    each numeric cell's map, ``vacuum_occupations(propagate_exact(p))``.
    """
    shape = (spec.axis1.count, spec.axis2.count)
    values, mapped = np.full(shape, np.nan), np.full(shape, np.nan)
    provenance = np.full(shape, TAG_FAILED, dtype="<U16")
    for i, x in enumerate(spec.axis1.grid()):
        for j, y in enumerate(spec.axis2.grid()):
            try:
                p = replace(spec.fixed, **{spec.axis1.name: x, spec.axis2.name: y})
                if spec.engine == ENGINE_CLOSED_WHEN_APPLICABLE and (p.delta == 0.0 or p.kappa == 0.0):
                    values[i, j], provenance[i, j] = closed_form_occupations(p)[0], TAG_CLOSED
                else:
                    mapped[i, j] = vacuum_occupations(propagate_exact(p)).n_s
                    values[i, j] = propagate_batch(p.gamma, p.kappa, p.delta, p.length)[0][0]
                    provenance[i, j] = TAG_NUMERIC
            except CouplerError:
                pass
    numeric = provenance == TAG_NUMERIC
    np.testing.assert_allclose(values[numeric], mapped[numeric], rtol=MAP_RTOL, atol=0.0)
    return values, provenance


@pytest.mark.parametrize(
    "engine, chunk",
    [
        pytest.param(ENGINE_NUMERIC, None, id=ENGINE_NUMERIC),
        pytest.param(ENGINE_CLOSED_WHEN_APPLICABLE, None, id=ENGINE_CLOSED_WHEN_APPLICABLE),
        pytest.param(ENGINE_NUMERIC, 4, id=f"{ENGINE_NUMERIC}-chunk4"),
        pytest.param(ENGINE_CLOSED_WHEN_APPLICABLE, 4, id=f"{ENGINE_CLOSED_WHEN_APPLICABLE}-chunk4"),
    ],
)
def test_row_batches_match_the_cell_by_cell_sweep(engine, chunk, monkeypatch):
    # kappa < 0 rows are invalid, gamma >= 200 at L = 2.5 overflows, the rest is valid;
    # chunks of 4 cells straddle the rows of 3
    if chunk is not None:
        monkeypatch.setattr(sweeps, "_CHUNK", chunk)
    spec = SweepSpec(
        fixed=CouplerParams(0.5, 0.0, 1.0, 2.5),
        axis1=_axis("kappa", -1.0, 3.0, 5),
        axis2=_axis("gamma", 0.5, 400.5, 3),
        engine=engine,
    )
    grid = sweep_2d(spec)
    values, provenance = _cell_by_cell(spec)
    assert np.array_equal(grid.values, values, equal_nan=True)
    assert np.array_equal(grid.provenance, provenance)
    assert grid.failures == int(np.count_nonzero(provenance == TAG_FAILED))
    assert set(provenance[0]) == {TAG_FAILED}  # kappa = -1
    assert set(provenance[1:, 1:].ravel()) == {TAG_FAILED}  # gamma = 200.5, 400.5
    assert TAG_FAILED not in provenance[1:, 0]


@pytest.mark.parametrize("engine", [ENGINE_NUMERIC, ENGINE_CLOSED_WHEN_APPLICABLE])
def test_chunks_in_one_workspace_match_the_cell_by_cell_sweep(engine, monkeypatch):
    # The chunks of one sweep share a kernel workspace.  Rows run from Δ = -24 (3 squarings
    # at Γ = 0) to Δ = 0 (none); every row holds an invalid cell (Γ = -100) and cells of 6
    # squarings (Γ = 100) and 7 that overflow (Γ = 200 at L = 2.5); chunks of 5 straddle
    # the rows of 4, and the last chunk holds 1 cell.
    monkeypatch.setattr(sweeps, "_CHUNK", 5)
    spec = SweepSpec(
        fixed=CouplerParams(0.5, 0.25, 0.0, 2.5),
        axis1=_axis("delta", -24.0, 0.0, 4),
        axis2=_axis("gamma", -100.0, 200.0, 4),
        engine=engine,
    )
    grid = sweep_2d(spec)
    values, provenance = _cell_by_cell(spec)
    assert grid.values.tobytes() == values.tobytes()
    assert np.array_equal(grid.provenance, provenance)
    assert (provenance[:, [0, 3]] == TAG_FAILED).all() and (provenance[:, 1:3] != TAG_FAILED).all()


def _small_specs():
    """A fig2-like (length × κ) and a fig3-like (κ × Δ) spec, and the latter with closed forms."""
    fig2 = SweepSpec(CouplerParams(0.5, 0.0, 5.0, 0.0), _axis("length", 0.0, 3.0, 13),
                     _axis("kappa", 0.0, 10.0, 21))
    fig3 = SweepSpec(CouplerParams(0.5, 0.0, 0.0, 1.5), _axis("kappa", 0.0, 10.0, 21),
                     _axis("delta", -10.0, 10.0, 17))
    return [fig2, fig3, replace(fig3, engine=ENGINE_CLOSED_WHEN_APPLICABLE)]


def _result_bytes(result):
    """A sweep's values and codes as bytes; another result as its repr (exact for floats)."""
    if isinstance(result, SweepGrid):
        return result.values.tobytes(), result.codes.tobytes()
    return repr(result)


def test_concurrent_sweeps_share_no_buffer(monkeypatch):
    # Each thread computes in its own kernel workspace: sweeps, a ridge search and an
    # envelope running at once in threads (numpy releases the GIL in its loops, and a
    # short switch interval interleaves the rest) must each give bitwise their serial result.
    monkeypatch.setattr(sweeps, "_CHUNK", 64)  # several chunks per sweep
    jobs = [partial(sweep_2d, spec) for spec in _small_specs()] + [
        partial(find_anti_zeno_ridge, 0.5, 1.5, [3.0, 7.0]),
        partial(max_signal_over_length, 0.5, 2.0, 5.0, 3.0),
    ]
    serial = [_result_bytes(job()) for job in jobs]
    start = threading.Barrier(len(jobs))
    mismatches = []

    def run(job, want):
        for _ in range(20):
            start.wait(timeout=60)
            if _result_bytes(job()) != want:
                mismatches.append(job)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=pair) for pair in zip(jobs, serial)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not mismatches


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="page-fault counts are specific to Linux with glibc's allocator")
def test_repeated_sweeps_fault_in_no_new_memory(tmp_path):
    # A thread allocates its kernel workspace once, so a repeated fig2 sweep or CLI fig3 sweep
    # in a fresh process takes under one minor page fault.  Freeing and re-allocating the
    # planes in every chunk took 1150–1400 per fig2 sweep: glibc trims the top of the heap,
    # and each chunk faulted it back in.  A workspace per sweep, freed when the sweep
    # returned, took ≈100 per fig2 sweep and ≈150 per CLI fig3 sweep.
    repeat = """
import resource
sweep()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    sweep()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""
    fig2 = """
from zenopdc import CouplerParams, SweepAxis, SweepSpec, sweep_2d
spec = SweepSpec(CouplerParams(0.5, 0.0, 5.0, 0.0), SweepAxis("length", 0.0, 3.0, 61),
                 SweepAxis("kappa", 0.0, 10.0, 101))
sweep = lambda: sweep_2d(spec)
"""
    fig3 = f"""
from zenopdc import cli
sweep = lambda: cli.main(["sweep", "--config", "fig3", "--out", {str(tmp_path / "fig3.json")!r}])
"""
    for setup, bound in ((fig2, 400), (fig3, 50)):
        proc = subprocess.run([sys.executable, "-c", setup + repeat], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < bound


def test_provenance_is_one_byte_code_per_cell_decoded_to_the_tags():
    # kappa = -1 is invalid, kappa = 0 closed form, gamma >= 200 at L = 2.5 overflows
    spec = SweepSpec(
        fixed=CouplerParams(0.5, 0.0, 1.0, 2.5),
        axis1=_axis("kappa", -1.0, 3.0, 5),
        axis2=_axis("gamma", 0.5, 400.5, 3),
        engine=ENGINE_CLOSED_WHEN_APPLICABLE,
    )
    grid = sweep_2d(spec)
    assert grid.codes.dtype == np.uint8 and grid.codes.nbytes == grid.values.size
    assert set(grid.codes.ravel().tolist()) == {0, 1, 2}
    assert grid.provenance.tolist() == [[TAGS[c] for c in row] for row in grid.codes.tolist()]
    assert set(grid.provenance.ravel()) == {TAG_NUMERIC, TAG_CLOSED, TAG_FAILED}
    assert grid.failures == np.count_nonzero(grid.codes == TAGS.index(TAG_FAILED)) > 0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_sweep_memory_does_not_grow_with_the_row():
    # One axis-1 row of 200 000 cells: chunked, the stacked work stays a few MiB, and the
    # growth is the 8-byte values and 1-byte provenance-code grids, ≈5.3 MiB in all (44-byte
    # <U11 tags made it ≈21.7); one stack per row took ≈310 MiB.
    # VmHWM is the child's own peak; ru_maxrss carries over the peak of pytest's process.
    code = """
from zenopdc import CouplerParams, SweepAxis, SweepSpec, sweep_2d
def peak():
    status = dict(line.split(":", 1) for line in open("/proc/self/status"))
    return int(status["VmHWM"].split()[0]) / 1024
spec = SweepSpec(fixed=CouplerParams(0.5, 0.0, 1.0, 1.5), axis1=SweepAxis("gamma", 0.1, 0.5, 2),
                 axis2=SweepAxis("kappa", 0.0, 10.0, 200_000))
sweep_2d(SweepSpec(spec.fixed, spec.axis1, SweepAxis("kappa", 0.0, 10.0, 2)))
before = peak()
grid = sweep_2d(spec)
assert grid.failures == 0
print(peak() - before)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 8.0  # MiB


def test_stacked_paths_never_split_the_transfer_matrix(monkeypatch):
    # Only a map builder forms W and splits it into (U, V); every stacked path reads n from
    # the frame-free step.
    def refuse(*args):
        raise AssertionError("W formed or split on a stacked path")

    for module in (dynamics, dressed):
        monkeypatch.setattr(module, "split_transfer", refuse)
        monkeypatch.setattr(module, "transfer", refuse)
    fixed = CouplerParams(0.5, 0.0, 1.0, 1.5)
    for engine in (ENGINE_NUMERIC, ENGINE_CLOSED_WHEN_APPLICABLE):
        assert sweep_2d(SweepSpec(fixed, _axis(), _axis("delta", -1.0, 1.0, 3), engine)).failures == 0
    max_signal_over_length(0.5, 3.0, 5.0, 3.0)
    find_anti_zeno_ridge(0.5, 1.5, [3.0])
    resonant_vs_qpm(0.5, 3.0, [0.0, 1.0, 2.0])
    for build in (propagate_exact, dressed_bogoliubov_map):  # the patch is live where maps are built
        with pytest.raises(AssertionError):
            build(fixed)


def test_max_signal_over_length_raises_on_overflow():
    # occupations overflow / the exponential overflows / only the last of 601 occupations overflows
    for gamma, length_max in ((200.0, 2.5), (1000.0, 2.5), (118.6, 3.0)):
        with pytest.raises(NumericError):
            max_signal_over_length(gamma, 0.0, 0.0, length_max)
    with pytest.raises(InvalidParameterError):
        max_signal_over_length(0.5, -1.0, 0.0, 2.5)


def test_sweep_rejects_bad_threads():
    spec = SweepSpec(
        fixed=CouplerParams(0.5, 0.0, 0.0, 1.0),
        axis1=_axis("kappa"),
        axis2=_axis("delta", -1.0, 1.0, 3),
    )
    with pytest.raises(InvalidParameterError):
        sweep_2d(spec, threads=0)


def test_ridge_tracks_mismatch():
    points = find_anti_zeno_ridge(0.5, 1.5, [3.0, 5.0])
    assert [p.delta for p in points] == [3.0, 5.0]
    for p in points:
        assert abs(p.kappa_opt - p.delta) <= math.sqrt(2.0) * 0.5
        assert p.n_s_max > 0.25


def test_ridge_zoom_clamps_at_zero_coupling():
    # below the hyperbolic window the unprobed point kappa = 0 is the maximum
    for p in find_anti_zeno_ridge(0.5, 1.5, [0.3, 1.0]):
        assert p.kappa_opt == 0.0
        assert p.n_s_max == pytest.approx(n_s_mismatched_uncoupled(0.5, p.delta, 1.5).n_s, rel=1e-12)


def test_ridge_kappa_opt_is_the_maximizer_to_tolerance():
    tol = 1e-6
    for p in find_anti_zeno_ridge(0.5, 1.5, [3.0, 5.0, 8.0, 10.0]):
        kappas = p.kappa_opt + tol * np.linspace(-4.0, 4.0, 33)
        n, ok = propagate_batch(0.5, kappas, p.delta, 1.5)
        assert ok.all()
        assert n[:, 0].max() <= p.n_s_max * (1.0 + 1e-12)
        mapped = [vacuum_occupations(propagate_exact(CouplerParams(0.5, k, p.delta, 1.5))).n_s
                  for k in kappas]
        assert max(mapped) <= p.n_s_max * (1.0 + 1e-12)


def _sequential_ridge(gamma, length, delta, levels=None):
    """The level-by-level ridge walk: one propagation per level, each grid built around
    the argmax of the one before; ``levels`` collects each level's n_s maximum."""
    kappas = np.linspace(0.0, 2.0 * delta, sweeps._SCAN_POINTS)
    w, level = float(kappas[1]), "scan"
    while True:
        n, ok = propagate_batch(gamma, kappas, delta, length)
        n_s = n[..., 0]
        require_ok(ok, f"ridge {level} at delta={delta}")
        if level == "scan" and n_s.max() <= n_s.min() * (1.0 + 1e-6):
            warnings.warn(f"flat signal landscape at delta={delta}; refinement is meaningless",
                          FlatLandscapeWarning)
        best = int(np.argmax(n_s))
        k_opt, n_max = float(kappas[best]), float(n_s[best])
        if levels is not None:
            levels.append(n_s.max())
        if w <= 1e-6:
            return RidgePoint(delta=delta, kappa_opt=k_opt, n_s_max=n_max)
        kappas, w, level = np.maximum(k_opt + w * sweeps._ZOOM_OFFSETS, 0.0), w / 16.0, "zoom"


def _chained_ridge(gamma, length, delta):
    (point,) = find_anti_zeno_ridge(gamma, length, [delta])
    return point


def _outcome(ridge, *args):
    """repr of a ridge's result or NumericError message, and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(ridge(*args))
        except NumericError as exc:
            result = f"NumericError: {exc}"
    return result, [(w.category, str(w.message)) for w in caught]


def _ridge_draws(seed, count, lengths=(0.05, 8.0)):
    rng = np.random.default_rng(seed)
    ranges = [(1e-3, 1.0), (0.05, 20.0), (10.0, 300.0)]
    return [(rng.uniform(0.01, 3.0), rng.uniform(*lengths), rng.uniform(*ranges[i % 3]))
            for i in range(count)]


EDGE_DELTAS = [1e-9, 0.3, 1.0, 3.0, 5.0, 10.0, 1e6, 1e10]  # flat, κ = 0, typical, below float spacing


def test_chained_ridge_is_the_sequential_ridge():
    # The chain only decides which exact levels are evaluated early: every point, error and
    # warning is bitwise the level-by-level walk's.
    draws = _ridge_draws(25, 90) + [(0.5, 1.5, delta) for delta in EDGE_DELTAS]
    draws += [(0.5, 1e-7, 5.0)]  # flat landscape
    for gamma, length, delta in draws:
        chained = _outcome(_chained_ridge, gamma, length, delta)
        assert chained == _outcome(_sequential_ridge, gamma, length, delta), (gamma, length, delta)


def test_chained_ridge_raises_the_sequential_error_in_the_overflow_region():
    draws = _ridge_draws(26, 24, lengths=(100.0, 1500.0))
    errors = 0
    for gamma, length, delta in draws:
        chained = _outcome(_chained_ridge, gamma, length, delta)
        assert chained == _outcome(_sequential_ridge, gamma, length, delta), (gamma, length, delta)
        errors += chained[0].startswith("NumericError")
    assert 0 < errors < len(draws)  # both outcomes are exercised


def test_missed_predictions_and_failing_speculative_cells_change_nothing(monkeypatch):
    # Every predicted centre misses, and every cell after a call's first grid reports
    # failure: each call then consumes only its exact first level, which must neither
    # raise nor warn because of the levels it discards.
    chain, signal = sweeps._zoom_chain, sweeps._signal
    calls = []

    def missing(kappas, n_s, best, w):
        centers, grids = chain(kappas, n_s, best, w)
        return centers[:1] + [math.nan] * (len(centers) - 1), grids

    def failing(gamma, kappa, delta, length):
        n_s, ok = signal(gamma, kappa, delta, length)
        calls.append(kappa.size)
        if kappa.size % sweeps._ZOOM_OFFSETS.size == 0:  # a chain of zoom grids
            ok = ok.copy()
            ok[sweeps._ZOOM_OFFSETS.size :] = False
        return n_s, ok

    monkeypatch.setattr(sweeps, "_zoom_chain", missing)
    monkeypatch.setattr(sweeps, "_signal", failing)
    draws = _ridge_draws(27, 15) + [(0.5, 1.5, delta) for delta in EDGE_DELTAS]
    draws += _ridge_draws(28, 6, lengths=(100.0, 1500.0)) + [(0.5, 1e-7, 5.0)]
    for gamma, length, delta in draws:
        levels, calls[:] = [], []
        chained = _outcome(_chained_ridge, gamma, length, delta)
        expected = _outcome(_sequential_ridge, gamma, length, delta, levels)
        assert chained == expected, (gamma, length, delta)
        # one level per call; a level that raises is evaluated but not collected
        assert len(calls) == len(levels) + chained[0].startswith("NumericError")


@pytest.mark.parametrize("delta, levels", [(1e-9, 1), (3.0, 5), (5.0, 5), (10.0, 6), (1e10, 13)])
def test_ridge_levels_are_bounded_and_never_lose_signal(monkeypatch, delta, levels):
    # The scan, then ceil(log16(h / 1e-6)) zoom levels for the scan spacing h = 2Δ/256,
    # however large κ is; the chained ridge evaluates them in at most as many calls.
    maxima, calls = [], []

    def spy(gamma, kappa, delta, length):
        calls.append(kappa.size)
        return signal(gamma, kappa, delta, length)

    signal = sweeps._signal
    monkeypatch.setattr(sweeps, "_signal", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FlatLandscapeWarning)  # Δ = 1e-9 is flat
        (point,) = find_anti_zeno_ridge(0.5, 1.5, [delta])
        reference = _sequential_ridge(0.5, 1.5, delta, maxima)
    h = 2.0 * delta / 256.0
    assert len(maxima) == levels == 1 + max(0, math.ceil(math.log(h / 1e-6, 16)))
    # the middle zoom offset re-evaluates κ_opt (bit-identically), so no level loses signal
    assert all(a <= b for a, b in zip(maxima, maxima[1:]))
    assert repr(point) == repr(reference) and point.n_s_max == maxima[-1]
    assert len(calls) <= levels
    if delta in (3.0, 5.0, 10.0):
        assert len(calls) <= 3


def test_ridge_input_validation():
    with pytest.raises(InvalidParameterError):
        find_anti_zeno_ridge(0.0, 1.5, [5.0])
    with pytest.raises(InvalidParameterError):
        find_anti_zeno_ridge(0.5, 0.0, [5.0])
    with pytest.raises(InvalidParameterError):
        find_anti_zeno_ridge(0.5, 1.5, [-1.0])
    with pytest.raises(InvalidParameterError):
        find_anti_zeno_ridge(0.5, 1.5, [0.0])
    with pytest.raises(InvalidParameterError):  # the scan end 2*delta overflows
        find_anti_zeno_ridge(0.5, 1.5, [1e308])


def test_flat_landscape_warns():
    with pytest.warns(FlatLandscapeWarning):
        find_anti_zeno_ridge(0.5, 1e-7, [5.0])


@pytest.mark.parametrize("rise, flat", [(0.5e-6, True), (2e-6, False)])
def test_flat_landscape_is_a_scan_varying_by_at_most_a_millionth(monkeypatch, rise, flat):
    # A smooth peak at kappa = delta whose scan max/min is 1 + rise, to rounding.
    def peak(gamma, kappa, delta, length):
        n_s = 1.0 + rise * np.exp(-((kappa - delta) ** 2))
        return n_s, np.ones(n_s.shape, dtype=bool)

    monkeypatch.setattr(sweeps, "_signal", peak)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (point,) = find_anti_zeno_ridge(0.5, 1.5, [5.0])
    assert [w.category for w in caught] == ([FlatLandscapeWarning] if flat else [])
    assert point.kappa_opt == pytest.approx(5.0, abs=1e-4)  # a peak this flat rounds near its top


def test_ridge_linearity_recovers_synthetic_line():
    points = [RidgePoint(delta=d, kappa_opt=1.02 * d - 0.04, n_s_max=0.3) for d in (3.0, 5.0, 7.0, 9.0)]
    slope, intercept, residual = ridge_linearity(points)
    assert slope == pytest.approx(1.02, abs=1e-12)
    assert intercept == pytest.approx(-0.04, abs=1e-12)
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_ridge_linearity_needs_three_points():
    pts = [RidgePoint(3.0, 3.0, 0.3), RidgePoint(5.0, 5.0, 0.3)]
    with pytest.raises(InvalidParameterError):
        ridge_linearity(pts)


def test_max_signal_over_length():
    # strong probing freezes conversion at every length
    peak = max_signal_over_length(0.5, 16.0, 0.0, 3.0)
    assert 0.0 < peak < 0.005
    # without the probe the signal keeps growing, so the peak sits at the end
    free = max_signal_over_length(0.5, 0.0, 0.0, 3.0)
    assert free == pytest.approx(math.sinh(1.5) ** 2, rel=1e-9)


def test_suppression_map_structure():
    # Length x coupling map at delta = 5: the uncoupled column oscillates at
    # small amplitude, the resonant column (kappa = delta, inside the
    # hyperbolic window) grows monotonically, and detuned columns stay small.
    spec = SweepSpec(
        fixed=CouplerParams(0.5, 0.0, 5.0, 0.0),
        axis1=SweepAxis(name="length", start=0.0, stop=3.0, count=61),
        axis2=SweepAxis(name="kappa", start=0.0, stop=10.0, count=101),
    )
    grid = sweep_2d(spec)
    uncoupled = grid.values[:, 0]
    assert uncoupled.max() <= 0.05
    assert np.any(np.diff(uncoupled) < 0.0)  # oscillates, never runs away
    resonant = grid.values[:, 50]
    assert spec.axis2.grid()[50] == 5.0
    assert np.all(np.diff(resonant) >= 0.0)
    assert resonant[-1] > 1.0
    for j in (20, 80):  # kappa = 2, 8: outside the revival band
        assert grid.values[:, j].max() <= 0.1


def test_zero_gain_grid_is_identically_zero():
    grid = sweep_2d(
        SweepSpec(
            fixed=CouplerParams(0.0, 0.0, 0.0, 1.0),
            axis1=SweepAxis(name="kappa", start=0.0, stop=4.0, count=5),
            axis2=SweepAxis(name="delta", start=-3.0, stop=3.0, count=7),
        )
    )
    assert np.all(grid.values == 0.0)
    assert grid.failures == 0
    assert np.all(grid.provenance == TAG_NUMERIC)
