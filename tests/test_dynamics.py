"""Propagator core: generator, exact/ODE maps, invariants, composition."""

import importlib.util
import inspect
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zenopdc import (
    BogoliubovMap,
    CouplerParams,
    IntegrationError,
    InvalidParameterError,
    NumericError,
    build_generator,
    check_symplectic,
    compose,
    dressed_bogoliubov_map,
    n_s_mismatched_uncoupled,
    propagate_batch,
    propagate_dressed,
    propagate_exact,
    propagate_lengths,
    propagate_ode,
    vacuum_occupations,
)
from zenopdc import dynamics
from zenopdc.dynamics import expm_i, occupation_numbers, split_transfer, transfer
from zenopdc.params import valid_cells

from conftest import MAP_RTOL, draw_supported, supported_params


def test_generator_matched_coupled():
    m = build_generator(CouplerParams(0.5, 1.0, 0.0, 1.0))
    expected = np.array([[0.0, 0.5, 0.0], [-0.5, 0.0, -1.0], [0.0, -1.0, 0.0]])
    np.testing.assert_allclose(m, expected, atol=0)


def test_generator_mismatched_uncoupled():
    m = build_generator(CouplerParams(0.5, 0.0, 5.0, 1.0))
    expected = np.array([[2.5, 0.5, 0.0], [-0.5, -2.5, 0.0], [0.0, 0.0, -2.5]])
    np.testing.assert_allclose(m, expected, atol=0)


def test_matched_growth_value():
    occ = vacuum_occupations(propagate_exact(CouplerParams(0.5, 0.0, 0.0, 1.0)))
    assert occ.n_s == pytest.approx(math.sinh(0.5) ** 2, abs=1e-12)
    assert occ.n_b == pytest.approx(0.0, abs=1e-12)


def test_zero_length_is_identity():
    for prop in (propagate_exact, propagate_ode):
        bmap = prop(CouplerParams(0.7, 3.0, -2.0, 0.0))
        np.testing.assert_allclose(bmap.u_block, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(bmap.v_block, np.zeros((3, 3)), atol=1e-15)


def test_map_blocks_are_write_protected():
    bmap = propagate_exact(CouplerParams(0.5, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        bmap.u_block[0, 0] = 0.0
    with pytest.raises(ValueError):
        bmap.v_block[0, 0] = 0.0


def test_every_map_is_read_only():
    # The class write-protects its blocks, also when built by hand from writable arrays.
    params = CouplerParams(0.5, 1.0, 0.3, 1.2)
    exact = propagate_exact(params)
    maps = [
        BogoliubovMap(np.eye(3, dtype=complex), np.zeros((3, 3), dtype=complex), params),
        exact,
        propagate_ode(params),
        compose(exact, exact),
        dressed_bogoliubov_map(params),
    ]
    for bmap in maps:
        assert not bmap.u_block.flags.writeable
        assert not bmap.v_block.flags.writeable


def test_a_map_built_from_views_keeps_its_blocks_when_the_base_changes():
    # A view's base stays writable, so the map must own a copy of a block that is a view.
    params = CouplerParams(0.5, 1.0, 0.3, 1.2)
    exact = propagate_exact(params)
    u, v = exact.u_block.copy(), exact.v_block.copy()
    bmap = BogoliubovMap(u[:], v[:], params)
    u[...], v[...] = 7.0, -7.0
    assert np.array_equal(bmap.u_block, exact.u_block)
    assert np.array_equal(bmap.v_block, exact.v_block)
    assert not bmap.u_block.flags.writeable and not bmap.v_block.flags.writeable
    assert u.flags.writeable  # the caller's arrays are left alone


@settings(deadline=None)
@given(supported_params())
def test_symplectic_identities(params):
    assert check_symplectic(propagate_exact(params)) <= 1e-10


@settings(deadline=None)
@given(supported_params())
def test_pair_conservation(params):
    occ = vacuum_occupations(propagate_exact(params))
    assert abs(occ.n_s - occ.n_i - occ.n_b) <= 1e-10
    assert occ.n_s >= 0.0 and occ.n_i >= 0.0 and occ.n_b >= 0.0


@settings(deadline=None, max_examples=50)
@given(supported_params(max_gamma=1.5), st.floats(min_value=0.25, max_value=4.0))
def test_scaling_invariance(params, c):
    base = vacuum_occupations(propagate_exact(params))
    scaled = vacuum_occupations(propagate_exact(params.rescaled(c)))
    for name in ("n_s", "n_i", "n_b"):
        assert getattr(scaled, name) == pytest.approx(getattr(base, name), abs=1e-9, rel=1e-9)


def test_composition_matches_single_segment():
    rng = np.random.default_rng(42)
    for _ in range(50):
        p = draw_supported(rng, max_gamma=1.5)
        if p.length == 0.0:
            continue
        split = rng.uniform(0.0, 1.0)
        first = CouplerParams(p.gamma, p.kappa, p.delta, split * p.length)
        second = CouplerParams(p.gamma, p.kappa, p.delta, (1.0 - split) * p.length)
        joined = compose(propagate_exact(second), propagate_exact(first))
        whole = propagate_exact(p)
        np.testing.assert_allclose(joined.u_block, whole.u_block, atol=1e-10)
        np.testing.assert_allclose(joined.v_block, whole.v_block, atol=1e-10)
        assert joined.params.length == pytest.approx(p.length)


def test_compose_rejects_mismatched_couplers():
    a = propagate_exact(CouplerParams(0.5, 1.0, 0.0, 1.0))
    b = propagate_exact(CouplerParams(0.6, 1.0, 0.0, 1.0))
    with pytest.raises(InvalidParameterError):
        compose(b, a)
    p = CouplerParams(0.5, 1.0, 0.0, 1.0)
    with pytest.raises(InvalidParameterError, match="identical mode bases"):
        compose(dressed_bogoliubov_map(p), propagate_exact(p))


def test_ode_oracle_agrees_with_exact():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(40):
        p = draw_supported(rng)
        exact = propagate_exact(p)
        ode = propagate_ode(p)
        scale = max(
            1.0,
            float(np.max(np.abs(exact.u_block))),
            float(np.max(np.abs(exact.v_block))),
        )
        diff = max(
            float(np.max(np.abs(exact.u_block - ode.u_block))),
            float(np.max(np.abs(exact.v_block - ode.v_block))),
        )
        worst = max(worst, diff / scale)
    # Contract: agree within 10x the integrator step tolerance (1e-10).
    assert worst <= 1e-9


def test_stacked_ode_oracle_agrees_with_exact_in_every_cell():
    # One lockstep integration of many cells: the step size follows the worst cell,
    # so every cell must still meet the single-cell contract, the defective points
    # (κ = Γ at Δ = 0, |Δ| = 2Γ at κ = 0) and a zero length included.
    rng = np.random.default_rng(11)
    cells = [draw_supported(rng) for _ in range(40)] + [
        CouplerParams(0.5, 0.5, 0.0, 2.0),
        CouplerParams(0.5, 0.0, 1.0, 2.0),
        CouplerParams(0.5, 0.0, -1.0, 2.0),
        CouplerParams(0.7, 3.0, -2.0, 0.0),
    ]
    g, k, d, length = _columns(cells)
    u, v = split_transfer(dynamics._ode_transfer(g * length, k * length, d * length))
    for i, params in enumerate(cells):
        exact = propagate_exact(params)
        scale = max(1.0, float(np.max(np.abs(exact.u_block))), float(np.max(np.abs(exact.v_block))))
        diff = max(float(np.max(np.abs(exact.u_block - u[i]))),
                   float(np.max(np.abs(exact.v_block - v[i]))))
        assert diff <= 1e-9 * scale, params


def test_ode_oracle_rejects_steps_and_still_meets_its_contract():
    # At (Γ, κ, Δ, L) = (10, 30, 30, 1) the step controller overshoots and must shrink
    # its step; a line trace of _ode_transfer counts the runs of its rejection branch.
    lines, first = inspect.getsourcelines(dynamics._ode_transfer)
    branch = first + next(i for i, line in enumerate(lines) if "rejected = True" in line)
    code, rejections = dynamics._ode_transfer.__code__, []

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None

        def on_line(frame, event, arg):
            if event == "line" and frame.f_lineno == branch:
                rejections.append(frame.f_lineno)
            return on_line

        return on_line

    params = CouplerParams(10.0, 30.0, 30.0, 1.0)
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        ode = propagate_ode(params)
    finally:
        sys.settrace(previous)
    assert rejections
    exact = propagate_exact(params)
    scale = max(1.0, np.abs(exact.u_block).max(), np.abs(exact.v_block).max())
    diff = max(np.abs(exact.u_block - ode.u_block).max(), np.abs(exact.v_block - ode.v_block).max())
    assert diff <= 1e-9 * scale  # the oracle's contract: 10x its tolerance of 1e-10


def test_ode_oracle_raises_when_its_step_budget_runs_out(monkeypatch):
    # κL = 30 takes about a thousand steps; with a budget of 10 the oracle must stop.
    monkeypatch.setattr(dynamics, "_ODE_STEP_BUDGET", 10)
    with pytest.raises(IntegrationError, match="budget of 10 steps"):
        propagate_ode(CouplerParams(0.5, 10.0, 10.0, 3.0))


def test_uncoupled_unmatched_is_pure_probe_rotation():
    # With gamma = 0 the idler-probe pair just rotates, for any mismatch:
    # the frame phases cancel exactly and no pairs are created.
    for delta in (0.0, 3.7, -8.0):
        p = CouplerParams(0.0, 2.0, delta, 1.3)
        bmap = propagate_exact(p)
        c, s = math.cos(2.0 * 1.3), math.sin(2.0 * 1.3)
        np.testing.assert_allclose(bmap.v_block, np.zeros((3, 3)), atol=1e-14)
        np.testing.assert_allclose(bmap.u_block[0, 0], 1.0, atol=1e-14)
        np.testing.assert_allclose(
            bmap.u_block[1:, 1:], [[c, -1j * s], [-1j * s, c]], atol=1e-13
        )
        occ = vacuum_occupations(bmap)
        assert occ.n_s == pytest.approx(0.0, abs=1e-14)


def test_near_defective_coupling_stays_accurate():
    # kappa -> gamma at delta = 0, and delta -> 2 gamma at kappa = 0, each
    # collapse two generator eigenvalues onto a defective generator; the
    # matrix exponential must not lose accuracy on or near that set.
    for eps in (0.0, 1e-12, 1e-9, 1e-7):
        p = CouplerParams(0.5, 0.5 * (1.0 + eps), 0.0, 2.0)
        bmap = propagate_exact(p)
        assert check_symplectic(bmap) <= 1e-10
        occ = vacuum_occupations(bmap)
        # at threshold: n_s = (gamma L)^2 + (gamma L)^4 / 4
        gl = 0.5 * 2.0
        assert occ.n_s == pytest.approx(gl**2 + gl**4 / 4.0, rel=1e-6)

        p = CouplerParams(0.5, 0.0, 2.0 * 0.5 * (1.0 + eps), 2.0)
        bmap = propagate_exact(p)
        assert check_symplectic(bmap) <= 1e-10
        exact = n_s_mismatched_uncoupled(p.gamma, p.delta, p.length).n_s
        assert vacuum_occupations(bmap).n_s == pytest.approx(exact, rel=1e-12)


def test_occupation_overflow_raises():
    with pytest.raises(NumericError):
        vacuum_occupations(propagate_exact(CouplerParams(200.0, 0.0, 0.0, 2.5)))


def test_symplectic_residual_detects_doctored_map():
    # A deliberately unphysical map (V doubled) must light up the residual:
    # U U† - 4 V V† - I = -3 V V† up to roundoff, so the max-norm residual
    # is at least 3 * max|V|^2.
    bmap = propagate_exact(CouplerParams(0.8, 1.0, 2.0, 1.5))
    doctored = replace(bmap, v_block=2.0 * bmap.v_block)
    v_peak = float(np.max(np.abs(bmap.v_block)))
    assert v_peak > 0.1
    assert check_symplectic(doctored) >= 3.0 * v_peak**2 - 1e-12


def test_symplectic_residual_detects_an_asymmetric_u_v_transpose():
    # V·diag(i, 1, 1) keeps U U† - V V† = I, as diag(i, 1, 1) is unitary, but
    # U Vᵀ is no longer symmetric: only the second identity can see it.
    bmap = propagate_exact(CouplerParams(0.8, 1.0, 2.0, 1.5))
    doctored = replace(bmap, v_block=bmap.v_block * np.array([1j, 1.0, 1.0]))
    u, v = doctored.u_block, doctored.v_block
    assert np.max(np.abs(u @ u.conj().T - v @ v.conj().T - np.eye(3))) <= 1e-14
    assert check_symplectic(doctored) >= 1.0


def test_import_leaves_the_ode_integrator_unloaded():
    # scipy.integrate serves only the ODE oracle; importing the package must
    # not pay for it.
    code = "import sys, zenopdc; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_and_exact_commands_leave_scipy_unloaded():
    # The matrix exponential is numpy-only; scipy loads only with the ODE oracle.
    code = (
        "import contextlib, io, sys, zenopdc\n"
        "from zenopdc import cli\n"
        "loaded = ['scipy' in sys.modules]\n"
        "for argv in (['simulate'], ['sweep', '--config', 'fig2'],\n"
        "             ['ridge', '--delta', '3:10:8']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    loaded.append('scipy' in sys.modules)\n"
        "print(loaded)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False, False]"


@pytest.mark.parametrize("blocked", [False, True])
def test_ode_engine_neither_loads_nor_needs_scipy(blocked):
    # The ODE oracle is numpy-only.  sys.modules["scipy"] = None makes every scipy
    # import raise ImportError, as if scipy were not installed.
    code = (
        "import contextlib, io, sys\n"
        f"if {blocked}:\n"
        "    sys.modules['scipy'] = None\n"
        "from zenopdc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['simulate', '--engine', 'ode']) == 0\n"
        "print(sys.modules.get('scipy', 'unloaded'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ("None" if blocked else "unloaded")


@pytest.mark.filterwarnings("error")
def test_non_finite_slice_is_nan_and_leaves_the_rest_of_the_stack_alone():
    m = np.stack([build_generator(CouplerParams(g, k, d, 1.0))
                  for g, k, d in [(0.5, 1.0, 3.0), (0.5, 2.0, -1.0), (0.7, 0.0, 0.0),
                                  (0.5, 3.0, 5.0), (1000.0, 0.0, 0.0), (0.2, 0.2, 0.0)]])
    t = np.array([1.5, 1.5, np.inf, 2.0, 2.5, 1e-3])  # inf * 0 entries: NaN generator
    m[1, 0, 1] = np.inf
    m[3, 2, 2] = np.nan
    w = expm_i(m, t)
    for i in (1, 2, 3):
        assert np.isnan(w[i]).all()
    assert not np.isfinite(w[4]).all()  # exp(ΓL = 2500) overflows, in its own slice only
    for i in range(len(m)):
        assert np.array_equal(w[i], expm_i(m[i], t[i]), equal_nan=True)
    assert np.isfinite(w[[0, 5]]).all()


def _squarings(m, t):
    """The scaling s = max(0, ⌈log2(‖A‖₁/θ₁₃)⌉) of A = i m t, per matrix of a stack."""
    norm = np.abs(np.asarray(t)[..., None, None] * m).sum(axis=-2).max(axis=-1)
    return np.ceil(np.log2(norm / dynamics._THETA_13)).clip(0)


def test_expm_i_matches_scipy_expm():
    sla = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(15)
    cells = [draw_supported(rng) for _ in range(200)]
    for gamma in (0.3, 0.5, 1.5):  # the defective points and their near neighbours
        for eps in (0.0, 1e-9, -1e-9, 1e-7, -1e-7):
            cells += [CouplerParams(gamma, gamma * (1 + eps), 0.0, 2.0),
                      CouplerParams(gamma, 0.0, 2 * gamma * (1 + eps), 2.0),
                      CouplerParams(gamma, 0.0, -2 * gamma * (1 + eps), 2.0)]
    m = np.stack([build_generator(p) for p in cells])
    t = np.array([p.length for p in cells])
    # one generator over lengths that take 0, 1, ..., 7 squarings
    m_k = build_generator(CouplerParams(0.05, 8.0, 6.0, 1.0))
    t_k = 0.75 * dynamics._THETA_13 * 2.0 ** np.arange(8) / np.abs(m_k).sum(axis=0).max()
    assert list(_squarings(m_k, t_k)) == list(range(8))
    m = np.concatenate([m, np.broadcast_to(m_k, (8, 3, 3))])
    t = np.concatenate([t, t_k])
    w = expm_i(m, t)
    for i in range(len(m)):
        ref = sla.expm(1j * m[i] * t[i])
        assert np.max(np.abs(w[i] - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref))), i


@pytest.mark.filterwarnings("error")
def test_masked_squarings_leave_every_slice_as_it_is_alone():
    # Cells with fewer squarings compute the stack's extra products and discard
    # them; here the cell that takes 50 squarings drives every other cell's
    # discarded products to overflow, and none of it may reach a kept slice.
    m_gain = build_generator(CouplerParams(1.0, 0.5, 0.3, 1.0))
    m_osc = build_generator(CouplerParams(0.0, 2.0, 3.0, 1.0))
    norm_gain, norm_osc = np.abs(m_gain).sum(axis=0).max(), np.abs(m_osc).sum(axis=0).max()
    theta = dynamics._THETA_13
    m = np.stack([m_gain, m_osc, m_gain, m_osc, m_osc, m_gain, m_osc, m_osc])
    t = np.array([0.9 * theta / norm_gain, 1.5 * theta / norm_osc, 1.0, 6.0 * theta / norm_osc,
                  0.75 * 2.0**50 * theta / norm_osc, 40.0 * theta / norm_gain,
                  2.0**54 * theta / norm_osc, 1.0])
    m[2, 1, 0] = np.nan  # a NaN generator
    s = _squarings(m, t)
    assert list(s[[0, 1, 3, 4, 5, 6]]) == [0, 1, 3, 50, 6, 54] and np.isnan(s[2])
    w = expm_i(m, t)
    assert np.isnan(w[[2, 6]]).all()  # NaN, and beyond 52 squarings
    assert np.isfinite(w[[0, 1, 3, 4, 5, 7]]).all()
    for i in range(len(m)):
        assert np.array_equal(w[i], expm_i(m[i], t[i]), equal_nan=True), i


@pytest.mark.filterwarnings("error")
def test_expm_i_gives_up_after_exactly_52_squarings():
    # The edge expm_i's docstring states: a unitary exp(i m t) that takes 52
    # squarings still comes back finite, one that takes 53 comes back NaN.
    m = build_generator(CouplerParams(0.0, 2.0, 3.0, 1.0))
    t = 0.75 * 2.0 ** np.array([52, 53]) * dynamics._THETA_13 / np.abs(m).sum(axis=0).max()
    assert list(_squarings(m, t)) == [52, 53]
    w = expm_i(m, t)
    assert np.isfinite(w[0]).all() and np.isnan(w[1]).all()


#: Entries that stress a product's rounding and special cases.
_EDGE_ENTRIES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, np.finfo(float).max, 5e-324]


@settings(deadline=None, max_examples=60)
@given(n=st.sampled_from([1, 2, 33, 512, 513]), seed=st.integers(0, 2**32 - 1),
       edge_share=st.sampled_from([0.0, 0.05, 0.5, 1.0]), stacked=st.booleans())
def test_real_plane_products_are_bitwise_multiply_then_sum(n, seed, edge_share, stacked):
    # The kernel's real 3×3 products must be bitwise the terms multiplied and then summed
    # in order; an einsum that fused (FMA) or reordered the sum would break it.  The sign
    # of a NaN is not a value: where a NaN from the operands (positive) and one made by
    # inf·0 (negative on x86) meet, einsum keeps the product's NaN and the summed terms
    # the accumulator's, so NaNs are compared by place only.
    rng = np.random.default_rng(seed)

    def planes(*lead):
        x = rng.standard_normal((*lead, 3, 3, n)) * 10.0 ** rng.integers(-300, 300, (*lead, 3, 3, n))
        edge = rng.random(x.shape) < edge_share
        x[edge] = rng.choice(_EDGE_ENTRIES, np.count_nonzero(edge))
        return x

    x, y = planes(), planes(*(2,) * stacked)
    with np.errstate(all="ignore"):
        want = (x[:, :, None] * y[..., None, :, :, :]).sum(axis=-3)
        out = np.full(want.shape, 7.0)  # a reused buffer's stale contents must not count
        got = dynamics._mul_real(x, y, out)
    assert got is out
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_a_reused_workspace_leaves_nothing_for_the_next_stack(monkeypatch):
    # Successive calls in one thread share its kernel workspace: stacks with invalid,
    # overflowing and 3-squaring cells, then stacks that need no squaring, then a shorter
    # stack, then 512 and 513 cells of all of those (513 are too many for the workspace
    # and get planes of their own), then a short stack again.  Each is bitwise the stack
    # as a new thread's first call and, cell by cell, propagate_batch of one cell.
    stacks = [
        ([-1.0, 200.0, 0.5, 0.5, 1000.0], [0.5, 0.0, 1.0, np.nan, 0.0], [0.0, 0.0, 20.0, 1.0, 0.0],
         [1.0, 2.5, 2.0, 1.0, 2.5]),
        ([0.5, 0.5, 300.0, 0.3, -0.2], [1.0, 0.2, 1.0, 9.0, 1.0], [-20.0, 19.0, 2.0, 0.0, 1.0],
         [2.0, 2.0, 2.5, 2.5, 1.0]),
        ([0.5, 0.2, 0.0, 0.7, 0.5], [1.0, 0.5, 0.3, 0.0, 0.5], [1.0, -2.0, 0.0, 0.5, 0.0],
         [1.0, 0.5, 2.0, 1.5, 0.0]),
        ([0.5, 0.2, 0.1, 0.6, 0.4], [0.5, 1.0, 0.3, 0.6, 1.0], [-1.0, 1.0, 2.0, -0.5, 0.3],
         [1.5, 1.0, 1.0, 2.0, 1.0]),
        ([0.5, 0.1], [0.5, 2.0], [1.0, -1.0], [1.0, 0.5]),
    ]
    with np.errstate(divide="ignore"):  # log2 of the zero norm at L = 0
        squarings = [_squarings(dynamics._generators(*np.nan_to_num(s[:3])), np.asarray(s[3]))
                     for s in stacks]
    assert [np.count_nonzero(s == 3) for s in squarings] == [1, 2, 0, 0, 0]
    assert [int(s.max()) for s in squarings] == [9, 8, 0, 0, 0]
    wide = np.tile(np.concatenate([np.array(s) for s in stacks], axis=1), 24)
    assert dynamics.STACK_CELLS == 512
    stacks += [tuple(wide[:, :512]), tuple(wide[:, :513]), stacks[1]]
    planes, in_workspace = dynamics._planes, []

    def spy(n):
        got = planes(n)
        in_workspace.append(np.shares_memory(got[0], dynamics._THREAD.workspace[0]))
        return got

    oks = []
    for stack in stacks:
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_planes", spy)
            got = propagate_batch(*stack)
        for array, want in zip(got, _in_a_new_thread(lambda: propagate_batch(*stack))):
            assert array.tobytes() == want.tobytes()
        for i, cell in enumerate(zip(*stack)):
            for array, want in zip(got, propagate_batch(*cell)):
                assert array[i].tobytes() == want.tobytes()
        oks.append(got[1].tolist())
    assert in_workspace == [True] * 6 + [False, True]
    assert oks[:2] == [[False, False, True, False, False], [True, True, False, True, False]]
    assert all(all(ok) for ok in oks[2:5])
    assert oks[6] == (sum(oks[:5], []) * 24)[:513] and oks[5] == oks[6][:512]
    assert oks[7] == oks[1]


def _in_a_new_thread(job):
    """``job()`` run in a new thread, whose kernel workspace and plane views start empty."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(job).result(timeout=60)


def test_no_output_is_a_view_of_the_cached_workspace():
    # A thread's plane views are kept per stack size and reused by its next kernel call of
    # that size, so an output that viewed the workspace would be overwritten by that call.
    # Every output of the kernel and of the routes through it must be memory of its own
    # that a second round of calls of the same sizes, with other inputs, leaves as it was.
    def outputs(gamma, kappa, delta, length):
        p = CouplerParams(gamma, kappa, delta, length)
        kappas = np.linspace(0.0, 2.0 * kappa, 33)
        bmap = dressed_bogoliubov_map(p)
        return [
            expm_i(build_generator(p), length),
            expm_i(dynamics._generators(*np.broadcast_arrays(gamma, kappas, delta)), length),
            *propagate_batch(gamma, kappas, delta, length),
            *propagate_batch(gamma, kappa, delta, length),
            *propagate_lengths(gamma, kappa, delta, length, 601),
            bmap.u_block, bmap.v_block, *vars(propagate_dressed(p)).values(),
        ]

    def job():
        first = outputs(0.5, 8.0, 6.0, 3.0)  # 3 squarings
        held = [np.array(a, copy=True) for a in first]
        second = outputs(0.3, 1.0, -2.0, 1.0)
        shared = [np.shares_memory(a, buffer) for a in first + second
                  for buffer in dynamics._THREAD.workspace]
        return first, held, shared, len(dynamics._THREAD.workspace)

    first, held, shared, buffers = _in_a_new_thread(job)
    assert buffers == 12 and len(shared) == 2 * len(first) * buffers and not any(shared)
    for array, want in zip(first, held):
        assert np.asarray(array).tobytes() == want.tobytes()


def test_plane_views_are_built_once_per_size_and_bounded():
    def job():
        first = {n: dynamics._planes(n) for n in (1, 33, 512)}
        same = all(dynamics._planes(n) is views for n, views in first.items())
        for n in range(dynamics.STACK_CELLS + 200):
            dynamics._planes(n)
        wide = [dynamics._planes(dynamics.STACK_CELLS + 1)[0] for _ in range(2)]
        in_workspace = [np.shares_memory(views[0], dynamics._THREAD.workspace[0])
                        for views in first.values()]
        return same, sorted(dynamics._THREAD.views), in_workspace, wide

    same, sizes, in_workspace, wide = _in_a_new_thread(job)
    assert same and all(in_workspace)
    assert sizes == list(range(dynamics.STACK_CELLS + 1))  # a larger stack is never kept
    assert not np.shares_memory(*wide)


def _columns(cells):
    return [np.array([getattr(p, name) for p in cells]) for name in ("gamma", "kappa", "delta", "length")]


@cache
def _seeded_stack():
    """``scripts/artifact_digests.py``'s 16 × 32 stack of negative-Γ, NaN-κ, n- and W-overflowing cells."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", path)
    module, sys_path = importlib.util.module_from_spec(spec), sys.path[:]
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = sys_path
    return module.seeded_stack()


def _phased_occupations(gamma, kappa, delta, length):
    """The n and ok rule of W = diag(e^{-ih}, e^{ih}, e^{ih})·e, h = ΔL/2, cell by cell."""
    g, k, d, t, ok = valid_cells(gamma, kappa, delta, length)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.exp(1j * (0.5 * d * t))
        w = transfer(expm_i(dynamics._generators(g, k, d), t), np.conjugate(phase), phase)
        n = occupation_numbers(split_transfer(w)[1])
    return n, ok & np.isfinite(w).all(axis=(-2, -1)) & np.isfinite(n).all(axis=-1)


@settings(deadline=None, max_examples=50)
@given(st.lists(supported_params(), min_size=1, max_size=6))
@example(
    [
        CouplerParams(0.5, 0.5, 0.0, 2.0),  # kappa = gamma at delta = 0
        CouplerParams(0.5, 0.5 * (1.0 + 1e-9), 0.0, 2.0),
        CouplerParams(0.5, 0.0, 1.0, 2.0),  # |delta| = 2 gamma at kappa = 0
        CouplerParams(0.5, 0.0, -1.0 * (1.0 + 1e-7), 2.0),
        CouplerParams(0.7, 3.0, -2.0, 0.0),  # L = 0
        CouplerParams(0.0, 0.0, 0.0, 0.0),
    ]
)
def test_batch_is_bitwise_the_single_cell_propagation(cells):
    # The drawn cells follow the seeded stack's invalid and overflowing ones in one stack.
    # Each cell's n is bitwise its one-cell batch and within MAP_RTOL of its map's V block;
    # ok is the rule on the phased W and its n, and a failed cell's n is NaN.
    stack = [np.concatenate([a.ravel(), b]) for a, b in zip(_seeded_stack(), _columns(cells))]
    n, ok = propagate_batch(*stack)
    want_n, want_ok = _phased_occupations(*stack)
    assert ok.tobytes() == want_ok.tobytes() and np.isnan(n[~ok]).all()
    assert 0 < np.count_nonzero(ok[:512]) < 512 and ok[512:].all()
    np.testing.assert_allclose(n[ok], want_n[ok], rtol=MAP_RTOL, atol=0.0)
    for i, params in enumerate(cells, start=512):
        one_n, one_ok = propagate_batch(params.gamma, params.kappa, params.delta, params.length)
        assert n[i].tobytes() == one_n.tobytes() and one_ok
        map_n = occupation_numbers(propagate_exact(params).v_block)
        np.testing.assert_allclose(n[i], map_n, rtol=MAP_RTOL, atol=0.0)


@pytest.mark.parametrize("cells", [1, 33, 601])
def test_step_occupations_are_bitwise_those_of_the_split_blocks(cells):
    # n comes from four entries of e: it must be bitwise the row sums of e's V block, and ok
    # the rule on e and those sums, also where e is finite but its squares overflow.  Turning
    # W's rows by unit-modulus factors moves n by no more than MAP_RTOL.
    rng = np.random.default_rng(cells)
    g, k, d, t = (rng.uniform(lo, hi, cells) for lo, hi in ((0, 2), (0, 10), (-10, 10), (0, 3)))
    g[::3], t[::3] = 200.0, 2.5
    e = expm_i(dynamics._generators(g, k, d), t)
    first, rest = np.exp(1j * rng.uniform(-50.0, 50.0, (2, cells)))
    n, ok = dynamics.propagate_step(e)
    want = occupation_numbers(split_transfer(e)[1])
    assert np.array_equal(n, want)
    assert np.array_equal(ok, np.isfinite(e).all(axis=(1, 2)) & np.isfinite(want).all(axis=1))
    assert np.isfinite(e).all() and not ok[::3].any() and ok[1::3].all() and ok[2::3].all()
    phased = occupation_numbers(split_transfer(transfer(e, first, rest))[1])
    np.testing.assert_allclose(n[ok], phased[ok], rtol=MAP_RTOL, atol=0.0)


@pytest.mark.parametrize("stack", [(), (6,), (2, 3)])
def test_step_bytes_do_not_depend_on_the_layout_of_its_inputs(stack):
    # The step and the W helper read e as planes.  A C-order stack and a cell-fastest view of
    # the same values, with the two frame factors in C order or as strided views, in every
    # pairing, must give the bytes of diag(first, rest, rest)·e and of one n and ok, also in
    # cells with a NaN, an inf or an entry whose square overflows; a written W or n must
    # leave the inputs as they were.
    rng = np.random.default_rng(32)
    e = rng.normal(size=(*stack, 3, 3)) + 1j * rng.normal(size=(*stack, 3, 3))
    first, rest = np.exp(1j * rng.uniform(-50.0, 50.0, (2, *stack)))
    cells, rests = e.reshape(-1, 3, 3), rest.reshape(-1)  # views: writes reach e and rest
    cells[0, 0, 2] = 1e200  # n_s overflows
    if stack:
        cells[1, 1, 2], cells[2, 2, 0], rests[3] = np.nan, np.inf, np.nan
    e_planes = np.ascontiguousarray(np.moveaxis(e, (-2, -1), (0, 1)))
    strided = np.empty((2, *stack, 2), complex)  # each factor every other entry of its array
    strided[..., 0] = first, rest
    layouts = [(a, *b) for a in (e, np.moveaxis(e_planes, (0, 1), (-2, -1)))
               for b in ((first, rest), (strided[0, ..., 0], strided[1, ..., 0]))]
    held = [np.array(a, copy=True) for triple in layouts for a in triple]
    with np.errstate(over="ignore", invalid="ignore"):
        want_w = np.stack([first, rest, rest], -1)[..., :, None] * e
    results = [(transfer(*triple), *dynamics.propagate_step(triple[0])) for triple in layouts]
    assert results[0][0].tobytes() == want_w.tobytes()
    for w, n, ok in results:
        assert (w.shape, n.shape, np.shape(ok)) == (e.shape, (*stack, 3), stack)
        for got, want in zip((w, n, ok), results[0]):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    ok = np.reshape(results[0][2], -1)
    assert not ok[:3 if stack else 1].any() and ok[3:].all()  # a NaN factor is not the step's
    for w, n, _ in results:
        w[...], n[...] = 7.0, 7.0
    for array, want in zip((a for triple in layouts for a in triple), held):
        assert array.tobytes() == want.tobytes()


@pytest.mark.parametrize("e_stack, p_stack", [((6,), ((6,), None)), ((6,), ((), (6,)))])
def test_transfer_broadcasts_the_phases_over_the_rows_of_w(e_stack, p_stack):
    # A factor broadcasts to e's stack as diag(first, rest, rest)·e does: a scalar rest = 1.0
    # (None here; the dressed frame) or a 0-d first scales its rows of every W, bitwise as
    # full arrays do.
    rng = np.random.default_rng(7)
    e = rng.normal(size=(*e_stack, 3, 3)) + 1j * rng.normal(size=(*e_stack, 3, 3))
    first, rest = (1.0 if shape is None else np.exp(1j * rng.uniform(-5.0, 5.0, shape))
                   for shape in p_stack)
    want_w = np.stack(np.broadcast_arrays(first, rest, rest), -1)[..., :, None] * e
    w = transfer(e, first, rest)
    full = transfer(e, *(np.broadcast_to(f, e_stack).copy() for f in (first, rest)))
    assert w.tobytes() == want_w.tobytes() and w.shape == want_w.shape
    assert full.shape == w.shape and full.tobytes() == w.tobytes()


def test_batch_flags_invalid_and_overflowing_cells_without_raising():
    gamma = [0.5, -1.0, math.nan, 0.5, 1000.0, 200.0, 0.0139]
    kappa = [1.0, 1.0, 1.0, -0.1, 0.0, 0.0, 8.13e17]
    delta = [0.0] * 6 + [-1.35e14]
    n, ok = propagate_batch(gamma, kappa, delta, [1.0, 1.0, 1.0, 1.0, 2.5, 2.5, 17.3])
    # invalid: gamma < 0, gamma NaN, kappa < 0; not finite: the exponential
    # (gamma = 1000) and the occupations (gamma = 200); no significant digit:
    # kappa*L = 1.4e19 needs 63 squarings (n_s came back 1.2e44, not ~(2Γ/κ)² = 1e-39)
    assert ok.tolist() == [True, False, False, False, False, False, False]
    assert np.isnan(n[1:]).all() and np.isfinite(n[0]).all()
    bmap = propagate_exact(CouplerParams(0.5, 1.0, 0.0, 1.0))  # Δ = 0: the frame is the identity
    assert n[0].tobytes() == occupation_numbers(bmap.v_block).tobytes()
    with pytest.raises(NumericError):
        propagate_exact(CouplerParams(1000.0, 0.0, 0.0, 2.5))
    with pytest.raises(InvalidParameterError):
        propagate_batch([True], 0.0, 0.0, 1.0)


#: (κ, Δ) at Γ = 0.5: κ = Γ at Δ = 0 and Δ = 2Γ at κ = 0 are defective generators.
_GRID_CELLS = [(k, d) for k in (0.0, 0.5, 3.0, 20.0) for d in (0.0, 5.0)] + [(0.0, 1.0)]


def _with_exponents(call, *args):
    """``call(*args)`` and the exponent it hands to the step, taken by a spy."""
    seen, step = [], dynamics.propagate_step

    def spy(e):
        seen.append(np.array(e, copy=True))
        return step(e)

    dynamics.propagate_step = spy
    try:
        return (*call(*args), *seen)
    finally:
        dynamics.propagate_step = step


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kappa, delta", _GRID_CELLS)
def test_length_grid_matches_the_batch_on_its_linspace(kappa, delta):
    # 26, 577 and 626 are b² + 1 for b = 5, 24, 25 (the block size steps up there), and
    # 27, 577, 602 and 626 leave the last coarse block of the matrix product partly unused.
    # Each result is (n, ok, e) with e the exponent the step reads.
    for samples in (1, 2, 3, 601, 26, 27, 577, 602, 626):
        for length_max in (0.0, 3.0):
            got = _with_exponents(propagate_lengths, 0.5, kappa, delta, length_max, samples)
            want = _with_exponents(propagate_batch, 0.5, kappa, delta,
                                   np.linspace(0.0, length_max, samples))
            assert got[1].shape == (samples,) and got[1].all() and want[1].all()
            np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-15)
            # e to 1e-13 of each sample's largest entry; entry-wise only where that holds too
            # (at κ = 20 a small entry of e misses rtol 1e-12 at 577, 602 and 626 samples).
            err = np.abs(got[2] - want[2]).max(axis=(1, 2))
            assert (err <= 1e-13 * np.abs(want[2]).max(axis=(1, 2))).all()
            if samples in (1, 2, 3, 601):
                np.testing.assert_allclose(got[2], want[2], rtol=1e-12, atol=1e-15)
            again = _with_exponents(propagate_lengths, 0.5, kappa, delta, length_max, samples)
            assert all(np.array_equal(x, y) for x, y in zip(got, again))


def test_length_grid_bytes_do_not_depend_on_blas_threads():
    # The grid is one complex matrix product; with inner dimension 3 a thread split must not
    # change a byte of it (the exponent the step reads) or of (n, ok).  OPENBLAS_NUM_THREADS
    # only acts on OpenBLAS.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in str(blas.get("name", "")).lower():
        pytest.skip(f"numpy's BLAS is {blas.get('name')}, not OpenBLAS")
    code = (
        "import hashlib\n"
        "from zenopdc import dynamics\n"
        "step, seen = dynamics.propagate_step, []\n"
        "dynamics.propagate_step = lambda e: seen.append(e.tobytes()) or step(e)\n"
        "n, ok = dynamics.propagate_lengths(0.5, 3.0, 5.0, 3.0, 40001)\n"
        "print(hashlib.sha256(seen[0] + n.tobytes() + ok.tobytes()).hexdigest())\n"
    )
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


@pytest.mark.filterwarnings("error")
def test_batch_occupations_agree_with_three_phase_exponentials():
    # n and ok need no frame phases: ok must be bitwise, and n within MAP_RTOL, that of W
    # turned by exponentiating the angles (-h, h, h), h = ΔL/2, row by row, also at L = 0
    # and where ΔL overflows.  The map's phases, one exponential and its conjugate, must be
    # bitwise those three exponentials.
    rng = np.random.default_rng(22)
    g, k, d, t = (rng.uniform(lo, hi, 601) for lo, hi in ((0, 2), (0, 10), (-10, 10), (0, 3)))
    t[::4] = 0.0
    d[1::4], t[1::4] = 1e308, 10.0
    n, ok = propagate_batch(g, k, d, t)
    with np.errstate(over="ignore", invalid="ignore"):
        angles = (0.5 * d * t)[:, None] * np.array([-1.0, 1.0, 1.0])
        w = np.exp(1j * angles)[:, :, None] * expm_i(dynamics._generators(g, k, d), t)
        want = np.abs(w[:, (0, 1, 2), (1, 0, 0)]) ** 2
        want[:, 0] += np.abs(w[:, 0, 2]) ** 2
    want_ok = np.isfinite(w).all(axis=(1, 2)) & np.isfinite(want).all(axis=1)
    assert np.array_equal(ok, want_ok)
    np.testing.assert_allclose(n[ok], want[ok], rtol=MAP_RTOL, atol=0.0)
    assert ok[::4].all() and not ok[1::4].any() and ok[2::4].all() and ok[3::4].all()
    assert np.isnan(n[~ok]).all()
    for i in np.flatnonzero(ok)[:40]:
        u, v = split_transfer(w[i])
        bmap = propagate_exact(CouplerParams(g[i], k[i], d[i], t[i]))
        assert u.tobytes() == bmap.u_block.tobytes() and v.tobytes() == bmap.v_block.tobytes()


def test_length_grid_is_one_kernel_call_on_about_two_root_n_lengths(monkeypatch):
    calls = []

    def spy(m, t):
        calls.append(np.size(t))
        return expm_i(m, t)

    monkeypatch.setattr(dynamics, "expm_i", spy)
    propagate_lengths(0.5, 3.0, 5.0, 3.0, 601)
    assert calls == [50]  # 25 fine and 25 coarse lengths


def test_length_grid_flags_an_overflow_at_the_last_sample_only():
    # n_s = sinh²(ΓL) overflows float64 past ΓL ≈ 355.6: 118.6·2.995 = 355.2 and 118.6·3 = 355.8.
    n, ok = propagate_lengths(118.6, 0.0, 0.0, 3.0, 601)
    assert ok[:-1].all() and not ok[-1]
    assert np.isfinite(n[:-1]).all() and not np.isfinite(n[-1]).all()
    for args in ((-0.5, 0.0, 0.0, 3.0, 601), (0.5, 0.0, math.nan, 3.0, 601),
                 (0.5, 0.0, 0.0, -3.0, 601), (0.5, 0.0, 0.0, 3.0, 0), (0.5, 0.0, 0.0, 3.0, 2.0)):
        with pytest.raises(InvalidParameterError):
            propagate_lengths(*args)


def _rate_cases():
    """One bad or edge value per argument of propagate_lengths; only a negative Δ is valid."""
    base = (0.5, 3.0, 5.0, 3.0)
    for i, name in enumerate(("gamma", "kappa", "delta", "length_max")):
        for value in (math.nan, math.inf, -math.inf, -1.0, True, "1.0"):
            accepted = name == "delta" and value == -1.0
            args = (*base[:i], value, *base[i + 1:])
            yield pytest.param(args, accepted, id=f"{name}={value!r}")


@pytest.mark.parametrize("args, accepted", list(_rate_cases()))
def test_length_grid_rejects_exactly_what_coupler_params_rejects(args, accepted):
    # The rates and length_max are one CouplerParams, so the message names length_max "length".
    try:
        CouplerParams(*args)
        expected = None
    except InvalidParameterError as exc:
        expected = str(exc)
    assert (expected is None) == accepted
    if accepted:
        assert propagate_lengths(*args, 61)[1].all()
    else:
        with pytest.raises(InvalidParameterError) as caught:
            propagate_lengths(*args, 61)
        assert str(caught.value) == expected


@pytest.mark.parametrize("samples", [0, True, 1.5])
def test_length_grid_rejects_a_sample_count_that_is_not_an_int_of_at_least_1(samples):
    with pytest.raises(InvalidParameterError):
        propagate_lengths(0.5, 3.0, 5.0, 3.0, samples)
