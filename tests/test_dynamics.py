"""Propagator core: generator, exact/ODE maps, invariants, composition."""

import inspect
import math
import os
import subprocess
import sys
from dataclasses import replace

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
    propagate_exact,
    propagate_lengths,
    propagate_ode,
    vacuum_occupations,
)
from zenopdc import dynamics
from zenopdc.dynamics import expm_i, occupation_numbers, split_transfer

from conftest import draw_supported, supported_params


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


def _columns(cells):
    return [np.array([getattr(p, name) for p in cells]) for name in ("gamma", "kappa", "delta", "length")]


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
    w, n, ok = propagate_batch(*_columns(cells))
    assert ok.all()
    u, v = split_transfer(w)
    for i, params in enumerate(cells):
        bmap = propagate_exact(params)
        assert np.array_equal(u[i], bmap.u_block)
        assert np.array_equal(v[i], bmap.v_block)
        assert np.array_equal(n[i], occupation_numbers(bmap.v_block))


@pytest.mark.parametrize("cells", [1, 33, 601])
def test_step_occupations_are_bitwise_those_of_the_split_blocks(cells):
    # n comes from four entries of W: it must be bitwise the row sums of the V block, and ok
    # the rule on W and those sums, also where W is finite but its squares overflow.
    rng = np.random.default_rng(cells)
    g, k, d, t = (rng.uniform(lo, hi, cells) for lo, hi in ((0, 2), (0, 10), (-10, 10), (0, 3)))
    g[::3], t[::3] = 200.0, 2.5
    e = expm_i(dynamics._generators(g, k, d), t)
    w, n, ok = dynamics.propagate_step(e, np.exp(1j * rng.uniform(-50.0, 50.0, (cells, 3))))
    want = occupation_numbers(split_transfer(w)[1])
    assert np.array_equal(n, want)
    assert np.array_equal(ok, np.isfinite(w).all(axis=(1, 2)) & np.isfinite(want).all(axis=1))
    assert np.isfinite(w).all() and not ok[::3].any() and ok[1::3].all() and ok[2::3].all()


def test_batch_flags_invalid_and_overflowing_cells_without_raising():
    gamma = [0.5, -1.0, math.nan, 0.5, 1000.0, 200.0, 0.0139]
    kappa = [1.0, 1.0, 1.0, -0.1, 0.0, 0.0, 8.13e17]
    delta = [0.0] * 6 + [-1.35e14]
    w, n, ok = propagate_batch(gamma, kappa, delta, [1.0, 1.0, 1.0, 1.0, 2.5, 2.5, 17.3])
    # invalid: gamma < 0, gamma NaN, kappa < 0; not finite: the exponential
    # (gamma = 1000) and the occupations (gamma = 200); no significant digit:
    # kappa*L = 1.4e19 needs 63 squarings (n_s came back 1.2e44, not ~(2Γ/κ)² = 1e-39)
    assert ok.tolist() == [True, False, False, False, False, False, False]
    assert np.isnan(w[1:]).all()
    assert np.isnan(n[1:]).all() and np.isfinite(n[0]).all()
    bmap = propagate_exact(CouplerParams(0.5, 1.0, 0.0, 1.0))
    u, v = split_transfer(w[0])
    assert np.array_equal(u, bmap.u_block) and np.array_equal(v, bmap.v_block)
    with pytest.raises(NumericError):
        propagate_exact(CouplerParams(1000.0, 0.0, 0.0, 2.5))
    with pytest.raises(InvalidParameterError):
        propagate_batch([True], 0.0, 0.0, 1.0)


#: (κ, Δ) at Γ = 0.5: κ = Γ at Δ = 0 and Δ = 2Γ at κ = 0 are defective generators.
_GRID_CELLS = [(k, d) for k in (0.0, 0.5, 3.0, 20.0) for d in (0.0, 5.0)] + [(0.0, 1.0)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kappa, delta", _GRID_CELLS)
def test_length_grid_matches_the_batch_on_its_linspace(kappa, delta):
    # 26, 577 and 626 are b² + 1 for b = 5, 24, 25 (the block size steps up there), and
    # 27, 577, 602 and 626 leave the last coarse block of the matrix product partly unused.
    for samples in (1, 2, 3, 601, 26, 27, 577, 602, 626):
        for length_max in (0.0, 3.0):
            got = propagate_lengths(0.5, kappa, delta, length_max, samples)
            want = propagate_batch(0.5, kappa, delta, np.linspace(0.0, length_max, samples))
            assert got[2].shape == (samples,) and got[2].all() and want[2].all()
            np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=1e-15)
            # W to 1e-13 of each sample's largest entry; entry-wise only where that holds too
            # (at κ = 20 a small entry of W misses rtol 1e-12 at 577, 602 and 626 samples).
            err = np.abs(got[0] - want[0]).max(axis=(1, 2))
            assert (err <= 1e-13 * np.abs(want[0]).max(axis=(1, 2))).all()
            if samples in (1, 2, 3, 601):
                np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-15)
            again = propagate_lengths(0.5, kappa, delta, length_max, samples)
            assert all(np.array_equal(x, y) for x, y in zip(got, again))


def test_length_grid_bytes_do_not_depend_on_blas_threads():
    # The grid is one complex matrix product; with inner dimension 3 a thread split
    # must not change a byte of (w, n, ok).  OPENBLAS_NUM_THREADS only acts on OpenBLAS.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in str(blas.get("name", "")).lower():
        pytest.skip(f"numpy's BLAS is {blas.get('name')}, not OpenBLAS")
    code = (
        "import hashlib\n"
        "from zenopdc import propagate_lengths\n"
        "w, n, ok = propagate_lengths(0.5, 3.0, 5.0, 3.0, 40001)\n"
        "print(hashlib.sha256(w.tobytes() + n.tobytes() + ok.tobytes()).hexdigest())\n"
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
def test_batch_occupations_are_bitwise_those_of_three_phase_exponentials():
    # The frame phases come from one exponential per cell and its conjugate; n and ok must be
    # bitwise those of exponentiating the angles (-h, h, h), h = ΔL/2, row by row, also at
    # L = 0 and where ΔL overflows.
    rng = np.random.default_rng(22)
    g, k, d, t = (rng.uniform(lo, hi, 601) for lo, hi in ((0, 2), (0, 10), (-10, 10), (0, 3)))
    t[::4] = 0.0
    d[1::4], t[1::4] = 1e308, 10.0
    _, n, ok = propagate_batch(g, k, d, t)
    with np.errstate(over="ignore", invalid="ignore"):
        angles = (0.5 * d * t)[:, None] * np.array([-1.0, 1.0, 1.0])
        w = np.exp(1j * angles)[:, :, None] * expm_i(dynamics._generators(g, k, d), t)
        want = np.abs(w[:, (0, 1, 2), (1, 0, 0)]) ** 2
        want[:, 0] += np.abs(w[:, 0, 2]) ** 2
    want_ok = np.isfinite(w).all(axis=(1, 2)) & np.isfinite(want).all(axis=1)
    assert np.array_equal(ok, want_ok) and np.array_equal(n[ok], want[ok])
    assert ok[::4].all() and not ok[1::4].any() and ok[2::4].all() and ok[3::4].all()
    assert np.isnan(n[~ok]).all()


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
    _, n, ok = propagate_lengths(118.6, 0.0, 0.0, 3.0, 601)
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
        assert propagate_lengths(*args, 61)[2].all()
    else:
        with pytest.raises(InvalidParameterError) as caught:
            propagate_lengths(*args, 61)
        assert str(caught.value) == expected


@pytest.mark.parametrize("samples", [0, True, 1.5])
def test_length_grid_rejects_a_sample_count_that_is_not_an_int_of_at_least_1(samples):
    with pytest.raises(InvalidParameterError):
        propagate_lengths(0.5, 3.0, 5.0, 3.0, samples)
