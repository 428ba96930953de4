"""Propagator core: generator, exact/ODE maps, invariants, composition."""

import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zenopdc import (
    CouplerParams,
    InvalidParameterError,
    NumericError,
    build_generator,
    check_symplectic,
    compose,
    n_s_mismatched_uncoupled,
    propagate_batch,
    propagate_exact,
    propagate_ode,
    vacuum_occupations,
)
from zenopdc.dynamics import expm_i

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


@settings(deadline=None)
@given(supported_params())
def test_symplectic_identities(params):
    assert check_symplectic(propagate_exact(params)) <= params.tol_sym


@settings(deadline=None)
@given(supported_params())
def test_pair_conservation(params):
    occ = vacuum_occupations(propagate_exact(params))
    assert abs(occ.n_s - occ.n_i - occ.n_b) <= params.tol_phys
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


def test_ode_rejects_bad_tolerance():
    with pytest.raises(InvalidParameterError):
        propagate_ode(CouplerParams(0.5, 1.0, 0.0, 1.0), step_tolerance=0.0)


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
        assert check_symplectic(bmap) <= p.tol_sym
        occ = vacuum_occupations(bmap)
        # at threshold: n_s = (gamma L)^2 + (gamma L)^4 / 4
        gl = 0.5 * 2.0
        assert occ.n_s == pytest.approx(gl**2 + gl**4 / 4.0, rel=1e-6)

        p = CouplerParams(0.5, 0.0, 2.0 * 0.5 * (1.0 + eps), 2.0)
        bmap = propagate_exact(p)
        assert check_symplectic(bmap) <= p.tol_sym
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
    u, v, ok = propagate_batch(*_columns(cells))
    assert ok.all()
    for i, params in enumerate(cells):
        bmap = propagate_exact(params)
        assert np.array_equal(u[i], bmap.u_block)
        assert np.array_equal(v[i], bmap.v_block)


def test_batch_flags_invalid_and_overflowing_cells_without_raising():
    gamma = [0.5, -1.0, math.nan, 0.5, 1000.0, 200.0]
    kappa = [1.0, 1.0, 1.0, -0.1, 0.0, 0.0]
    u, v, ok = propagate_batch(gamma, kappa, 0.0, [1.0, 1.0, 1.0, 1.0, 2.5, 2.5])
    # invalid: gamma < 0, gamma NaN, kappa < 0; not finite: the exponential
    # (gamma = 1000) and the occupations (gamma = 200)
    assert ok.tolist() == [True, False, False, False, False, False]
    assert np.isnan(u[1:]).all() and np.isnan(v[1:]).all()
    bmap = propagate_exact(CouplerParams(0.5, 1.0, 0.0, 1.0))
    assert np.array_equal(u[0], bmap.u_block) and np.array_equal(v[0], bmap.v_block)
    with pytest.raises(NumericError):
        propagate_exact(CouplerParams(1000.0, 0.0, 0.0, 2.5))
    with pytest.raises(InvalidParameterError):
        propagate_batch([True], 0.0, 0.0, 1.0)
