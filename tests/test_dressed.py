"""Dressed-channel route: generator, equivalence, symmetry, QPM."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from zenopdc import (
    CouplerParams,
    DomainError,
    NumericError,
    build_dressed_generator,
    dressed_bogoliubov_map,
    propagate_dressed,
    propagate_exact,
    qpm_comparison,
    resonant_vs_qpm,
    vacuum_occupations,
)

from conftest import supported_params

_SQRT2 = math.sqrt(2.0)


def test_dressed_generator_matrix():
    n = build_dressed_generator(0.5, 3.0, 5.0)
    g = 0.5 / _SQRT2
    expected = np.array([[5.0, g, g], [-g, -3.0, 0.0], [-g, 0.0, 3.0]])
    np.testing.assert_allclose(n, expected, atol=0)


def test_coupling_sign_flip_swaps_channels():
    swap = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    for gamma, kappa, delta in ((0.5, 3.0, 5.0), (1.0, 0.7, -2.0)):
        plus = build_dressed_generator(gamma, kappa, delta)
        minus = build_dressed_generator(gamma, -kappa, delta)
        np.testing.assert_allclose(minus, swap @ plus @ swap, atol=0)


@settings(deadline=None)
@given(supported_params(max_gamma=1.5))
def test_dressed_equals_direct(params):
    direct = vacuum_occupations(propagate_exact(params))
    dressed = propagate_dressed(params)
    assert dressed.n_s == pytest.approx(direct.n_s, abs=1e-9)
    assert dressed.n_i == pytest.approx(direct.n_i, abs=1e-9)
    assert dressed.n_b == pytest.approx(direct.n_b, abs=1e-9)


def test_dressed_map_is_symplectic():
    from zenopdc import check_symplectic

    bmap = dressed_bogoliubov_map(CouplerParams(0.5, 3.0, 5.0, 1.5))
    assert check_symplectic(bmap) <= 1e-10
    assert bmap.modes == ("s", "c", "d")


def test_signal_peaks_near_compensating_coupling():
    # the probe coupling that revives conversion tracks the mismatch
    for delta in (3.0, 5.0, 8.0):
        at_res = vacuum_occupations(
            propagate_exact(CouplerParams(0.5, delta, delta, 1.5))
        ).n_s
        for off in (-2.0, 2.0):
            off_res = vacuum_occupations(
                propagate_exact(CouplerParams(0.5, delta + off, delta, 1.5))
            ).n_s
            assert at_res > off_res


def test_qpm_constants():
    resonant, qpm = qpm_comparison(0.5)
    assert resonant == pytest.approx(0.5 / _SQRT2, abs=1e-16)
    assert qpm == pytest.approx(1.0 / math.pi, abs=1e-16)
    assert resonant > qpm
    assert resonant / qpm == pytest.approx(math.pi / (2.0 * _SQRT2), abs=1e-12)


def test_qpm_requires_positive_gain():
    with pytest.raises(DomainError):
        qpm_comparison(0.0)


def test_dressed_route_matches_matched_coupling_law():
    from zenopdc import coupled_matched_occupations

    occ = propagate_dressed(CouplerParams(0.5, 5.0, 0.0, 1.0))
    assert occ.n_s == pytest.approx(coupled_matched_occupations(0.5, 5.0, 1.0).n_s, abs=1e-9)


def test_resonant_beats_qpm_model_at_finite_length():
    lengths = np.linspace(0.1, 3.0, 30)
    for delta in (3.0, 5.0, 8.0):
        table = resonant_vs_qpm(0.5, delta, lengths)
        assert set(table) == {"lengths", "resonant", "qpm_model", "matched_channel"}
        np.testing.assert_allclose(table["lengths"], lengths)
        np.testing.assert_allclose(
            table["matched_channel"], np.sinh(0.5 * lengths / _SQRT2) ** 2
        )
        assert np.all(table["resonant"] > table["qpm_model"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "params", [CouplerParams(200.0, 0.0, 0.0, 2.5), CouplerParams(200.0, 3.0, 1.0, 2.5)]
)
def test_dressed_route_raises_where_the_occupations_overflow(params):
    # finite blocks (e^{ΓL/√2} ≈ 1e153) whose squares overflow: the same rule as the direct route
    with pytest.raises(NumericError):
        propagate_exact(params)
    with pytest.raises(NumericError):
        dressed_bogoliubov_map(params)
    with pytest.raises(NumericError):
        propagate_dressed(params)


@pytest.mark.filterwarnings("error")
def test_resonant_vs_qpm_raises_where_the_occupations_overflow():
    with pytest.raises(NumericError):
        resonant_vs_qpm(200.0, 5.0, [2.5])


def test_resonant_vs_qpm_keeps_the_shape_of_its_lengths():
    flat = resonant_vs_qpm(0.5, 5.0, [1.0, 2.0])
    grid = resonant_vs_qpm(0.5, 5.0, [[1.0, 2.0]])
    one = resonant_vs_qpm(0.5, 5.0, 2.0)
    for key, values in flat.items():
        assert grid[key].shape == (1, 2) and one[key].shape == ()
        np.testing.assert_array_equal(grid[key][0], values)
        assert one[key] == values[1]


def test_dressed_occupations_are_never_negative_at_tiny_lengths():
    # At L ~ 1e-12 … 1e-5 the bare-mode numbers (n_c + n_d)/2 ± Re<c†d> are differences
    # of nearly equal tiny values, and rounding can leave one below zero; the route
    # clamps it to 0.  Some of these cells must round below zero, or nothing is tested.
    from zenopdc.dressed import _dressed_transfer
    from zenopdc.dynamics import split_transfer

    rng = np.random.default_rng(31)
    rounded_below = 0
    for _ in range(400):
        params = CouplerParams(gamma=rng.uniform(0.0, 2.0), kappa=rng.uniform(0.0, 10.0),
                               delta=rng.uniform(-10.0, 10.0), length=10.0 ** rng.uniform(-12, -5))
        occ = propagate_dressed(params)
        assert occ.n_i >= 0.0 and occ.n_b >= 0.0, params
        w, n = _dressed_transfer(params.gamma, params.kappa, params.delta, params.length)
        v = split_transfer(w)[1]
        coherence = float(np.sum(np.conj(v[1]) * v[2]).real)
        half = 0.5 * (float(n[1]) + float(n[2]))
        rounded_below += min(half + coherence, half - coherence) < 0.0
    assert rounded_below >= 1
