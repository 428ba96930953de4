"""Dressed-channel route: generator, equivalence, symmetry, QPM."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from zenopdc import (
    CouplerParams,
    DomainError,
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
