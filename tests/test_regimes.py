"""Regime classification: cubic, discriminant, roots, boundaries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenopdc import (
    REGIME_BOUNDARY,
    REGIME_HYPERBOLIC,
    REGIME_OSCILLATORY,
    BoundaryNotFoundError,
    CouplerParams,
    CubicCoefficients,
    DomainError,
    NumericError,
    boundary_exact,
    build_generator,
    characteristic_cubic,
    classify_regime,
    cubic_discriminant,
    discriminant_tolerance,
    discriminant_weak_gamma,
    regime_boundaries,
)

_finite = lambda lo, hi: st.floats(  # noqa: E731
    min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
)


def _params(gamma, kappa, delta):
    return CouplerParams(gamma, kappa, delta, 1.0)


def test_cubic_coefficients_example():
    c = characteristic_cubic(_params(0.0, 1.0, 5.0))
    assert (c.c2, c.c1, c.c0) == (10.0, 24.0, 0.0)


def test_cubic_requires_probe_coupling():
    with pytest.raises(DomainError):
        characteristic_cubic(_params(0.5, 0.0, 5.0))
    with pytest.raises(DomainError):
        classify_regime(_params(0.5, 0.0, 5.0))


def test_known_roots_without_gain():
    report = classify_regime(_params(0.0, 1.0, 5.0))
    roots = sorted(z.real for z in report.roots)
    assert roots == pytest.approx([-6.0, -4.0, 0.0], abs=1e-12)
    assert all(abs(z.imag) < 1e-14 for z in report.roots)
    assert report.regime == REGIME_OSCILLATORY


@settings(deadline=None)
@given(_finite(0.0, 2.0), _finite(0.05, 10.0), _finite(-10.0, 10.0))
def test_roots_satisfy_cubic(gamma, kappa, delta):
    p = _params(gamma, kappa, delta)
    c = characteristic_cubic(p)
    scale = max(1.0, abs(c.c2) ** 3, abs(c.c1) ** 1.5, abs(c.c0))
    for z in classify_regime(p).roots:
        residual = abs(z**3 + c.c2 * z**2 + c.c1 * z + c.c0)
        assert residual <= 1e-9 * scale


@settings(deadline=None, max_examples=60)
@given(_finite(0.0, 2.0), _finite(0.05, 10.0), _finite(-10.0, 10.0))
def test_roots_are_shifted_generator_eigenvalues(gamma, kappa, delta):
    p = _params(gamma, kappa, delta)
    eig = list(np.linalg.eigvals(build_generator(p)) - 0.5 * delta)
    # match as multisets (rounding can reorder a sort on near-zero real
    # parts); the tolerance covers the cube-root eigenvalue sensitivity at
    # (near-)defective parameter sets, which hypothesis reliably finds (e.g.
    # kappa = gamma at delta = 0) -- away from those the agreement is ~1e-13.
    for z in classify_regime(p).roots:
        j = min(range(len(eig)), key=lambda i: abs(eig[i] - z))
        assert abs(eig[j] - z) <= 1e-4 * max(1.0, abs(z))
        eig.pop(j)


def test_weak_gain_discriminant_value():
    # At kappa = delta the quartic term vanishes and the approximation is a
    # clean positive rational number.
    d = discriminant_weak_gamma(_params(0.5, 5.0, 5.0))
    assert d == pytest.approx(1250.0 / 27.0, abs=1e-10)
    assert classify_regime(_params(0.5, 5.0, 5.0)).regime == REGIME_HYPERBOLIC


@settings(deadline=None, max_examples=60)
@given(_finite(0.05, 10.0), _finite(-10.0, 10.0))
def test_weak_gain_discriminant_exact_without_gain(kappa, delta):
    p = _params(0.0, kappa, delta)
    exact = cubic_discriminant(characteristic_cubic(p))
    approx = discriminant_weak_gamma(p)
    assert approx == pytest.approx(exact, abs=1e-9 * max(1.0, abs(exact)))


def test_weak_gain_truncation_is_fourth_order():
    def err(gamma):
        p = _params(gamma, 4.0, 5.0)
        return abs(
            cubic_discriminant(characteristic_cubic(p)) - discriminant_weak_gamma(p)
        )

    assert 12.0 <= err(0.5) / err(0.25) <= 20.0


def test_boundary_approximation_values():
    k1, k2 = regime_boundaries(0.5, 5.0)
    assert k1 == pytest.approx(math.sqrt(25.0 + 0.375 + math.sqrt(8.0) * 2.5), abs=1e-12)
    assert k2 == pytest.approx(math.sqrt(25.0 + 0.375 - math.sqrt(8.0) * 2.5), abs=1e-12)
    assert (k1, k2) == pytest.approx((5.6961449956848424, 4.278309501208921), abs=1e-9)
    # sign of the mismatch is irrelevant
    assert regime_boundaries(0.5, -5.0) == pytest.approx((k1, k2))


def test_boundary_exact_values():
    k1, k2 = boundary_exact(0.5, 5.0)
    assert (k1, k2) == pytest.approx((5.695782184047857, 4.278866281762021), abs=1e-6)
    a1, a2 = regime_boundaries(0.5, 5.0)
    assert abs(k1 - a1) / a1 <= 0.01
    assert abs(k2 - a2) / a2 <= 0.01


def test_boundary_exact_bisection_is_tight():
    k1, k2 = boundary_exact(0.5, 5.0)
    for k in (k1, k2):
        report = classify_regime(_params(0.5, k, 5.0))
        coeffs = characteristic_cubic(_params(0.5, k, 5.0))
        assert abs(report.discriminant) <= discriminant_tolerance(coeffs)
        assert report.regime == REGIME_BOUNDARY


def test_regimes_flip_across_boundaries():
    k1, k2 = boundary_exact(0.5, 5.0)
    assert classify_regime(_params(0.5, k2 - 0.05, 5.0)).regime == REGIME_OSCILLATORY
    assert classify_regime(_params(0.5, 0.5 * (k1 + k2), 5.0)).regime == REGIME_HYPERBOLIC
    assert classify_regime(_params(0.5, k1 + 0.05, 5.0)).regime == REGIME_OSCILLATORY


def test_report_carries_approximate_boundaries():
    report = classify_regime(_params(0.5, 4.0, 5.0))
    assert report.boundary_kappas == pytest.approx(regime_boundaries(0.5, 5.0))
    # when the approximation has no real solution the field is None
    report = classify_regime(_params(1.0, 1.0, 1.0))
    assert report.boundary_kappas is None
    # at gamma*delta = 0 the pair coincides (kappa1 = kappa2): no window either
    for gamma, kappa, delta in ((0.5, 1.0, 0.0), (0.0, 4.0, 5.0)):
        with pytest.raises(DomainError):
            regime_boundaries(gamma, delta)
        assert classify_regime(_params(gamma, kappa, delta)).boundary_kappas is None


def test_boundary_exact_domain_errors():
    with pytest.raises(DomainError):
        boundary_exact(0.0, 5.0)
    with pytest.raises(DomainError):
        boundary_exact(0.5, 0.0)


def test_boundary_exact_raises_when_window_closed():
    with pytest.raises(BoundaryNotFoundError):
        boundary_exact(2.0, 0.25)


def test_matched_probed_regimes():
    # Without mismatch the split is at kappa = gamma: below, hyperbolic
    # growth; above, frozen oscillation.
    assert classify_regime(_params(1.0, 0.5, 0.0)).regime == REGIME_HYPERBOLIC
    assert classify_regime(_params(1.0, 2.0, 0.0)).regime == REGIME_OSCILLATORY


def test_cubic_coefficients_with_gain():
    c = characteristic_cubic(_params(0.5, 5.0, 5.0))
    assert (c.c2, c.c1, c.c0) == (10.0, 0.25, 1.25)


def test_discriminant_unit_cases():
    # triple root at zero
    assert cubic_discriminant(CubicCoefficients(0.0, 0.0, 0.0)) == 0.0
    # roots 0, +/-i: already depressed with p = 1, q = 0
    assert cubic_discriminant(CubicCoefficients(0.0, 1.0, 0.0)) == pytest.approx(
        1.0 / 27.0, rel=1e-14
    )
    # three distinct real roots {0, -4, -6}
    assert cubic_discriminant(characteristic_cubic(_params(0.0, 1.0, 5.0))) < 0.0


def test_detuned_classification_examples():
    assert classify_regime(_params(0.5, 5.0, 5.0)).regime == REGIME_HYPERBOLIC
    assert classify_regime(_params(0.5, 2.0, 5.0)).regime == REGIME_OSCILLATORY
    assert classify_regime(_params(0.5, 8.0, 5.0)).regime == REGIME_OSCILLATORY
    assert cubic_discriminant(characteristic_cubic(_params(0.5, 2.0, 5.0))) < 0.0
    assert cubic_discriminant(characteristic_cubic(_params(0.5, 8.0, 5.0))) < 0.0


def test_boundary_exact_tightens_with_small_gain():
    # At gamma/|delta| = 0.01 the closed-form boundaries and the bisected
    # ones agree to 0.01% (measured ~9e-8 relative).
    exact = boundary_exact(0.05, 5.0)
    approx = regime_boundaries(0.05, 5.0)
    for a, b in zip(exact, approx):
        assert a == pytest.approx(b, rel=1e-4)


def test_boundary_exact_has_no_pair_at_delta_two_gamma():
    # At |delta| = 2 gamma the kappa = 0 cubic has a double root, so s = 0
    # solves the boundary cubic; only one positive boundary remains.
    with pytest.raises(BoundaryNotFoundError):
        boundary_exact(3.0, 6.0)


def test_boundary_exact_finds_a_lower_boundary_near_kappa_zero():
    # Just above |delta| = 2 gamma the lower boundary tends to kappa = 0.
    delta = 6.000001
    k1, k2 = boundary_exact(3.0, delta)
    assert k2 == pytest.approx(1.7320e-3, rel=1e-4)
    assert k1 == pytest.approx(9.99057, rel=1e-5)
    assert classify_regime(_params(3.0, 0.99 * k2, delta)).regime == REGIME_OSCILLATORY
    assert classify_regime(_params(3.0, 1.01 * k2, delta)).regime == REGIME_HYPERBOLIC


@settings(deadline=None, max_examples=300)
@given(
    # Below gamma ~ 1e-50 the discriminant, O(gamma^6), underflows to zero.
    _finite(1e-40, 3.0),
    _finite(-12.0, 12.0).filter(lambda d: d != 0.0),
)
def test_boundary_exact_roots_separate_the_regimes(gamma, delta):
    try:
        k1, k2 = boundary_exact(gamma, delta)
    except BoundaryNotFoundError:
        return
    assert 0.0 < k2 < k1
    for k in (k1, k2):
        coeffs = characteristic_cubic(_params(gamma, k, delta))
        assert abs(cubic_discriminant(coeffs)) <= discriminant_tolerance(coeffs)
    # The discriminant is negative just outside the pair and positive between.
    # A window can be narrower than the tag tolerance (gamma = 1e-5,
    # delta = 4 is ~3e-5 wide), where the tag reads "boundary" -- but it never
    # names the opposite regime.
    for kappa, sign, regime in (
        (0.99 * k2, -1.0, REGIME_OSCILLATORY),
        (0.5 * (k1 + k2), 1.0, REGIME_HYPERBOLIC),
        (1.01 * k1, -1.0, REGIME_OSCILLATORY),
    ):
        report = classify_regime(_params(gamma, kappa, delta))
        assert sign * report.discriminant > 0.0
        assert report.regime in (regime, REGIME_BOUNDARY)


@settings(deadline=None, max_examples=100)
@given(_finite(0.0, 2.0), _finite(0.05, 10.0), _finite(-10.0, 10.0))
def test_roots_mirror_the_reversed_length_convention(gamma, kappa, delta):
    # Negating every root must solve the sign-reversed cubic
    # mu^3 - c2 mu^2 + c1 mu - c0: the two frequency conventions describe
    # the same dynamics read in opposite directions.
    report = classify_regime(_params(gamma, kappa, delta))
    c = report.coefficients
    scale = max(1.0, abs(c.c2) ** 3, abs(c.c1) ** 1.5, abs(c.c0))
    for z in report.roots:
        mu = -z
        residual = abs(mu**3 - c.c2 * mu**2 + c.c1 * mu - c.c0)
        assert residual <= 1e-9 * scale


def _signal_curve(kappa, lengths):
    from zenopdc import propagate_exact, vacuum_occupations

    return np.array(
        [
            vacuum_occupations(
                propagate_exact(CouplerParams(0.5, kappa, 5.0, L))
            ).n_s
            for L in lengths
        ]
    )


def test_regime_tags_match_observed_dynamics():
    # The tag must predict what the propagator actually does out to
    # L = 10/gamma: hyperbolic -> eventually monotone growth; oscillatory ->
    # bounded with a return below half of the scan maximum.
    lengths = np.linspace(0.0, 20.0, 801)

    hyperbolic = _signal_curve(5.0, lengths)
    steps = np.diff(hyperbolic)
    assert classify_regime(_params(0.5, 5.0, 5.0)).regime == REGIME_HYPERBOLIC
    assert np.all(steps[len(steps) // 2 :] > 0.0)
    assert hyperbolic[-1] > 100.0

    for kappa in (2.0, 8.0):
        assert classify_regime(_params(0.5, kappa, 5.0)).regime == REGIME_OSCILLATORY
        curve = _signal_curve(kappa, lengths)
        peak_index = int(np.argmax(curve))
        peak = curve[peak_index]
        assert peak < 0.1
        assert np.any(curve[peak_index + 1 :] < 0.5 * peak)


def test_tiny_coefficient_cubic_keeps_accurate_roots():
    # Regression: near gamma = kappa with a tiny mismatch, every cubic
    # coefficient is small, so the discriminant falls inside the scale-aware
    # boundary tolerance while staying genuinely positive.  The root solver
    # must still branch on the true discriminant sign (Cardano here) --
    # the trigonometric form would clamp its arccos argument and return
    # roots that are wrong by five orders of magnitude.
    report = classify_regime(_params(1.0, 1.0, 5.960464477539063e-08))
    assert report.regime == REGIME_BOUNDARY
    c = report.coefficients
    scale = max(1.0, abs(c.c2) ** 3, abs(c.c1) ** 1.5, abs(c.c0))
    for z in report.roots:
        residual = abs(z**3 + c.c2 * z**2 + c.c1 * z + c.c0)
        assert residual <= 1e-9 * scale
    assert max(abs(z) for z in report.roots) == pytest.approx(3.9063e-3, rel=1e-3)
    assert sum(1 for z in report.roots if abs(z.imag) > 1e-6) == 2


@pytest.mark.parametrize(
    "point, regime",
    [
        ((0.5, 5.0, 5.0, 1.0), REGIME_HYPERBOLIC),
        ((0.5, 2.0, 5.0, 1.0), REGIME_OSCILLATORY),
        ((1.0, 1.0, 5.96e-8, 1.0), REGIME_BOUNDARY),
        ((1.0, 1.0, 1.0, 1.0), REGIME_HYPERBOLIC),
    ],
)
def test_regime_tag_is_scale_invariant(point, regime):
    # (cΓ, cκ, cΔ, L/c) is the same physics, so it must get the same tag,
    # also where the physical c0 = ΔΓ² or the discriminant underflows.
    params = CouplerParams(*point)
    for c in (1.0, 1e-6, 1e-3, 1e3, 1e6, 1e-110, 1e-150):
        assert classify_regime(params.rescaled(c)).regime == regime


@pytest.mark.parametrize("c", [1e-60, 1e-110, 1e-150])
def test_roots_scale_with_the_rates(c):
    # The roots of (cΓ, cκ, cΔ) are c times those of (Γ, κ, Δ), also where the
    # physical discriminant underflows and its sign no longer picks the formula.
    for point in ((0.5, 5.0, 5.0, 1.0), (0.5, 2.0, 5.0, 1.0)):
        params = CouplerParams(*point)
        scaled = classify_regime(params.rescaled(c)).roots
        for z, unscaled in zip(scaled, classify_regime(params).roots):
            assert z / c == pytest.approx(unscaled, rel=1e-12)


@pytest.mark.parametrize(
    "point",
    [(1e100, 1e100, 1e100), (1.0, 1e160, 1.0), (1e160, 1.0, 1.0), (1.0, 1.0, 1e102)],
)
def test_overflowing_cubic_raises_numeric_error(point):
    # coefficients or discriminant beyond float64: an error, not inf/NaN or OverflowError
    with pytest.raises(NumericError):
        classify_regime(_params(*point))


def test_overflowing_weak_gain_pair_raises_numeric_error():
    with pytest.raises(NumericError):
        regime_boundaries(1e160, 1.0)


def test_small_real_root_satisfies_vieta():
    # For Γ << κ, |Δ| the smallest root ≈ -ΔΓ²/c1 comes out of the closed forms by
    # cancellation (≈ 1e-7 relative off at this point); taken from Vieta, the roots'
    # product is -c0 to rounding.  The sample checks every draw whose smallest root
    # is real, the case Vieta refines.
    rng = np.random.default_rng(24)
    points = [(5.7e-5, 0.0152, 5.85)] + [
        (rng.uniform(0.0, 2.0), rng.uniform(1e-3, 10.0), rng.uniform(-10.0, 10.0))
        for _ in range(300)
    ]
    checked = 0
    for gamma, kappa, delta in points:
        report = classify_regime(CouplerParams(gamma, kappa, delta, 1.0))
        if min(report.roots, key=abs).imag != 0.0:
            continue
        c0 = report.coefficients.c0
        assert abs(np.prod(report.roots) + c0) <= 1e-12 * abs(c0), (gamma, kappa, delta)
        checked += 1
    assert checked > 200
    small = min(classify_regime(CouplerParams(5.7e-5, 0.0152, 5.85, 1.0)).roots, key=abs)
    assert small.real == pytest.approx(-5.5538836493e-10, rel=1e-10)
