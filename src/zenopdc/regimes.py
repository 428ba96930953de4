"""Classification of dynamical regimes from the characteristic cubic.

Substituting an exponential ansatz into the coupled operator equations turns
the probed-coupler dynamics (κ != 0) into a real cubic for the oscillation
frequencies λ of the signal mode:

    λ³ + 2Δ λ² + (Δ² - κ² + Γ²) λ + ΔΓ² = 0.

Coefficients follow the convention a_s ∝ e^{-iλt}; equivalently the roots are
the rotating-frame generator's eigenvalues shifted by -Δ/2.  The opposite
substitution a_s ∝ e^{+iλt} yields the sign-mirrored cubic (all roots
negated), which classifies identically because the depressed discriminant is
invariant under λ -> -λ.

Three distinct real roots (negative discriminant) mean bounded oscillatory
evolution -- conversion is frozen.  A complex-conjugate pair (positive
discriminant) means exponential growth -- the probe coupling compensates the
mismatch.  The boundary sits where the discriminant vanishes; for weak gain
it is approximated by κ² = Δ² + (3/2)Γ² ± √8 Δ Γ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import (
    BoundaryNotFoundError,
    CouplerParams,
    DomainError,
    NumericError,
    require_finite as _require,
)

REGIME_OSCILLATORY = "oscillatory"
REGIME_HYPERBOLIC = "hyperbolic"
REGIME_BOUNDARY = "boundary"


@dataclass(frozen=True)
class CubicCoefficients:
    """Monic cubic λ³ + c2 λ² + c1 λ + c0 for the signal frequencies."""

    c2: float
    c1: float
    c0: float


@dataclass(frozen=True)
class RegimeReport:
    """Everything :func:`classify_regime` knows about one parameter point."""

    coefficients: CubicCoefficients
    discriminant: float
    roots: tuple[complex, complex, complex]
    regime: str
    boundary_kappas: tuple[float, float] | None


def characteristic_cubic(params: CouplerParams) -> CubicCoefficients:
    """Coefficients (c2, c1, c0) = (2Δ, Δ² - κ² + Γ², ΔΓ²) of the frequency cubic.

    Undefined at κ = 0, where the probe decouples and the cubic degenerates
    (one frequency splits off); use the unprobed closed forms there instead.
    """
    if params.kappa == 0.0:
        raise DomainError(
            "characteristic cubic requires kappa != 0; "
            "the unprobed case is classified by the sign of gamma^2 - delta^2/4"
        )
    return _cubic(params.gamma, params.kappa, params.delta)


def _cubic(gamma: float, kappa: float, delta: float) -> CubicCoefficients:
    g2 = gamma * gamma
    return CubicCoefficients(c2=2.0 * delta, c1=delta * delta - kappa * kappa + g2, c0=delta * g2)


def _depressed(coeffs: CubicCoefficients) -> tuple[float, float]:
    """(p, q) of the depressed form μ³ + pμ + q after λ = μ - c2/3."""
    c2, c1, c0 = coeffs.c2, coeffs.c1, coeffs.c0
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2 ** 3 / 27.0 - c2 * c1 / 3.0 + c0
    return p, q


def cubic_discriminant(coeffs: CubicCoefficients) -> float:
    """Depressed-cubic discriminant D = (q/2)² + (p/3)³.

    D < 0: three distinct real roots (oscillatory).  D > 0: one real root and
    a complex-conjugate pair (hyperbolic).  D = 0: repeated roots (boundary).
    """
    p, q = _depressed(coeffs)
    return (0.5 * q) ** 2 + (p / 3.0) ** 3


def discriminant_tolerance(coeffs: CubicCoefficients) -> float:
    """Scale-aware zero test for the discriminant: 1e-12 · max(1, |p|³, q²)."""
    p, q = _depressed(coeffs)
    return 1e-12 * max(1.0, abs(p) ** 3, q * q)


def discriminant_weak_gamma(params: CouplerParams) -> float:
    """Weak-gain approximation of the discriminant, exact at Γ = 0:

        D ≈ -(κ²/27) [(κ² - Δ²)² - (5Δ² + 3κ²) Γ²],

    with O(Γ⁴) truncation error.
    """
    g2 = params.gamma * params.gamma
    k2 = params.kappa * params.kappa
    d2 = params.delta * params.delta
    return -(k2 / 27.0) * ((k2 - d2) ** 2 - (5.0 * d2 + 3.0 * k2) * g2)


def regime_boundaries(gamma: float, delta: float) -> tuple[float, float]:
    """Weak-gain boundary couplings κ1 >= κ2 with κ² = Δ² + (3/2)Γ² ± √8 |Δ| Γ.

    Between them the evolution is hyperbolic; outside, oscillatory.  Raises
    DomainError when the inner radicand of κ2 is negative (boundaries merge
    and vanish; happens once Γ grows beyond ~Δ/√2-scale gain), and when
    ΓΔ = 0, where the pair coincides and encloses no window.  Raises
    NumericError when κ1² overflows float64.
    """
    gamma = _require("gamma", gamma)
    delta = _require("delta", delta, nonnegative=False)
    base = delta * delta + 1.5 * gamma * gamma
    split = math.sqrt(8.0) * abs(delta) * gamma
    if split == 0.0:
        raise DomainError("no hyperbolic window at gamma*delta = 0: the boundary pair coincides")
    if not math.isfinite(base + split):
        raise NumericError(
            f"weak-gain boundaries overflow float64 at gamma={gamma!r}, delta={delta!r}"
        )
    inner = base - split
    if inner < 0.0:
        raise DomainError(
            f"no real lower boundary: delta^2 + 1.5*gamma^2 - sqrt(8)|delta|*gamma = {inner}"
        )
    return math.sqrt(base + split), math.sqrt(inner)


def boundary_exact(gamma: float, delta: float) -> tuple[float, float]:
    """Exact boundary couplings: zeros of the true discriminant in κ.

    The depressed coefficients are affine in s = κ²: p = a - s and
    q = b + 2Δs/3 with a = Γ² - Δ²/3 and b = ΔΓ²/3 - 2Δ³/27.  The boundary
    condition D = (q/2)² + (p/3)³ = 0 is therefore the cubic

        -27 D(s) = s³ - 3(a + Δ²) s² + (3a² - 9bΔ) s - (27b²/4 + a³)
                 = s³ - (3Γ² + 2Δ²) s² + (3Γ⁴ - 5Γ²Δ² + Δ⁴) s + Γ⁴(Δ² - 4Γ²)/4,

    solved here in units of |Δ|.  Its constant term is -27 D(κ = 0), so two
    positive roots need |Δ| > 2Γ (conversion frozen at κ = 0); the third
    root is then negative.  Returns the pair (κ1, κ2) = √s, κ1 >= κ2, from
    the roots in (0, (|Δ| + 4Γ + 1)²].  Raises BoundaryNotFoundError when
    fewer than two roots lie there or they are not resolvably distinct.
    """
    gamma = _require("gamma", gamma)
    delta = _require("delta", delta, nonnegative=False)
    if gamma == 0.0 or delta == 0.0:
        raise DomainError("boundary search requires gamma > 0 and delta != 0")
    g = gamma / abs(delta)
    g2 = g * g
    coeffs = CubicCoefficients(
        c2=-(3.0 * g2 + 2.0),
        c1=(3.0 * g2 - 5.0) * g2 + 1.0,
        c0=0.25 * g2 * g2 * (1.0 - 2.0 * g) * (1.0 + 2.0 * g),
    )
    k_max = abs(delta) + 4.0 * gamma + 1.0
    kappas: list[float] = []
    # c0 <= 0 leaves one positive root; testing it first also keeps the
    # O(g⁶) coefficients of |Δ| << Γ out of the discriminant.
    if coeffs.c0 > 0.0 and (
        (disc := cubic_discriminant(coeffs)) < -discriminant_tolerance(coeffs)
    ):
        # Just above |Δ| = 2Γ the κ = 0 cubic nears a double root and the
        # smallest root s tends to 0.  The roots carry an absolute rounding
        # error of some ulps of |c2| (at Γ = 3, Δ = 6 + 1e-13: s = 1.5e-14
        # against a true 8.4e-15), so a root that small is noise posing as a
        # boundary with the same regime on both sides, and is dropped.
        s_floor = 1e-12 * abs(coeffs.c2)
        s_max = (k_max / delta) * (k_max / delta)  # inf, not OverflowError, for tiny Δ
        kappas = [
            abs(delta) * math.sqrt(root.real)
            for root in _cubic_roots(coeffs, disc)
            if s_floor < root.real <= s_max
        ]
    if len(kappas) < 2:
        raise BoundaryNotFoundError(
            f"expected two discriminant zeros in (0, {k_max}], found {len(kappas)}"
        )
    return max(kappas), min(kappas)


def _cubic_roots(
    coeffs: CubicCoefficients, disc: float
) -> tuple[complex, complex, complex]:
    """Roots of the monic cubic, branch-selected by the discriminant sign.

    Non-positive discriminant uses the three-cosine (trigonometric) form,
    which is exactly the region where its arccos argument is in [-1, 1];
    positive uses a cancellation-safe Cardano.  The selection keys on the
    true sign, not on the regime-tag tolerance: a cubic with all-tiny
    coefficients can sit inside the tag tolerance while its roots are still
    a decisively complex triple, and the trigonometric form would silently
    clamp its way to garbage there.
    """
    p, q = _depressed(coeffs)
    shift = -coeffs.c2 / 3.0
    if disc <= 0.0 and p < 0.0:
        amp = 2.0 * math.sqrt(-p / 3.0)
        # arccos argument: (3q)/(2p) * sqrt(-3/p), clamped against rounding
        arg = 1.5 * q / p * math.sqrt(-3.0 / p)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg) / 3.0
        mus = [amp * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)]
        return tuple(complex(mu + shift, 0.0) for mu in mus)  # type: ignore[return-value]
    sq = math.sqrt(max(disc, 0.0))
    # pick the larger-magnitude cube-root argument to avoid cancellation
    w = -0.5 * q - sq if q >= 0.0 else -0.5 * q + sq
    if w == 0.0:
        # p and q both vanish: triple root at the shift point
        return (complex(shift), complex(shift), complex(shift))
    u = math.copysign(abs(w) ** (1.0 / 3.0), w)
    v = -p / (3.0 * u)
    real = u + v + shift
    re_pair = -0.5 * (u + v) + shift
    im_pair = 0.5 * math.sqrt(3.0) * (u - v)
    return (complex(real), complex(re_pair, im_pair), complex(re_pair, -im_pair))


def classify_regime(params: CouplerParams) -> RegimeReport:
    """Full regime report: coefficients, discriminant, roots, tag, boundaries.

    The tag is "oscillatory" for discriminant < -tol (frozen conversion),
    "hyperbolic" for discriminant > +tol (compensated growth), "boundary"
    within the scale-aware tolerance, applied to the cubic of (Γ, κ, Δ)/r with
    r = max(Γ, κ, |Δ|) so that the tag, like the physics, is invariant under
    :meth:`CouplerParams.rescaled` however small the rates.  The roots are
    the unit cubic's times r, so they scale with the rates too, and its
    smallest root, when real, is taken from Vieta (-c0 over the product of the
    other two) wherever that product is non-zero; the other reported values
    stay physical (a discriminant that underflows reads 0).
    ``boundary_kappas`` holds the weak-gain approximate pair when it exists,
    None when it does not.  Raises NumericError when the coefficients, the
    discriminant or the boundary pair overflow float64.
    """
    coeffs = characteristic_cubic(params)
    try:
        disc = cubic_discriminant(coeffs)
    except OverflowError:  # float ** raises where * would give inf
        disc = math.inf
    if not all(map(math.isfinite, (coeffs.c2, coeffs.c1, coeffs.c0, disc))):
        raise NumericError(
            f"the frequency cubic overflows float64 at gamma={params.gamma!r}, "
            f"kappa={params.kappa!r}, delta={params.delta!r}; classify a rescaled point"
        )
    r = max(params.gamma, params.kappa, abs(params.delta))
    unit = _cubic(params.gamma / r, params.kappa / r, params.delta / r)
    unit_disc = cubic_discriminant(unit)
    tol = discriminant_tolerance(unit)
    if unit_disc < -tol:
        regime = REGIME_OSCILLATORY
    elif unit_disc > tol:
        regime = REGIME_HYPERBOLIC
    else:
        regime = REGIME_BOUNDARY
    roots = list(_cubic_roots(unit, unit_disc))
    # A real root much smaller than the others (≈ -ΔΓ²/c1 for Γ << κ, |Δ|) comes out
    # of either closed form by cancellation; Vieta's λ1λ2λ3 = -c0 recovers it from the
    # two larger roots to rounding.
    small = min(range(3), key=lambda i: abs(roots[i]))
    others = roots[small - 1] * roots[small - 2]
    if roots[small].imag == 0.0 and others != 0.0:
        roots[small] = complex((-unit.c0 / others).real)
    roots = tuple(r * z for z in roots)
    try:
        boundaries: tuple[float, float] | None = regime_boundaries(params.gamma, params.delta)
    except DomainError:
        boundaries = None
    return RegimeReport(
        coefficients=coeffs,
        discriminant=disc,
        roots=roots,
        regime=regime,
        boundary_kappas=boundaries,
    )
