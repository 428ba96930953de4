"""Closed-form laws: frozen values, branch handling, oracle equivalence."""

import ast
import math
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenopdc import (
    BRANCH_HYPERBOLIC,
    BRANCH_THRESHOLD,
    BRANCH_TRIG,
    CouplerParams,
    DomainError,
    InvalidParameterError,
    NumericError,
    coupled_matched_occupations,
    n_s_large_mismatch_asymptote,
    n_s_matched,
    n_s_mismatched_uncoupled,
    n_s_strong_coupling_asymptote,
    propagate_exact,
    vacuum_occupations,
)
import zenopdc
from zenopdc.closed_forms import BRANCH_WINDOW, closed_form_batch, closed_form_occupations

_finite = lambda lo, hi: st.floats(  # noqa: E731
    min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
)


def test_matched_is_sinh_squared():
    assert n_s_matched(0.5, 1.0) == pytest.approx(math.sinh(0.5) ** 2, abs=1e-16)
    assert n_s_matched(0.5, 2.0) == pytest.approx(math.sinh(1.0) ** 2, abs=1e-15)
    assert n_s_matched(0.0, 2.0) == 0.0
    assert n_s_matched(0.5, 0.0) == 0.0


def test_matched_growth_is_strictly_increasing():
    values = [n_s_matched(0.5, L) for L in np.linspace(0.0, 3.0, 61)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_coupled_matched_frozen_value():
    # Independently cross-checked against the exact propagator and the ODE
    # oracle; the three routes agree to ~4e-16.
    res = coupled_matched_occupations(0.5, 1.0, 1.0)
    assert res.n_s == pytest.approx(0.2485385524325554, abs=1e-14)
    assert res.branch == BRANCH_TRIG


def test_coupled_matched_splits_idler_and_probe():
    n_s, n_i, n_b, _ = coupled_matched_occupations(0.5, 1.0, 1.0)
    assert n_s == pytest.approx(n_i + n_b, abs=1e-16)
    chi = math.sqrt(1.0 - 0.25)
    assert n_i == pytest.approx((0.5 * math.sin(chi) / chi) ** 2, abs=1e-15)
    assert n_b == pytest.approx(
        (1.0 * 0.5 * (1.0 - math.cos(chi)) / chi**2) ** 2, abs=1e-15
    )


def test_uncoupled_probe_reduces_to_matched_growth():
    # kappa = 0 must reproduce free downconversion via the hyperbolic branch.
    res = coupled_matched_occupations(0.5, 0.0, 1.0)
    assert res.branch == BRANCH_HYPERBOLIC
    assert res.n_s == pytest.approx(math.sinh(0.5) ** 2, abs=1e-15)


def test_branch_tags():
    assert coupled_matched_occupations(0.5, 2.0, 1.0).branch == BRANCH_TRIG
    assert coupled_matched_occupations(0.5, 0.2, 1.0).branch == BRANCH_HYPERBOLIC
    assert coupled_matched_occupations(0.5, 0.5, 1.0).branch == BRANCH_THRESHOLD
    assert n_s_mismatched_uncoupled(0.5, 5.0, 1.0).branch == BRANCH_TRIG
    assert n_s_mismatched_uncoupled(0.5, 0.3, 1.0).branch == BRANCH_HYPERBOLIC
    assert n_s_mismatched_uncoupled(0.5, 1.0, 1.0).branch == BRANCH_THRESHOLD


def test_threshold_value():
    for gamma, length in ((0.5, 2.0), (1.0, 1.0), (0.25, 3.0)):
        n_s, n_i, n_b, branch = coupled_matched_occupations(gamma, gamma, length)
        gl = gamma * length
        assert branch == BRANCH_THRESHOLD
        assert n_i == pytest.approx(gl**2, rel=1e-12)
        assert n_b == pytest.approx(gl**4 / 4.0, rel=1e-12)
        assert n_s == pytest.approx(gl**2 + gl**4 / 4.0, rel=1e-12)


def test_branch_window_is_a_millionth_of_gamma_squared():
    # Literal fractions, not BRANCH_WINDOW: |x| = 0.5e-6·Γ² is inside the
    # window and 2e-6·Γ² outside, on both sides of κ = Γ and at |Δ| = 2Γ.
    gamma = 0.5
    for f, tags in ((0.5e-6, [BRANCH_THRESHOLD] * 3),
                    (2e-6, [BRANCH_TRIG, BRANCH_HYPERBOLIC, BRANCH_TRIG])):
        kappa = np.array([gamma * math.sqrt(1 + f), gamma * math.sqrt(1 - f), 0.0])
        delta = np.array([0.0, 0.0, 2 * gamma * math.sqrt(1 + f)])
        *_, branch, ok = closed_form_batch(gamma, kappa, delta, 1.0)
        assert ok.all() and branch.tolist() == tags, f


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_series_window_is_seamless(side):
    # Just outside the series window the direct branch formula and the series
    # agree far better than the advertised continuity, for both signs of
    # kappa^2 - gamma^2.
    gamma, length = 0.5, 2.0
    x_edge = side * BRANCH_WINDOW * gamma * gamma
    for factor in (0.5, 0.99, 1.01, 2.0):
        kappa = math.sqrt(gamma * gamma + factor * x_edge)
        inside = abs(factor * x_edge) <= BRANCH_WINDOW * gamma * gamma
        res = coupled_matched_occupations(gamma, kappa, length)
        expected_branch = (
            BRANCH_THRESHOLD
            if inside
            else (BRANCH_TRIG if side > 0 else BRANCH_HYPERBOLIC)
        )
        assert res.branch == expected_branch
    # continuity across the edge: sample both sides of the crossover kappa
    k_edge = math.sqrt(gamma * gamma + x_edge)
    below = coupled_matched_occupations(gamma, k_edge * (1.0 - 1e-9), length).n_s
    above = coupled_matched_occupations(gamma, k_edge * (1.0 + 1e-9), length).n_s
    assert above == pytest.approx(below, rel=1e-8)


@settings(deadline=None)
@given(_finite(0.0, 1.5), _finite(0.0, 10.0), _finite(0.0, 3.0))
def test_coupled_matched_matches_propagator(gamma, kappa, length):
    n_s, n_i, n_b, _ = coupled_matched_occupations(gamma, kappa, length)
    occ = vacuum_occupations(propagate_exact(CouplerParams(gamma, kappa, 0.0, length)))
    assert occ.n_s == pytest.approx(n_s, abs=1e-9)
    assert occ.n_i == pytest.approx(n_i, abs=1e-9)
    assert occ.n_b == pytest.approx(n_b, abs=1e-9)


@settings(deadline=None)
@given(_finite(0.0, 1.5), _finite(-10.0, 10.0), _finite(0.0, 3.0))
def test_mismatched_uncoupled_matches_propagator(gamma, delta, length):
    res = n_s_mismatched_uncoupled(gamma, delta, length)
    occ = vacuum_occupations(propagate_exact(CouplerParams(gamma, 0.0, delta, length)))
    assert occ.n_s == pytest.approx(res.n_s, abs=1e-9)
    assert occ.n_b == pytest.approx(0.0, abs=1e-12)


def test_mismatched_uncoupled_depends_on_delta_squared():
    a = n_s_mismatched_uncoupled(0.5, 5.0, 1.5).n_s
    b = n_s_mismatched_uncoupled(0.5, -5.0, 1.5).n_s
    assert a == b


def test_strong_coupling_asymptote_converges():
    # Normalized by the envelope (2 gamma / kappa)^2, the error must shrink
    # as the coupling grows.
    gamma = 0.5
    lengths = np.linspace(0.0, 3.0, 301)
    errs = []
    for ratio in (20.0, 50.0, 100.0):
        kappa = gamma * ratio
        scale = (2.0 * gamma / kappa) ** 2
        err = max(
            abs(
                coupled_matched_occupations(gamma, kappa, L)[0]
                - n_s_strong_coupling_asymptote(gamma, kappa, L)
            )
            for L in lengths
        )
        errs.append(err / scale)
    assert errs[0] <= 0.05
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.25 * errs[0]


def test_strong_coupling_error_follows_cubic_law():
    # The worst-case gap to the strong-coupling formula decays like
    # (gamma/kappa)^3: fit the constant at ratio 20 and check it bounds the
    # measured error at ratios 50 and 100 (measured headroom ~8-11%).
    gamma = 0.5
    lengths = np.linspace(0.0, 3.0, 301)

    def sup_err(ratio):
        kappa = gamma * ratio
        return max(
            abs(
                coupled_matched_occupations(gamma, kappa, L)[0]
                - n_s_strong_coupling_asymptote(gamma, kappa, L)
            )
            for L in lengths
        )

    fit_c = sup_err(20.0) * 20.0**3
    assert sup_err(50.0) <= fit_c / 50.0**3
    assert sup_err(100.0) <= fit_c / 100.0**3


def test_large_mismatch_error_follows_cubic_law():
    gamma = 0.5
    lengths = np.linspace(0.0, 3.0, 301)

    def sup_err(delta):
        return max(
            abs(
                n_s_mismatched_uncoupled(gamma, delta, L).n_s
                - n_s_large_mismatch_asymptote(gamma, delta, L)
            )
            for L in lengths
        )

    fit_c = sup_err(10.0) * (10.0 / gamma) ** 3
    assert sup_err(25.0) <= fit_c / (25.0 / gamma) ** 3
    assert sup_err(50.0) <= fit_c / (50.0 / gamma) ** 3


def test_large_mismatch_asymptote_converges():
    gamma = 0.5
    lengths = np.linspace(0.0, 3.0, 301)
    errs = []
    for delta in (10.0, 25.0, 50.0):
        scale = (2.0 * gamma / delta) ** 2
        err = max(
            abs(
                n_s_mismatched_uncoupled(gamma, delta, L).n_s
                - n_s_large_mismatch_asymptote(gamma, delta, L)
            )
            for L in lengths
        )
        errs.append(err / scale)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.25 * errs[0]


def test_asymptotes_share_one_functional_form():
    # Strong probe coupling and large mismatch suppress conversion through
    # the same law: the two asymptote helpers are interchangeable.
    for x in (0.3, 1.0, 5.0, 12.5):
        for length in (0.1, 1.0, 2.7):
            assert n_s_large_mismatch_asymptote(
                0.7, x, length
            ) == n_s_strong_coupling_asymptote(0.7, x, length)


def test_large_mismatch_peak_value():
    # At the length maximizing the asymptote, the exact solution sits within
    # 0.1% of the (2 gamma/delta)^2 peak for delta/gamma = 100.
    peak_length = math.pi / 50.0
    exact = n_s_mismatched_uncoupled(0.5, 50.0, peak_length).n_s
    asym = n_s_large_mismatch_asymptote(0.5, 50.0, peak_length)
    assert asym == pytest.approx((2.0 * 0.5 / 50.0) ** 2, rel=1e-12)
    assert exact == pytest.approx(asym, rel=1e-3)


@settings(deadline=None)
@given(_finite(0.05, 1.0), _finite(1.01, 10.0), _finite(0.0, 3.0))
def test_coupled_matched_is_bounded_above_threshold(gamma, ratio, length):
    # For kappa > gamma the signal occupation never exceeds the sum of the
    # two branch-term envelopes, at any length.
    kappa = gamma * ratio
    chi_sq = kappa * kappa - gamma * gamma
    bound = gamma * gamma / chi_sq + 4.0 * kappa**2 * gamma**2 / chi_sq**2
    assert coupled_matched_occupations(gamma, kappa, length).n_s <= bound * (1.0 + 1e-12)


def test_asymptote_domain_errors():
    with pytest.raises(DomainError):
        n_s_strong_coupling_asymptote(0.5, 0.0, 1.0)
    with pytest.raises(DomainError):
        n_s_large_mismatch_asymptote(0.5, 0.0, 1.0)


@pytest.mark.parametrize(
    "law, args",
    [
        (n_s_matched, (400.0, 2.5)),  # math.sinh overflows
        (n_s_matched, (1e200, 1e200)),  # sinh(inf) = inf
        (n_s_strong_coupling_asymptote, (0.5, 1e200, 1e200)),  # math.sin(inf)
        (n_s_large_mismatch_asymptote, (0.5, 1e200, 1e200)),
        (n_s_large_mismatch_asymptote, (1e300, 1e-300, 1.0)),  # prefactor overflows
        (n_s_mismatched_uncoupled, (1e200, 3e200, 1e200)),  # ΔL overflows: sin(inf)
    ],
)
def test_laws_beyond_float_range_raise_numeric_error(law, args):
    with pytest.raises(NumericError):
        law(*args)


def test_laws_hold_at_rates_whose_squares_overflow():
    # Only ΓL, κL and ΔL matter, so rates of 1e200 over L = 1e-200 are the unit cell.
    unit = n_s_mismatched_uncoupled(1.0, 3.0, 1.0)
    assert unit.n_s == pytest.approx(0.6469, abs=1e-4)
    big = n_s_mismatched_uncoupled(1e200, 3e200, 1e-200)
    assert big.n_s == pytest.approx(unit.n_s, rel=1e-12) and big.branch == unit.branch
    unit = coupled_matched_occupations(1.0, 1.0, 1.0)
    big = coupled_matched_occupations(1e200, 1e200, 1e-200)
    assert big.branch == unit.branch == BRANCH_THRESHOLD
    for got, want in zip(big[:3], unit[:3]):
        assert got == pytest.approx(want, rel=1e-12)


def test_batch_is_bitwise_the_one_cell_results():
    cells = [
        (0.5, 1.0, 0.0, 1.0),  # trigonometric
        (0.5, 0.2, 0.0, 1.0),  # hyperbolic
        (0.5, 0.5, 0.0, 1.0),  # threshold: κ = Γ
        (0.5, 0.0, 1.0, 1.0),  # threshold: |Δ| = 2Γ
        (0.5, 0.0, -5.0, 2.0),
        (0.5, 3.0, 0.0, 0.0),  # L = 0
        (0.0, 0.0, 0.0, 1.5),
        (400.0, 0.0, 0.0, 2.5),  # sinh overflows
        (0.5, -1.0, 0.0, 1.0),  # invalid: κ < 0
        (math.nan, 0.0, 0.0, 1.0),  # invalid: NaN
        (0.5, 2.0, 3.0, 1.0),  # off the domain: κΔ != 0
    ]
    n_s, n_i, n_b, branch, ok = closed_form_batch(*np.array(cells).T)
    assert ok.tolist() == [True] * 7 + [False] * 4
    for i, cell in enumerate(cells):
        one = closed_form_batch(*cell)
        assert np.array_equal([n_s[i], n_i[i], n_b[i]], one[:3], equal_nan=True)
        assert (branch[i], ok[i]) == (one[3], one[4])
        if ok[i]:
            assert tuple(closed_form_occupations(CouplerParams(*cell))) == (
                n_s[i], n_i[i], n_b[i], branch[i]
            )
    assert branch[~ok].tolist() == [""] * 4 and np.isnan(n_s[~ok]).all()


def test_invalid_inputs():
    with pytest.raises(InvalidParameterError):
        n_s_matched(-0.5, 1.0)
    with pytest.raises(InvalidParameterError):
        coupled_matched_occupations(0.5, -1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        n_s_mismatched_uncoupled(0.5, 5.0, -1.0)
    with pytest.raises(InvalidParameterError):
        n_s_matched(math.inf, 1.0)


def test_result_supports_index_attribute_and_unpacking_access():
    res = coupled_matched_occupations(0.5, 1.0, 1.0)
    assert res[0] == res.n_s
    n_s, n_i, n_b, branch = res
    assert (n_s, n_i, n_b, branch) == (res.n_s, res.n_i, res.n_b, res.branch)
    unprobed = n_s_mismatched_uncoupled(0.5, 0.3, 1.0)
    assert unprobed == (unprobed.n_s, unprobed.n_s, 0.0, BRANCH_HYPERBOLIC)
    for delta in (0.3, 1.0, 5.0):
        n_s, _, _, branch = n_s_mismatched_uncoupled(0.5, delta, 1.0)
        via_dispatch = closed_form_occupations(CouplerParams(0.5, 0.0, delta, 1.0))
        assert tuple(via_dispatch) == (n_s, n_s, 0.0, branch)  # bitwise: == on floats


def test_package_all_lists_exactly_the_public_names():
    import zenopdc

    [getattr(zenopdc, name) for name in zenopdc.__all__]  # the namespace fills on use
    public = {
        name
        for name, value in vars(zenopdc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(zenopdc.__all__) == sorted(public | {"__version__"})


def test_import_loads_no_submodule_and_not_numpy():
    code = "import sys, zenopdc; print(sorted(m for m in sys.modules if m.startswith(('numpy', 'zenopdc'))))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['zenopdc']"


def test_star_import_binds_every_public_name():
    code = "from zenopdc import *; import zenopdc; print(all(n in globals() for n in zenopdc.__all__))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


@given(name=st.sampled_from(zenopdc.__all__))
def test_every_public_name_resolves_and_is_listed(name):
    value = getattr(zenopdc, name)
    assert vars(zenopdc)[name] is value  # kept in the namespace once resolved
    assert name in dir(zenopdc)
    if name != "__version__":
        assert value is getattr(sys.modules[f"zenopdc.{zenopdc._HOME[name]}"], name)


def test_unknown_package_names_raise():
    with pytest.raises(AttributeError, match="has no attribute 'propagate'"):
        zenopdc.propagate
    with pytest.raises(ImportError):
        from zenopdc import nonexistent  # noqa: F401


def test_no_module_imports_a_private_name_from_another():
    # A private alias of a public name (``require_finite as _require``) is fine.
    import zenopdc

    for path in Path(zenopdc.__file__).parent.glob("*.py"):
        imports = [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.ImportFrom)]
        for node in imports:
            if node.level or node.module.startswith("zenopdc"):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from {node.module}"
