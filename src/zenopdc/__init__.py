"""Photon-pair generation in a nonlinear coupler with a probed idler.

A pump-driven parametric process converts pump photons into signal/idler
pairs while the idler exchanges excitations with an auxiliary probe mode.
The package propagates the resulting linear mode-mixing dynamics exactly
(matrix exponential), numerically (independent ODE integration), and in a
rotated "dressed" basis, extracts Bogoliubov (U, V) blocks and vacuum-seeded
occupations, evaluates closed-form limits, classifies dynamical regimes from
the characteristic cubic, and scans parameter grids for the suppression
(Zeno) and revival (anti-Zeno) features of the signal yield.

``import zenopdc`` loads no submodule (and not numpy): each public name is
imported from its module on first use (PEP 562) and then kept here, so a
command-line run pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

#: Each public name, under the module that defines it.
_EXPORTS = {
    "closed_forms": (
        "BRANCH_HYPERBOLIC", "BRANCH_THRESHOLD", "BRANCH_TRIG", "ClosedFormResult",
        "closed_form_batch", "coupled_matched_occupations", "n_s_large_mismatch_asymptote",
        "n_s_matched", "n_s_mismatched_uncoupled", "n_s_strong_coupling_asymptote",
    ),
    "dressed": (
        "DRESSED_MODES", "build_dressed_generator", "dressed_bogoliubov_map",
        "propagate_dressed", "qpm_comparison", "resonant_vs_qpm",
    ),
    "dynamics": (
        "MODES", "BogoliubovMap", "ModeOccupations", "build_generator", "check_symplectic",
        "compose", "propagate_batch", "propagate_exact", "propagate_lengths", "propagate_ode",
        "vacuum_occupations",
    ),
    "params": (
        "ENGINE_CLOSED_WHEN_APPLICABLE", "ENGINE_NUMERIC", "ENGINES", "PARAM_AXES",
        "BoundaryNotFoundError", "CouplerError", "CouplerParams", "DomainError",
        "FlatLandscapeWarning", "IntegrationError", "InvalidParameterError", "NumericError",
        "require_finite",
    ),
    "regimes": (
        "REGIME_BOUNDARY", "REGIME_HYPERBOLIC", "REGIME_OSCILLATORY", "CubicCoefficients",
        "RegimeReport", "boundary_exact", "characteristic_cubic", "classify_regime",
        "cubic_discriminant", "discriminant_tolerance", "discriminant_weak_gamma",
        "regime_boundaries",
    ),
    "sweeps": (
        "TAG_CLOSED", "TAG_FAILED", "TAG_NUMERIC", "RidgePoint", "SweepAxis", "SweepGrid",
        "SweepSpec", "find_anti_zeno_ridge", "max_signal_over_length", "ridge_linearity",
        "sweep_2d",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
