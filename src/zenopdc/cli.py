"""Command-line interface: simulate | classify | sweep | dressed-check | ridge.

Every command goes through one request path in :func:`main`: read the
optional flat JSON config (``--config``, a path or the bundled names
fig2/fig3), reject keys the command does not declare, resolve ``--out`` and
``--format`` (flags override config values), run the command, and write its
artifact.  Reports are JSON on stdout unless ``--out`` redirects them to a
file; sweep and ridge can also emit CSV, while simulate, classify and
dressed-check take only JSON.  All artifacts are byte-deterministic.
``sweep --threads`` is deprecated: it is accepted and validated but changes
neither the work nor the output, because sweeps run serially.

Exit codes: 0 success; 2 invalid parameters/config/range (including an
unreadable config file and a JSON boolean where a number belongs) or an
unwritable ``--out`` (a missing directory is caught before any work);
3 engine-parameter mismatch (closed-form engine off its domain,
classification at kappa = 0); 4 sweep finished but some cells failed;
5 dressed-frame cross-check exceeded its tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .closed_forms import closed_form_occupations
from .dressed import propagate_dressed, qpm_comparison
from .dynamics import check_symplectic, propagate_exact, propagate_ode, vacuum_occupations
from .params import CouplerError, CouplerParams, DomainError, InvalidParameterError
from .regimes import classify_regime
from .sweeps import (
    ENGINE_NUMERIC,
    ENGINES,
    SweepAxis,
    SweepGrid,
    SweepSpec,
    find_anti_zeno_ridge,
    ridge_linearity,
    sweep_2d,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_CELL_FAILURES = 4
EXIT_DRESSED_MISMATCH = 5

DRESSED_CHECK_TOL = 1e-8

_PARAM_DEFAULTS = {"gamma": 0.5, "kappa": 0.0, "delta": 0.0, "length": 1.0}
_PARAM_NAMES = ("gamma", "kappa", "delta", "length")
_PARAM_HELP = {
    "gamma": "downconversion gain (1/length)",
    "kappa": "idler-probe coupling (1/length)",
    "delta": "pump phase mismatch (1/length)",
    "length": "interaction length",
}
_TOLERANCES = ("tol_sym", "tol_phys")
_BUNDLED_CONFIGS = {
    "fig2": "fig2.json",
    "fig2.json": "fig2.json",
    "fig3": "fig3.json",
    "fig3.json": "fig3.json",
}
#: Result keys a sweep artifact carries beyond its spec; accepted and ignored
#: on re-ingest so that a sweep's JSON output is itself a valid config.
_SWEEP_RESULT_KEYS = frozenset({"values", "provenance", "failures"})


# ---------------------------------------------------------------- config I/O


def _read_config(spec: str) -> dict:
    path = Path(spec)
    if not path.exists():
        bundled = _BUNDLED_CONFIGS.get(spec)
        if bundled is None:
            raise InvalidParameterError(f"config not found: {spec}")
        path = resources.files("zenopdc").joinpath("configs", bundled)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read config {spec}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # nesting deeper than the parser's recursion limit
        raise InvalidParameterError(f"config is nested too deeply: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidParameterError("config must be a JSON object")
    return data


def _check_keys(data: dict, allowed: set, what: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise InvalidParameterError(f"unknown {what} keys: {sorted(unknown)}")


def _merge_params(args, config: dict) -> CouplerParams:
    """Resolve gamma/kappa/delta/length from flags > config > defaults; tolerances from config."""
    values = {name: config[name] for name in _TOLERANCES if name in config}
    for name in _PARAM_NAMES:
        values[name] = _resolve(args, config, name, _PARAM_DEFAULTS[name])
    return CouplerParams(**values)


def _resolve(args, config: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return config.get(key, default)


# ------------------------------------------------------------- serialization


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _out_path(args, config: dict) -> str | None:
    """Resolve ``out``; a missing directory fails here, before any work."""
    out = _resolve(args, config, "out", None)
    if out is not None and not isinstance(out, str):
        raise InvalidParameterError(f"out must be a path string, got {out!r}")
    if out and not Path(out).parent.is_dir():
        raise InvalidParameterError(f"output directory does not exist: {Path(out).parent}")
    return out


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL or unencodable character
        raise InvalidParameterError(f"cannot write {out}: {exc}") from exc


def _json_text(report: dict) -> str:
    return json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"


def _params_echo(params: CouplerParams) -> dict:
    return {name: getattr(params, name) for name in _PARAM_NAMES}


def _sweep_json_text(grid: SweepGrid) -> str:
    spec = grid.spec
    doc = {
        "engine": spec.engine,
        "fixed": _params_echo(spec.fixed),
        "axis1": {"name": spec.axis1.name, "start": spec.axis1.start,
                  "stop": spec.axis1.stop, "count": spec.axis1.count},
        "axis2": {"name": spec.axis2.name, "start": spec.axis2.start,
                  "stop": spec.axis2.stop, "count": spec.axis2.count},
        "values": grid.values,
        "provenance": grid.provenance,
        "failures": grid.failures,
    }
    return _json_text(doc)


def _sweep_csv_text(grid: SweepGrid) -> str:
    a1 = grid.spec.axis1.grid()
    a2 = grid.spec.axis2.grid()
    lines = ["axis1,axis2,n_s,engine"]
    for i in range(grid.spec.axis1.count):
        for j in range(grid.spec.axis2.count):
            lines.append(
                f"{float(a1[i])!r},{float(a2[j])!r},"
                f"{float(grid.values[i, j])!r},{grid.provenance[i, j]}"
            )
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ commands
#
# Each command receives the parsed flags, the config (its keys already
# checked) and the resolved format, and returns (artifact text, exit code,
# stderr note or None); ``main`` writes the artifact and only then the note,
# so that a failed write leaves "error:" as the first line on stderr.


def cmd_simulate(args, config: dict, fmt: str) -> tuple[str, int, str | None]:
    params = _merge_params(args, config)
    engine = _resolve(args, config, "engine", "exact")
    if engine not in ("exact", "ode", "closed-form"):
        raise InvalidParameterError(
            f"engine must be exact, ode, or closed-form, got {engine!r}"
        )

    branch = None
    residual = None
    if engine == "closed-form":
        n_s, n_i, n_b, branch = closed_form_occupations(params)
    else:
        bmap = propagate_exact(params) if engine == "exact" else propagate_ode(params)
        occ = vacuum_occupations(bmap)
        n_s, n_i, n_b = occ.n_s, occ.n_i, occ.n_b
        residual = check_symplectic(bmap)

    report = {
        "command": "simulate",
        "engine": engine,
        "params": _params_echo(params),
        "n_s": n_s,
        "n_i": n_i,
        "n_b": n_b,
        "symplectic_residual": residual,
        "branch": branch,
    }
    return _json_text(report), EXIT_OK, None


def cmd_classify(args, config: dict, fmt: str) -> tuple[str, int, str | None]:
    params = _merge_params(args, config)
    report = classify_regime(params)
    doc = {
        "command": "classify",
        "params": _params_echo(params),
        "coefficients": {
            "c2": report.coefficients.c2,
            "c1": report.coefficients.c1,
            "c0": report.coefficients.c0,
        },
        "discriminant": report.discriminant,
        "regime": report.regime,
        "roots": [[z.real, z.imag] for z in report.roots],
        "boundary_kappas": list(report.boundary_kappas) if report.boundary_kappas else None,
    }
    if report.boundary_kappas:
        k1, k2 = report.boundary_kappas
        window = f"; hyperbolic window kappa in ({k2:.6g}, {k1:.6g})"
    else:
        window = ""
    note = f"regime: {report.regime} (discriminant {report.discriminant:.6g}){window}"
    return _json_text(doc), EXIT_OK, note


def _sweep_spec_from(args, config: dict) -> SweepSpec:
    fixed_cfg = config.get("fixed", {})
    if not isinstance(fixed_cfg, dict):
        raise InvalidParameterError("sweep config 'fixed' must be an object")
    _check_keys(fixed_cfg, {*_PARAM_NAMES, *_TOLERANCES}, "fixed")
    fixed = _merge_params(args, fixed_cfg)

    axes = []
    for key in ("axis1", "axis2"):
        axis_cfg = config.get(key)
        if not isinstance(axis_cfg, dict):
            raise InvalidParameterError(f"sweep config must define {key} as an object")
        _check_keys(axis_cfg, {"name", "start", "stop", "count"}, key)
        try:
            axes.append(SweepAxis(**axis_cfg))
        except TypeError as exc:
            raise InvalidParameterError(f"{key} is incomplete: {exc}") from exc

    engine = _resolve(args, config, "engine", ENGINE_NUMERIC)
    return SweepSpec(fixed=fixed, axis1=axes[0], axis2=axes[1], engine=engine)


def cmd_sweep(args, config: dict, fmt: str) -> tuple[str, int, str | None]:
    spec = _sweep_spec_from(args, config)
    grid = sweep_2d(spec, threads=_resolve(args, config, "threads", 1))
    text = _sweep_csv_text(grid) if fmt == "csv" else _sweep_json_text(grid)
    if grid.failures:
        return text, EXIT_CELL_FAILURES, f"{grid.failures} grid cells failed (tagged NaN)"
    return text, EXIT_OK, None


def cmd_dressed_check(args, config: dict, fmt: str) -> tuple[str, int, str | None]:
    seed = _resolve(args, config, "seed", None)
    if seed is None:
        params = _merge_params(args, config)
    elif isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise InvalidParameterError(f"seed must be a non-negative integer, got {seed!r}")
    else:
        rng = np.random.default_rng(seed)
        params = CouplerParams(
            gamma=rng.uniform(0.05, 1.5),
            kappa=rng.uniform(0.0, 10.0),
            delta=rng.uniform(-10.0, 10.0),
            length=rng.uniform(0.0, 3.0),
        )
    direct = vacuum_occupations(propagate_exact(params))
    dressed = propagate_dressed(params)
    residual = max(
        abs(direct.n_s - dressed.n_s),
        abs(direct.n_i - dressed.n_i),
        abs(direct.n_b - dressed.n_b),
    )
    if params.gamma > 0.0:
        resonant, qpm = qpm_comparison(params.gamma)
        qpm_doc = {"resonant_gain": resonant, "qpm_gain": qpm, "ratio": resonant / qpm}
    else:
        qpm_doc = None
    passed = residual <= DRESSED_CHECK_TOL
    report = {
        "command": "dressed-check",
        "params": _params_echo(params),
        "direct": {"n_s": direct.n_s, "n_i": direct.n_i, "n_b": direct.n_b},
        "dressed": {"n_s": dressed.n_s, "n_i": dressed.n_i, "n_b": dressed.n_b},
        "residual": residual,
        "tolerance": DRESSED_CHECK_TOL,
        "passed": passed,
        "qpm": qpm_doc,
    }
    return _json_text(report), EXIT_OK if passed else EXIT_DRESSED_MISMATCH, None


def _parse_deltas(spec: str) -> list[float]:
    """Parse --delta for ridge: a single value or min:max:count."""
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise InvalidParameterError(f"bad delta range {spec!r}: use VALUE or MIN:MAX:COUNT")
    try:
        numbers = [float(p) for p in parts[:2]] + [int(p) for p in parts[2:]]
    except ValueError as exc:
        raise InvalidParameterError(f"bad delta range {spec!r}: {exc}") from exc
    if len(numbers) == 1:
        return numbers
    lo, hi, count = numbers
    if count < 1 or not lo < hi:
        raise InvalidParameterError(f"bad delta range {spec!r}: need min < max and count >= 1")
    return [float(x) for x in np.linspace(lo, hi, count)]


def cmd_ridge(args, config: dict, fmt: str) -> tuple[str, int, str | None]:
    gamma = _resolve(args, config, "gamma", 0.5)
    length = _resolve(args, config, "length", 1.5)
    if args.delta is not None:
        deltas = _parse_deltas(args.delta)
    elif isinstance(config.get("deltas"), list):
        deltas = config["deltas"]
    elif "deltas" in config:
        raise InvalidParameterError(f"config 'deltas' must be a list, got {config['deltas']!r}")
    else:
        raise InvalidParameterError("ridge needs --delta MIN:MAX:COUNT or config 'deltas'")

    points = find_anti_zeno_ridge(gamma, length, deltas)
    fit = None
    if len(points) >= 3:
        slope, intercept, max_residual = ridge_linearity(points)
        fit = {"slope": slope, "intercept": intercept, "max_residual": max_residual}
    if fmt == "csv":
        lines = ["delta,kappa_opt,n_s_max"]
        for p in points:
            lines.append(f"{p.delta!r},{p.kappa_opt!r},{p.n_s_max!r}")
        return "\n".join(lines) + "\n", EXIT_OK, None
    doc = {
        "command": "ridge",
        "gamma": gamma,
        "length": length,
        "points": [
            {"delta": p.delta, "kappa_opt": p.kappa_opt, "n_s_max": p.n_s_max}
            for p in points
        ],
        "fit": fit,
    }
    return _json_text(doc), EXIT_OK, None


# -------------------------------------------------------------------- parser


def _add_command(sub, name: str, func, summary: str, keys, formats=("json",), flags=_PARAM_NAMES):
    """Register ``name``: a float flag per parameter in ``flags``, the shared
    --config/--out/--format, and the config ``keys`` and ``formats`` that
    :func:`main` checks before it calls ``func``."""
    p = sub.add_parser(name, help=summary)
    for flag in flags:
        p.add_argument(f"--{flag}", type=float, help=_PARAM_HELP[flag])
    p.add_argument("--config", help="JSON config file (or bundled: fig2, fig3)")
    p.add_argument("--out", help="write the report/artifact to this path")
    p.add_argument("--format", choices=("json", "csv"), help="artifact format")
    p.set_defaults(func=func, config_keys={*keys, "out", "format"}, formats=formats)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenopdc",
        description="Photon-pair generation in a probed nonlinear coupler",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "simulate", cmd_simulate, "occupations for one parameter point",
                     keys={*_PARAM_NAMES, "engine"})
    p.add_argument("--engine", choices=("exact", "ode", "closed-form"),
                   help="propagation engine (default exact)")

    _add_command(sub, "classify", cmd_classify, "dynamical regime from the frequency cubic",
                 keys=_PARAM_NAMES)

    p = _add_command(sub, "sweep", cmd_sweep, "2-D grid of signal occupations",
                     keys={"fixed", "axis1", "axis2", "engine", "threads", *_SWEEP_RESULT_KEYS},
                     formats=("json", "csv"))
    p.add_argument("--engine", choices=ENGINES, help="per-cell engine policy")
    p.add_argument("--threads", type=int,
                   help="deprecated: accepted for compatibility; sweeps run serially, "
                        "output is identical")

    p = _add_command(sub, "dressed-check", cmd_dressed_check,
                     "cross-validate the dressed-frame route", keys={*_PARAM_NAMES, "seed"})
    p.add_argument("--seed", type=int, help="draw random parameters instead of flags")

    p = _add_command(sub, "ridge", cmd_ridge, "track the anti-Zeno ridge kappa_opt(delta)",
                     keys={"gamma", "length", "deltas"}, formats=("json", "csv"),
                     flags=("gamma", "length"))
    p.add_argument("--delta", help="mismatch values: VALUE or MIN:MAX:COUNT")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _read_config(args.config) if args.config else {}
        _check_keys(config, args.config_keys, "config")
        out = _out_path(args, config)
        fmt = _resolve(args, config, "format", "json")
        if fmt not in args.formats:
            raise InvalidParameterError(
                f"{args.command} supports only --format {' or '.join(args.formats)}, got {fmt!r}"
            )
        text, code, note = args.func(args, config, fmt)
        _emit(text, out)
        if note:
            print(note, file=sys.stderr)
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except CouplerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
