"""Command-line interface: simulate | classify | sweep | dressed-check | ridge.

Every command goes through one request path in :func:`main`: read the
optional flat JSON config (``--config``, a path or the bundled names
fig2/fig3), reject keys the command does not declare, resolve ``--out`` and
``--format`` (flags override config values), run the command, and write its
artifact.  Reports are JSON on stdout unless ``--out`` redirects them to a
file; sweep and ridge can also emit CSV, while simulate, classify and
dressed-check take only JSON.  All artifacts are byte-deterministic.  A
sweep's artifact is streamed, row by row, as it is formatted, so memory stays
at the sweep's own level; a write that fails midway leaves a truncated file
(no temp file, no rename) and exits 2.
Warnings (a flat ridge landscape) print after the artifact as one
``warning: <message>`` line each, and only when the command succeeds; a
failing command prints exactly one ``error:`` line on stderr.
``sweep --threads`` is deprecated: it is accepted and validated but changes
neither the work nor the output, because sweeps run serially.
Each ``cmd_*`` function imports the modules it runs when it is called, so a
one-shot ``python -m zenopdc`` run loads only those (``classify`` loads
``regimes`` and no propagator).  :func:`main` builds the parser once per
process and looks the ``cmd_*`` function up by the command's name on each call.

Exit codes: 0 success; 2 a malformed command line (an unknown command or flag,
a missing or unconvertible value, an unknown engine or format), invalid
parameters/config/range (an unreadable config file, a JSON boolean, a JSON
string or an integer beyond float64 where a number belongs, a grid or range
too large to allocate) or an unwritable ``--out`` (a missing directory is
caught before any work, a failed write after it); 3 engine-parameter mismatch
(closed-form engine off its domain, classification at kappa = 0); 4 sweep
finished but some cells failed; 5 dressed-frame cross-check beyond tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from collections.abc import Iterable
from dataclasses import asdict, astuple, fields
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .params import ENGINE_NUMERIC, ENGINES, PARAM_AXES
from .params import CouplerError, CouplerParams, DomainError, InvalidParameterError
from .params import require_allocatable, require_count, require_finite

if TYPE_CHECKING:
    from .sweeps import SweepSpec

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_CELL_FAILURES = 4
EXIT_DRESSED_MISMATCH = 5

DRESSED_CHECK_TOL = 1e-8

_PARAM_DEFAULTS = {"gamma": 0.5, "kappa": 0.0, "delta": 0.0, "length": 1.0}
_PARAM_HELP = {
    "gamma": "downconversion gain (1/length)",
    "kappa": "idler-probe coupling (1/length)",
    "delta": "pump phase mismatch (1/length)",
    "length": "interaction length",
}
#: Configs shipped in the package, named with or without ".json".
_BUNDLED_CONFIGS = ("fig2", "fig3")
#: Engines of ``simulate``.
_SIMULATE_ENGINES = ("exact", "ode", "closed-form")
#: Result keys a sweep artifact carries beyond its spec; accepted and ignored
#: on re-ingest so that a sweep's JSON output is itself a valid config.
_SWEEP_RESULT_KEYS = frozenset({"values", "provenance", "failures"})


# ---------------------------------------------------------------- config I/O


def _read_config(spec: str) -> dict:
    path = Path(spec)
    if not path.exists():
        name = spec.removesuffix(".json")
        if name not in _BUNDLED_CONFIGS:
            raise InvalidParameterError(f"config not found: {spec}")
        path = resources.files("zenopdc").joinpath("configs", f"{name}.json")
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
    """Resolve gamma/kappa/delta/length from flags > config > defaults."""
    return CouplerParams(
        **{name: _resolve(args, config, name, _PARAM_DEFAULTS[name]) for name in PARAM_AXES}
    )


def _resolve(args, config: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return config.get(key, default)


# ------------------------------------------------------------- serialization


def _plain(obj):
    """``json.dumps`` default hook: complex as [re, im]."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _out_path(args, config: dict) -> str | None:
    """Resolve ``out``; a missing directory fails here, before any work."""
    out = _resolve(args, config, "out", None)
    if out is not None and not isinstance(out, str):
        raise InvalidParameterError(f"out must be a path string, got {out!r}")
    if out and not Path(out).parent.is_dir():
        raise InvalidParameterError(f"output directory does not exist: {Path(out).parent}")
    return out


#: Cells per encoded slice of a sweep row, so that no piece grows with the grid.
_SLICE = 4096
#: The C encoder (``indent=None``) with ``indent=2``'s item separator at depth 2:
#: ``encode(cells)[1:-1]`` is a grid row's items as ``json.dumps(..., indent=2)`` lays them out.
_ROW_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))


def _write(pieces, out: str | None) -> None:
    """Write the artifact's pieces to ``out`` (or stdout) as they are made.

    This is the one place a write failure becomes ``cannot write``.  There is
    no temp file: a write that fails midway leaves a truncated ``out``.  After a
    failed write to the process's stdout, stdout is ``/dev/null``: the exit flush cannot fail.
    """
    try:
        if not out:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()  # a buffered stdout fails here, not at exit
            return
        with open(out, "w") as stream:
            stream.writelines(pieces)
    except (OSError, ValueError) as exc:  # ValueError: a NUL or unencodable character
        if not out and sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise InvalidParameterError(f"cannot write {out or 'stdout'}: {exc}") from exc


def _report(doc: dict) -> list[str]:
    return [json.dumps(doc, sort_keys=True, indent=2, default=_plain) + "\n"]


def _json_items(cells: np.ndarray) -> str:
    return _ROW_ENCODER.encode(cells.tolist())[1:-1]


def _json_grid(grid: np.ndarray, items=_json_items):
    """``grid``'s rows as ``json.dumps(..., indent=2)`` writes them at depth 1, one
    ``items(slice)`` per slice of a row: by default its cells as JSON."""
    for i, row in enumerate(grid):
        yield ",\n    [\n      " if i else "[\n    [\n      "
        for j in range(0, len(row), _SLICE):
            if j:
                yield ",\n      "
            yield items(row[j:j + _SLICE])
        yield "\n    ]"
    yield "\n  ]"


# ------------------------------------------------------------------ commands
#
# Each command receives the parsed flags, the config (its keys already
# checked) and the resolved format, and returns (artifact pieces, exit code,
# stderr note or None): the pieces are strings, formatted lazily for a sweep
# but only after all the work is done.  ``main`` writes them and only then
# the note, so that a failed write leaves "error:" as the first line on stderr.
# Warnings recorded meanwhile follow the note, on success only.


def cmd_simulate(args, config: dict, fmt: str) -> tuple[Iterable[str], int, str | None]:
    from .dynamics import ModeOccupations, check_symplectic, vacuum_occupations
    from .dynamics import propagate_exact, propagate_ode

    params = _merge_params(args, config)
    engine = _resolve(args, config, "engine", "exact")
    if engine not in _SIMULATE_ENGINES:
        *rest, last = _SIMULATE_ENGINES
        raise InvalidParameterError(f"engine must be {', '.join(rest)}, or {last}, got {engine!r}")

    branch = None
    residual = None
    if engine == "closed-form":
        from .closed_forms import closed_form_occupations

        *occupations, branch = closed_form_occupations(params)
        occ = ModeOccupations(*occupations)
    else:
        bmap = propagate_exact(params) if engine == "exact" else propagate_ode(params)
        occ = vacuum_occupations(bmap)
        residual = check_symplectic(bmap)

    report = {
        "command": "simulate",
        "engine": engine,
        "params": asdict(params),
        **asdict(occ),
        "symplectic_residual": residual,
        "branch": branch,
    }
    return _report(report), EXIT_OK, None


def cmd_classify(args, config: dict, fmt: str) -> tuple[Iterable[str], int, str | None]:
    from .regimes import classify_regime

    params = _merge_params(args, config)
    report = classify_regime(params)
    doc = {"command": "classify", "params": asdict(params), **asdict(report)}
    if report.boundary_kappas:
        k1, k2 = report.boundary_kappas
        window = f"; hyperbolic window kappa in ({k2:.6g}, {k1:.6g})"
    else:
        window = ""
    note = f"regime: {report.regime} (discriminant {report.discriminant:.6g}){window}"
    return _report(doc), EXIT_OK, note


def _sweep_spec_from(args, config: dict) -> SweepSpec:
    from .sweeps import SweepAxis, SweepSpec

    fixed_cfg = config.get("fixed", {})
    if not isinstance(fixed_cfg, dict):
        raise InvalidParameterError("sweep config 'fixed' must be an object")
    _check_keys(fixed_cfg, set(PARAM_AXES), "fixed")
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


def cmd_sweep(args, config: dict, fmt: str) -> tuple[Iterable[str], int, str | None]:
    from .sweeps import sweep_2d

    spec = _sweep_spec_from(args, config)
    grid = sweep_2d(spec, threads=_resolve(args, config, "threads", 1))
    pieces = (_sweep_csv if fmt == "csv" else _sweep_json)(spec, grid)
    if grid.failures:
        return pieces, EXIT_CELL_FAILURES, f"{grid.failures} grid cells failed (tagged NaN)"
    return pieces, EXIT_OK, None


def _sweep_json(spec: SweepSpec, grid):
    """The sorted spec keys, then ``provenance`` and ``values``, the last two keys, row by row."""
    from .sweeps import TAGS

    (head,) = _report({"axis1": asdict(spec.axis1), "axis2": asdict(spec.axis2),
                       "engine": spec.engine, "failures": grid.failures, "fixed": asdict(spec.fixed)})
    tags = tuple(map(json.dumps, TAGS))

    @functools.lru_cache(maxsize=1)  # a slice's text, reused while the next slices match it
    def provenance(codes: bytes) -> str:
        return ",\n      ".join(map(tags.__getitem__, codes))

    yield head[:-3] + ',\n  "provenance": '  # head ends "\n}\n"
    yield from _json_grid(grid.codes, lambda codes: provenance(codes.tobytes()))
    yield ',\n  "values": '
    yield from _json_grid(grid.values)
    yield "\n}\n"


def _sweep_csv(spec: SweepSpec, grid):
    """One ``axis1,axis2,n_s,engine`` line per cell; a float prints as its repr (NaN as nan)."""
    from .sweeps import TAGS

    yield "axis1,axis2,n_s,engine\n"
    a2 = spec.axis2.grid()

    @functools.lru_cache(maxsize=1)  # one slice of axis-2 reprs, reused by every row if axis 2 fits
    def ys(j):
        return list(map(repr, a2[j:j + _SLICE].tolist()))

    for x, values, codes in zip(map(repr, spec.axis1.grid().tolist()), grid.values, grid.codes):
        for j in range(0, len(a2), _SLICE):
            tags = map(TAGS.__getitem__, codes[j:j + _SLICE].tobytes())
            cells = zip(ys(j), values[j:j + _SLICE].tolist(), tags)
            yield "".join([f"{x},{y},{v!r},{t}\n" for y, v, t in cells])


def cmd_dressed_check(args, config: dict, fmt: str) -> tuple[Iterable[str], int, str | None]:
    from .dressed import propagate_dressed, qpm_comparison
    from .dynamics import propagate_exact, vacuum_occupations

    seed = _resolve(args, config, "seed", None)
    if seed is None:
        params = _merge_params(args, config)
    else:
        rng = np.random.default_rng(require_count("seed", seed, 0))
        params = CouplerParams(
            gamma=rng.uniform(0.05, 1.5),
            kappa=rng.uniform(0.0, 10.0),
            delta=rng.uniform(-10.0, 10.0),
            length=rng.uniform(0.0, 3.0),
        )
    direct = vacuum_occupations(propagate_exact(params))
    dressed = propagate_dressed(params)
    residual = max(abs(a - b) for a, b in zip(astuple(direct), astuple(dressed)))
    if params.gamma > 0.0:
        resonant, qpm = qpm_comparison(params.gamma)
        qpm_doc = {"resonant_gain": resonant, "qpm_gain": qpm, "ratio": resonant / qpm}
    else:
        qpm_doc = None
    passed = residual <= DRESSED_CHECK_TOL
    report = {
        "command": "dressed-check",
        "params": asdict(params),
        "direct": asdict(direct),
        "dressed": asdict(dressed),
        "residual": residual,
        "tolerance": DRESSED_CHECK_TOL,
        "passed": passed,
        "qpm": qpm_doc,
    }
    return _report(report), EXIT_OK if passed else EXIT_DRESSED_MISMATCH, None


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
    if not lo < hi:
        raise InvalidParameterError(f"bad delta range {spec!r}: need min < max")
    require_count("delta range count", count, 1)
    require_allocatable("delta range count", count, np.float64)
    require_finite("delta range max - min", hi - lo)  # also rejects an infinite end
    return [float(x) for x in np.linspace(lo, hi, count)]


def cmd_ridge(args, config: dict, fmt: str) -> tuple[Iterable[str], int, str | None]:
    from .sweeps import RidgePoint, find_anti_zeno_ridge, ridge_linearity

    gamma = require_finite("gamma", _resolve(args, config, "gamma", 0.5))
    length = require_finite("length", _resolve(args, config, "length", 1.5))
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
        rows = [[field.name for field in fields(RidgePoint)], *map(astuple, points)]
        return ["".join(",".join(map(str, row)) + "\n" for row in rows)], EXIT_OK, None
    doc = {
        "command": "ridge",
        "gamma": gamma,
        "length": length,
        "points": [asdict(p) for p in points],
        "fit": fit,
    }
    return _report(doc), EXIT_OK, None


# -------------------------------------------------------------------- parser


def _add_command(sub, name: str, summary: str, keys, formats=("json",), flags=PARAM_AXES):
    """Register ``name``: a float flag per parameter in ``flags``, the shared
    --config/--out/--format, and the config ``keys`` and ``formats`` that
    :func:`main` checks before it calls the command's ``cmd_*`` function."""
    p = sub.add_parser(name, help=summary)
    for flag in flags:
        p.add_argument(f"--{flag}", type=float, help=_PARAM_HELP[flag])
    p.add_argument("--config", help="JSON config file (or bundled: fig2, fig3)")
    p.add_argument("--out", help="write the report/artifact to this path")
    p.add_argument("--format", help=f"artifact format: {' or '.join(formats)} (default json)")
    p.set_defaults(config_keys={*keys, "out", "format"}, formats=formats)
    return p


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line exits 2 through main, as bad values do
        raise InvalidParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zenopdc",
        description="Photon-pair generation in a probed nonlinear coupler",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "simulate", "occupations for one parameter point",
                     keys={*PARAM_AXES, "engine"})
    p.add_argument("--engine", help=f"engine: {', '.join(_SIMULATE_ENGINES)} (default exact)")

    _add_command(sub, "classify", "dynamical regime from the frequency cubic",
                 keys=PARAM_AXES)

    p = _add_command(sub, "sweep", "2-D grid of signal occupations",
                     keys={"fixed", "axis1", "axis2", "engine", "threads", *_SWEEP_RESULT_KEYS},
                     formats=("json", "csv"))
    p.add_argument("--engine", help=f"per-cell engine policy: {', '.join(ENGINES)}")
    p.add_argument("--threads", type=int,
                   help="deprecated: accepted for compatibility; sweeps run serially, "
                        "output is identical")

    p = _add_command(sub, "dressed-check", "cross-validate the dressed-frame route",
                     keys={*PARAM_AXES, "seed"})
    p.add_argument("--seed", type=int, help="draw random parameters instead of flags")

    p = _add_command(sub, "ridge", "track the anti-Zeno ridge kappa_opt(delta)",
                     keys={"gamma", "length", "deltas"}, formats=("json", "csv"),
                     flags=("gamma", "length"))
    p.add_argument("--delta", help="mismatch values: VALUE or MIN:MAX:COUNT")
    return parser


#: The parser, built on the first :func:`main` call and kept for the process.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        config = _read_config(args.config) if args.config else {}
        _check_keys(config, args.config_keys, "config")
        out = _out_path(args, config)
        fmt = _resolve(args, config, "format", "json")
        if fmt not in args.formats:
            raise InvalidParameterError(
                f"{args.command} supports only --format {' or '.join(args.formats)}, got {fmt!r}"
            )
        with warnings.catch_warnings(record=True) as caught:
            command = globals()[f"cmd_{args.command.replace('-', '_')}"]
            pieces, code, note = command(args, config, fmt)
            _write(pieces, out)
        if note:
            print(note, file=sys.stderr)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except CouplerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:  # a grid or range too large for this machine's memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
