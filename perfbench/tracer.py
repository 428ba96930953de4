"""Span tracer for the zenopdc benchmark, installed from outside the package.

``Tracer.install`` replaces, in every ``zenopdc`` module namespace, each
public package function with a wrapper under the name its callers look up
(so ``zenopdc.sweeps.propagate_exact`` and ``zenopdc.cli.propagate_exact``
are both traced), wraps ``CouplerParams.__post_init__``, and routes the
``numpy.linalg`` eig/cond/solve and ``scipy.linalg.expm`` calls that
``zenopdc.dynamics`` makes through traced proxies.  No file of the package
is modified; ``uninstall`` restores every attribute.

Each wrapper records a span (name, start, end, parent).  A span's self time
is its duration minus the part of it that its child spans cover.  Spans are
folded into per-thread tables keyed by (name, parent name) as they close, so
memory stays flat however many cells a pass evaluates; the tables are merged
and turned into per-layer metrics when the run ends.

Run as a script, it executes one traced ``zenopdc`` command line and writes
the span table to a JSON file (the ``cli_oneshot`` workload uses this):

    PYTHONPATH=src python3 perfbench/tracer.py TABLE.json simulate --gamma 0.5
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import threading
import time

#: The package modules, which are the benchmark's layers.
LAYERS = ("params", "dynamics", "closed_forms", "regimes", "dressed", "sweeps", "cli")

#: Library calls reached from ``zenopdc.dynamics``; they belong to that layer
#: but are reported separately from its self time.
EXTERNAL = {
    "numpy.linalg.eig": "dynamics",
    "numpy.linalg.cond": "dynamics",
    "numpy.linalg.solve": "dynamics",
    "scipy.linalg.expm": "dynamics",
}


def layer_of(name: str | None) -> str | None:
    if name is None:
        return None
    return EXTERNAL.get(name) or name.partition(".")[0]


def _matrices(args, kwargs) -> int:
    """Number of square matrices in a (possibly stacked) linalg argument."""
    shape = getattr(args[0] if args else kwargs["a"], "shape", (3, 3))
    return math.prod(shape[:-2])


def _grid_cells(args, kwargs) -> int:
    spec = args[0] if args else kwargs["spec"]
    return spec.axis1.count * spec.axis2.count


def _ridge_points(args, kwargs) -> int:
    deltas = args[2] if len(args) > 2 else kwargs["deltas"]
    return len(deltas)


#: Work counted by a span beyond its call count (its "weight").
WEIGHTS = {
    "numpy.linalg.eig": _matrices,
    "sweeps.sweep_2d": _grid_cells,
    "sweeps.find_anti_zeno_ridge": _ridge_points,
}


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class _Proxy:
    """Attribute proxy: the overrides first, then everything of ``target``."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Collects spans from wrapped package functions into per-thread tables."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self._main_stack: list | None = None

    def _state(self) -> tuple[list, dict]:
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack, local.table = [], {}
            self._tables.append(local.table)
            return local.stack, local.table

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span ``name``."""
        weight = WEIGHTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = self._state()
            if stack:
                parent, cross = stack[-1], False
            else:
                # A worker thread's outermost span belongs to whatever the
                # installing (main) thread has open, e.g. sweep_2d's pool wait.
                main = self._main_stack
                parent = main[-1] if main else None
                cross = parent is not None
            # frame: [name, same-thread child time, cross-thread child intervals]
            frame = [name, 0.0, []]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                covered = frame[1] + (_union_length(frame[2]) if frame[2] else 0.0)
                if cross:
                    parent[2].append((start, end))
                elif parent is not None:
                    parent[1] += duration
                key = (name, parent[0] if parent is not None else None)
                row = table.get(key)
                if row is None:
                    row = table[key] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - covered
                if weight is not None:
                    row[3] += weight(args, kwargs)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the package in place; call from the thread that runs the workload."""
        package = importlib.import_module("zenopdc")
        modules = {layer: importlib.import_module(f"zenopdc.{layer}") for layer in LAYERS}
        wrappers: dict[object, object] = {}
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if not inspect.isfunction(value) or value.__name__.startswith("_"):
                    continue
                home = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith("zenopdc.") or home not in modules:
                    continue
                if value not in wrappers:
                    wrappers[value] = self.wrap(f"{home}.{value.__name__}", value)
                self._patch(namespace, attr, wrappers[value])

        params_cls = modules["params"].CouplerParams
        self._patch(
            params_cls,
            "__post_init__",
            self.wrap("params.CouplerParams", params_cls.__post_init__),
        )

        dynamics = modules["dynamics"]
        linalg = dynamics.np.linalg
        traced_linalg = _Proxy(
            linalg,
            eig=self.wrap("numpy.linalg.eig", linalg.eig),
            cond=self.wrap("numpy.linalg.cond", linalg.cond),
            solve=self.wrap("numpy.linalg.solve", linalg.solve),
        )
        self._patch(dynamics, "np", _Proxy(dynamics.np, linalg=traced_linalg))
        self._patch(
            dynamics, "sla", _Proxy(dynamics.sla, expm=self.wrap("scipy.linalg.expm", dynamics.sla.expm))
        )
        self._main_stack = self._state()[0]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._main_stack = None

    def rows(self) -> list[list]:
        """Merged span table: [name, parent, calls, total_s, self_s, weight] rows."""
        merged: dict[tuple, list] = {}
        for table in self._tables:
            for key, row in list(table.items()):
                acc = merged.setdefault(key, [0, 0.0, 0.0, 0])
                for i, value in enumerate(row):
                    acc[i] += value
        return [[name, parent, *row] for (name, parent), row in sorted(merged.items(), key=str)]


class SpanTable:
    """Queries over merged span rows from one or more traced processes."""

    def __init__(self, rows: list[list] | None = None) -> None:
        self.rows: list[list] = []
        if rows:
            self.add(rows)

    def add(self, rows: list[list]) -> None:
        self.rows.extend(rows)

    def _sum(self, column: int, name=None, layer=None, parent=None, entry=False) -> float:
        total = 0
        for row in self.rows:
            row_name, row_parent = row[0], row[1]
            if name is not None and row_name != name:
                continue
            if layer is not None and (layer_of(row_name) != layer or row_name in EXTERNAL):
                continue
            if parent is not None and row_parent != parent:
                continue
            if entry and layer_of(row_parent) == layer_of(row_name):
                continue
            total += row[column]
        return total

    def calls(self, name=None, layer=None, parent=None, entry=False) -> int:
        return self._sum(2, name, layer, parent, entry)

    def total_s(self, name) -> float:
        return self._sum(3, name)

    def self_s(self, layer) -> float:
        return self._sum(4, layer=layer)

    def weight(self, name) -> int:
        return self._sum(5, name)


def layer_metrics(spans: SpanTable, passes: int, cells: int) -> tuple[dict, dict]:
    """Per-pass layer metrics from a span table covering ``passes`` passes.

    Returns (metrics, detail): ``metrics`` holds the declared per-layer
    metrics; ``detail`` adds per-call times of the hot functions and the self
    time and entry count of every layer, including layers a workload bypasses.
    """
    eig_calls = spans.calls("numpy.linalg.eig")
    eig_matrices = spans.weight("numpy.linalg.eig")
    pade_calls = spans.calls("scipy.linalg.expm")
    ridge_points = spans.weight("sweeps.find_anti_zeno_ridge")
    ridge_evals = spans.calls("dynamics.propagate_exact", parent="sweeps.find_anti_zeno_ridge")
    per_pass = {
        "params.constructions": spans.calls("params.CouplerParams"),
        "params.self_s": spans.self_s("params"),
        "dynamics.propagations": spans.calls("dynamics.propagate_exact")
        + spans.calls("dynamics.propagate_ode"),
        "dynamics.self_s": spans.self_s("dynamics"),
        "dynamics.eig_s": spans.total_s("numpy.linalg.eig"),
        "dynamics.cond_s": spans.total_s("numpy.linalg.cond"),
        "dynamics.solve_s": spans.total_s("numpy.linalg.solve"),
        "dynamics.eig_matrices": eig_matrices,
        "dynamics.pade_calls": pade_calls,
        "dynamics.occupations_calls": spans.calls("dynamics.vacuum_occupations"),
        "dynamics.occupations_s": spans.total_s("dynamics.vacuum_occupations"),
        "sweeps.cells": spans.weight("sweeps.sweep_2d"),
        "sweeps.self_s": spans.self_s("sweeps"),
        "regimes.boundary_calls": spans.calls("regimes.boundary_exact"),
        "regimes.discriminant_evals": spans.calls("regimes.cubic_discriminant"),
        "closed_forms.calls": spans.calls(layer="closed_forms", entry=True),
        "dressed.calls": spans.calls(layer="dressed", entry=True),
    }
    metrics = {name: value / passes for name, value in per_pass.items()}
    metrics["dynamics.eig_per_cell"] = eig_matrices / passes / cells
    metrics["dynamics.pade_ratio"] = pade_calls / eig_calls if eig_calls else 0.0
    metrics["sweeps.ridge_evals_per_point"] = ridge_evals / ridge_points if ridge_points else 0.0
    detail = {}
    for name in ("dynamics.propagate_exact", "dynamics.vacuum_occupations", "params.CouplerParams",
                 "numpy.linalg.eig", "numpy.linalg.cond", "numpy.linalg.solve", "scipy.linalg.expm",
                 "regimes.boundary_exact", "sweeps.sweep_2d"):
        calls = spans.calls(name)
        detail[f"{name}.us_per_call"] = 1e6 * spans.total_s(name) / calls if calls else None
    for layer in LAYERS:
        detail[f"{layer}.self_s"] = spans.self_s(layer) / passes
        detail[f"{layer}.entries"] = spans.calls(layer=layer, entry=True) / passes
    return metrics, detail


def _main(argv: list[str]) -> int:
    table_path, command = argv[0], argv[1:]
    from zenopdc import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(command)
    finally:
        tracer.uninstall()
        with open(table_path, "w") as fh:
            json.dump(tracer.rows(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
