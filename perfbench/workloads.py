"""The four benchmark workloads: seeded inputs, one pass, reference checks.

A workload object is built from a seed (its construction is part of the
measured set-up), hands the harness the operations of one pass, inspects
each pass's outputs outside the timed region, and checks the outputs of the
last pass against references that do not share the code path under test.

Every call into the package goes through a module attribute
(``sweeps.sweep_2d``, ``cli.main``, ...), so that a tracer installed on
those attributes sees it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from zenopdc import cli, closed_forms, dressed, dynamics, regimes, sweeps
from zenopdc.params import CouplerParams

import reference

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent / "tracer.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"

GAMMA = 0.5
#: n_s agreement with the ODE oracle.  The oracle's contract is a block
#: max-norm error of 1e-9 relative to max(1, |U|, |V|); n_s = sum |V|^2
#: inherits roughly 6x that relative to max(1, n_s).
ODE_TOL = 1e-8
#: Agreement of numeric cells with the closed forms (the acceptance gate's tolerance).
CLOSED_TOL = 1e-9


def child_env() -> dict:
    """Environment for child interpreters: the package from this checkout's ``src``."""
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _ode_occupations(gamma, kappa, delta, length):
    """Vacuum occupations n_a = sum_b |V_ab|^2 of the ODE oracle's map, computed here."""
    v = dynamics.propagate_ode(CouplerParams(gamma, kappa, delta, length)).v_block
    n_s, n_i, n_b = (float(x) for x in np.sum(np.abs(v) ** 2, axis=1))
    return SimpleNamespace(n_s=n_s, n_i=n_i, n_b=n_b)


def _close(value, ref, tol):
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def _check(name, failures, count):
    """One reference check: ``failures`` lists what disagreed out of ``count``."""
    detail = f"{count - len(failures)}/{count} agree"
    if failures:
        detail += f"; first mismatch {failures[0]}"
    return {"check": name, "ok": not failures and count > 0, "detail": detail}


def _grid_checks(doc, gamma, length, ode_cells, label):
    """Closed-form rows/columns and ODE cells of a kappa x delta sweep artifact."""
    a1 = np.linspace(doc["axis1"]["start"], doc["axis1"]["stop"], doc["axis1"]["count"])
    a2 = np.linspace(doc["axis2"]["start"], doc["axis2"]["stop"], doc["axis2"]["count"])
    values = doc["values"]
    matched, unprobed, ode = [], [], []
    for i, kappa in enumerate(a1):
        ref = closed_forms.coupled_matched_occupations(gamma, float(kappa), length)[0]
        if not _close(values[i][0], ref, CLOSED_TOL):
            matched.append((float(kappa), 0.0, values[i][0], ref))
    for j, delta in enumerate(a2):
        ref = closed_forms.n_s_mismatched_uncoupled(gamma, float(delta), length).n_s
        if not _close(values[0][j], ref, CLOSED_TOL):
            unprobed.append((0.0, float(delta), values[0][j], ref))
    for i, j in ode_cells:
        ref = _ode_occupations(gamma, float(a1[i]), float(a2[j]), length).n_s
        if not _close(values[i][j], ref, ODE_TOL):
            ode.append((float(a1[i]), float(a2[j]), values[i][j], ref))
    return [
        _check(f"{label}: delta=0 cells vs coupled_matched_occupations", matched, len(a1)),
        _check(f"{label}: kappa=0 cells vs n_s_mismatched_uncoupled", unprobed, len(a2)),
        _check(f"{label}: seeded cells vs propagate_ode", ode, len(ode_cells)),
    ]


def _root_mismatches(roots, gamma, kappa, delta):
    """Roots that differ from numpy.roots of λ³ + 2Δλ² + (Δ² - κ² + Γ²)λ + ΔΓ²."""
    cubic = [1.0, 2.0 * delta, delta * delta - kappa * kappa + gamma * gamma, delta * gamma * gamma]
    order = lambda z: (z.real, z.imag)  # noqa: E731
    ref = sorted(np.roots(cubic), key=order)
    return [(complex(a), complex(b)) for a, b in zip(sorted(roots, key=order), ref)
            if abs(a - b) > 1e-8 * max(1.0, abs(b))]


def _generators_per_cell(cells) -> float:
    """Cells per distinct (gamma, kappa, delta) generator in a list of cells."""
    return len(cells) / len({cell[:3] for cell in cells})


class Workload:
    """Base: subclasses set ``name`` and ``cells`` and implement the hooks."""

    name = ""
    #: (gamma, kappa, delta, length) points of the fixed input set per pass.
    cells = 0
    #: Peak RSS (KiB) of the processes that did the work, when not this one.
    peak_rss_kib: int | None = None
    #: Share of the operations' time spent timing the reference kernel.
    reference_share = 0.05

    def __init__(self) -> None:
        #: Span-table rows written by traced child processes.
        self.child_rows: list[list] = []

    def reference_s(self) -> float:
        """One timing of the reference kernel, shaped like this workload's operations."""
        return reference.kernel_s()

    def pass_ops(self, traced: bool) -> list:
        """Callables, each one timed operation of the next pass."""
        raise NotImplementedError

    def finish(self, outputs: list):
        """Work that completes a pass after its operations (timed, not an operation)."""
        return None

    def inspect(self, outputs: list, finished) -> dict:
        """Untimed: digest, failed operations, failed cells and artifact bytes of a pass."""
        raise NotImplementedError

    def check(self) -> list[dict]:
        """Reference checks on the outputs of the last inspected pass."""
        raise NotImplementedError

    def properties(self) -> dict:
        """Input properties later optimisations depend on."""
        raise NotImplementedError


class RevivalMap(Workload):
    """fig3: 101 x 101 kappa x delta at L = 1.5 through in-process ``cli.main sweep``."""

    name = "revival_map"
    length = 1.5

    def __init__(self, seed: int, tmp: Path, smoke: bool) -> None:
        super().__init__()
        count = 11 if smoke else 101
        config = {
            "engine": "numeric",
            "fixed": {"gamma": GAMMA, "kappa": 0.0, "delta": 0.0, "length": self.length},
            "axis1": {"name": "kappa", "start": 0.0, "stop": 10.0, "count": count},
            "axis2": {"name": "delta", "start": 0.0, "stop": 10.0, "count": count},
            "threads": 1,
        }
        self.config_path = tmp / "revival_map.json"
        self.config_path.write_text(json.dumps(config))
        self.out_paths = [tmp / "revival_map.a.json", tmp / "revival_map.b.json"]
        self.passes = 0
        self.cells = count * count
        self.axis = np.linspace(0.0, 10.0, count)
        rng = random.Random(seed)
        interior = [(i, j) for i in range(1, count) for j in range(1, count)]
        self.ode_cells = rng.sample(interior, 8)
        # The cells whose generator is defective (kappa = gamma at delta = 0,
        # delta = 2 gamma at kappa = 0) take the Pade fallback: always verify them.
        for kappa, delta in ((GAMMA, 0.0), (0.0, 2.0 * GAMMA)):
            hits = [(i, j) for i in range(count) for j in range(count)
                    if self.axis[i] == kappa and self.axis[j] == delta]
            self.ode_cells.extend(hits)
        self.doc = None

    def pass_ops(self, traced):
        out = self.out_paths[self.passes % 2]
        self.passes += 1
        argv = ["sweep", "--config", str(self.config_path), "--out", str(out)]
        return [lambda: (cli.main(argv), out)]

    def inspect(self, outputs, finished):
        code, out = outputs[0]
        data = out.read_bytes()
        self.doc = json.loads(data)
        failed_cells = sum(tag != "numeric" for row in self.doc["provenance"] for tag in row)
        return {
            "digest": hashlib.sha256(data).hexdigest(),
            "failed_ops": int(code != 0 or failed_cells > 0),
            "failed_cells": failed_cells,
            "artifact_bytes": len(data),
        }

    def check(self):
        return _grid_checks(self.doc, GAMMA, self.length, self.ode_cells, "fig3")

    def properties(self):
        cells = [(GAMMA, float(k), float(d), self.length) for k in self.axis for d in self.axis]
        return {"cells_per_pass": self.cells, "cells_per_generator": _generators_per_cell(cells)}


class ZenoEnvelope(Workload):
    """fig2 at threads=2, the 40-kappa peak-over-length envelope and resonant_vs_qpm."""

    name = "zeno_envelope"
    delta = 5.0
    length_max = 3.0

    def __init__(self, seed: int, tmp: Path, smoke: bool) -> None:
        super().__init__()
        n_len, n_kappa, n_env, samples, n_res = (7, 11, 4, 31, 7) if smoke else (61, 101, 40, 601, 61)
        self.spec = sweeps.SweepSpec(
            fixed=CouplerParams(GAMMA, 0.0, self.delta, 0.0),
            axis1=sweeps.SweepAxis("length", 0.0, self.length_max, n_len),
            axis2=sweeps.SweepAxis("kappa", 0.0, 10.0, n_kappa),
            engine="numeric",
        )
        self.kappas = [float(k) for k in np.linspace(0.5, 20.0, n_env)]
        self.samples = samples
        self.lengths = np.linspace(0.0, self.length_max, n_res)
        self.cells = n_len * n_kappa + n_env * samples + n_res
        rng = random.Random(seed)
        self.ode_cells = rng.sample([(i, j) for i in range(1, n_len) for j in range(n_kappa)], 6)
        self.ode_lengths = rng.sample([float(x) for x in self.lengths[1:]], 3)
        self.outputs = None

    def pass_ops(self, traced):
        ops = [lambda: sweeps.sweep_2d(self.spec, threads=2)]
        ops += [
            lambda k=k: sweeps.max_signal_over_length(GAMMA, k, 0.0, self.length_max, self.samples)
            for k in self.kappas
        ]
        ops.append(lambda: dressed.resonant_vs_qpm(GAMMA, self.delta, self.lengths))
        return ops

    def inspect(self, outputs, finished):
        self.outputs = outputs
        grid, peaks, table = outputs[0], outputs[1:-1], outputs[-1]
        failed_cells = grid.failures + int(np.isnan(grid.values).sum())
        bad_peaks = sum(not math.isfinite(p) for p in peaks)
        digest = hashlib.sha256()
        digest.update(grid.values.tobytes())
        digest.update(repr(grid.provenance.tolist()).encode())
        digest.update(repr(peaks).encode())
        digest.update(table["resonant"].tobytes())
        return {
            "digest": digest.hexdigest(),
            "failed_ops": int(failed_cells > 0) + bad_peaks,
            "failed_cells": failed_cells,
            "artifact_bytes": 0,
        }

    def check(self):
        grid, peaks, table = self.outputs[0], self.outputs[1:-1], self.outputs[-1]
        lengths = self.spec.axis1.grid()
        kappas = self.spec.axis2.grid()
        unprobed, ode = [], []
        for i, L in enumerate(lengths):
            ref = closed_forms.n_s_mismatched_uncoupled(GAMMA, self.delta, float(L)).n_s
            if not _close(grid.values[i, 0], ref, CLOSED_TOL):
                unprobed.append((float(L), grid.values[i, 0], ref))
        for i, j in self.ode_cells:
            ref = _ode_occupations(GAMMA, float(kappas[j]), self.delta, float(lengths[i])).n_s
            if not _close(grid.values[i, j], ref, ODE_TOL):
                ode.append((float(lengths[i]), float(kappas[j]), grid.values[i, j], ref))

        env_grid = np.linspace(0.0, self.length_max, self.samples)
        closed, above = [], []
        for kappa, peak in zip(self.kappas, peaks):
            ref = max(closed_forms.coupled_matched_occupations(GAMMA, kappa, float(L))[0]
                      for L in env_grid)
            if not _close(peak, ref, CLOSED_TOL):
                closed.append((kappa, peak, ref))
            if kappa >= 5.0 * GAMMA and peak > 1.1 * (2.0 * GAMMA / kappa) ** 2:
                above.append((kappa, peak))
        strong = sum(k >= 5.0 * GAMMA for k in self.kappas)
        rising = [(a, b) for a, b in zip(peaks, peaks[1:]) if b > a]

        positive = table["lengths"] > 0.0
        not_above = [
            (float(L), float(r), float(q))
            for L, r, q in zip(table["lengths"][positive], table["resonant"][positive],
                               table["qpm_model"][positive])
            if not r > q
        ]
        res_ode = []
        for L in self.ode_lengths:
            got = float(table["resonant"][list(table["lengths"]).index(L)])
            ref = _ode_occupations(GAMMA, abs(self.delta), self.delta, L).n_s
            if not _close(got, ref, ODE_TOL):
                res_ode.append((L, got, ref))
        return [
            _check("fig2: kappa=0 cells vs n_s_mismatched_uncoupled", unprobed, len(lengths)),
            _check("fig2: seeded cells vs propagate_ode", ode, len(self.ode_cells)),
            _check("envelope: peaks vs max of coupled_matched_occupations", closed, len(peaks)),
            _check("envelope: peak <= 1.1 (2 gamma/kappa)^2 for kappa >= 5 gamma", above, strong),
            _check("envelope: non-increasing in kappa", rising, len(peaks) - 1),
            _check("resonant_vs_qpm: resonant > qpm_model for L > 0", not_above,
                   int(positive.sum())),
            _check("resonant_vs_qpm: seeded lengths vs propagate_ode", res_ode,
                   len(self.ode_lengths)),
        ]

    def properties(self):
        fig2 = [(GAMMA, float(k), self.delta, float(L))
                for L in self.spec.axis1.grid() for k in self.spec.axis2.grid()]
        env = [(GAMMA, k, 0.0, float(L))
               for k in self.kappas for L in np.linspace(0.0, self.length_max, self.samples)]
        res = [(GAMMA, abs(self.delta), self.delta, float(L)) for L in self.lengths]
        return {
            "cells_per_pass": self.cells,
            "cells_per_generator": {
                "fig2": _generators_per_cell(fig2),
                "envelope": _generators_per_cell(env),
                "resonant_vs_qpm": _generators_per_cell(res),
                "all": _generators_per_cell(fig2 + env + res),
            },
        }


class RidgeRegimes(Workload):
    """Ridge search, exact regime boundaries and classification at seeded deltas."""

    name = "ridge_regimes"
    length = 1.5

    def __init__(self, seed: int, tmp: Path, smoke: bool) -> None:
        super().__init__()
        rng = random.Random(seed)
        self.deltas = sorted(rng.uniform(3.0, 10.0) for _ in range(3 if smoke else 8))
        self.cells = len(self.deltas)
        self.outputs = None

    def _point(self, delta):
        point = sweeps.find_anti_zeno_ridge(GAMMA, self.length, [delta])[0]
        window = regimes.boundary_exact(GAMMA, delta)
        report = regimes.classify_regime(CouplerParams(GAMMA, point.kappa_opt, delta, self.length))
        return point, window, report

    def pass_ops(self, traced):
        return [lambda d=d: self._point(d) for d in self.deltas]

    def finish(self, outputs):
        return sweeps.ridge_linearity([out[0] for out in outputs])

    def inspect(self, outputs, finished):
        self.outputs, self.fit = outputs, finished
        return {
            "digest": hashlib.sha256(repr((outputs, finished)).encode()).hexdigest(),
            "failed_ops": 0,
            "failed_cells": 0,
            "artifact_bytes": 0,
        }

    def check(self):
        points, fit = self.outputs, self.fit
        outside, regime, roots, ode, not_max = [], [], [], [], []
        for point, (k1, k2), report in points:
            delta, k_opt, n_max = point.delta, point.kappa_opt, point.n_s_max
            if not k2 < k_opt < k1:
                outside.append((delta, k_opt, (k2, k1)))
            if report.regime != regimes.REGIME_HYPERBOLIC:
                regime.append((delta, k_opt, report.regime))
            roots += _root_mismatches(report.roots, GAMMA, k_opt, delta)
            ref_n = _ode_occupations(GAMMA, k_opt, delta, self.length).n_s
            if not _close(n_max, ref_n, ODE_TOL):
                ode.append((delta, n_max, ref_n))
            for step in (-1e-3, 1e-3):
                side = _ode_occupations(GAMMA, k_opt + step, delta, self.length).n_s
                if side > n_max + ODE_TOL * max(1.0, n_max):
                    not_max.append((delta, k_opt + step, side, n_max))
        count = len(points)
        return [
            _check("kappa_opt inside the boundary_exact window", outside, count),
            _check("classify_regime at kappa_opt is hyperbolic", regime, count),
            _check("classify_regime roots vs numpy.roots", roots, count),
            _check("n_s_max vs propagate_ode at kappa_opt", ode, count),
            _check("n_s_max is a maximum (propagate_ode at kappa_opt +- 1e-3)", not_max, count),
            _check("ridge_linearity is finite", [] if all(map(math.isfinite, fit)) else [fit], 1),
        ]

    def properties(self):
        # Every kappa the ridge scan probes is a new generator.
        scan = [(GAMMA, float(k), d, self.length)
                for d in self.deltas for k in np.linspace(0.0, 2.0 * d, 257)]
        return {"cells_per_pass": self.cells, "scan_cells_per_generator": _generators_per_cell(scan)}


class CliOneshot(Workload):
    """A seeded sequence of ``python -m zenopdc`` invocations, one process each."""

    name = "cli_oneshot"
    # Its yardstick is a whole interpreter run (~0.2 s, 20x the in-process
    # kernel), so a larger share is needed for the ~10 samples that let the
    # trimmed mean drop a slow interpreter start.
    reference_share = 0.15

    def __init__(self, seed: int, tmp: Path, smoke: bool) -> None:
        super().__init__()
        rng = random.Random(seed)
        self.tmp = tmp
        self.sim = {"gamma": rng.uniform(0.2, 1.0), "kappa": rng.uniform(0.5, 6.0),
                    "delta": rng.uniform(0.5, 6.0), "length": rng.uniform(0.5, 2.0)}
        self.closed = {"gamma": rng.uniform(0.2, 1.0), "kappa": rng.uniform(0.1, 6.0),
                       "delta": 0.0, "length": rng.uniform(0.5, 2.0)}
        self.classify = {"gamma": rng.uniform(0.2, 1.0), "kappa": rng.uniform(0.5, 10.0),
                         "delta": rng.uniform(0.5, 10.0), "length": 1.0}
        self.dressed_seed = rng.randrange(1_000_000)
        self.ridge = {"gamma": GAMMA, "length": 1.5,
                      "deltas": sorted(rng.uniform(3.0, 10.0) for _ in range(3))}
        count = 9
        self.sweep = {
            "engine": "numeric",
            "fixed": {"gamma": rng.uniform(0.2, 1.0), "kappa": 0.0, "delta": 0.0,
                      "length": rng.uniform(0.5, 2.0)},
            "axis1": {"name": "kappa", "start": 0.0, "stop": rng.uniform(2.0, 8.0), "count": count},
            "axis2": {"name": "delta", "start": 0.0, "stop": rng.uniform(2.0, 8.0), "count": count},
        }
        self.sweep_cells = [(rng.randrange(1, count), rng.randrange(1, count)) for _ in range(4)]
        ridge_path, sweep_path = tmp / "ridge.json", tmp / "sweep.json"
        ridge_path.write_text(json.dumps(self.ridge))
        sweep_path.write_text(json.dumps(self.sweep))
        self.sweep_out = tmp / "sweep.out.json"

        def flags(p):
            return [arg for name in ("gamma", "kappa", "delta", "length")
                    for arg in (f"--{name}", repr(p[name]))]

        self.commands = [
            ("simulate-exact", ["simulate", "--engine", "exact", *flags(self.sim)]),
            ("simulate-ode", ["simulate", "--engine", "ode", *flags(self.sim)]),
            ("simulate-closed-form", ["simulate", "--engine", "closed-form", *flags(self.closed)]),
            ("classify", ["classify", *flags(self.classify)]),
            ("dressed-check", ["dressed-check", "--seed", str(self.dressed_seed)]),
            ("ridge", ["ridge", "--config", str(ridge_path)]),
            ("sweep", ["sweep", "--config", str(sweep_path), "--out", str(self.sweep_out)]),
        ]
        self.cells = 3 + 1 + 1 + len(self.ridge["deltas"]) + count * count
        self.peak_rss_kib = 0
        self.docs = {}

    def reference_s(self):
        """Wall time of the kernel in a fresh interpreter, as each invocation is one."""
        start = time.perf_counter()
        subprocess.run([sys.executable, str(REFERENCE)], check=True, cwd=ROOT)
        return time.perf_counter() - start

    def _invoke(self, name, argv, traced):
        stdout, stderr = self.tmp / f"{name}.stdout", self.tmp / f"{name}.stderr"
        table = self.tmp / f"{name}.spans.json"
        if traced:
            cmd = [sys.executable, str(TRACER), str(table), *argv]
        else:
            cmd = [sys.executable, "-m", "zenopdc", *argv]
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return name, proc.returncode, usage.ru_maxrss, stdout, stderr, table if traced else None

    def pass_ops(self, traced):
        return [lambda n=name, a=argv: self._invoke(n, a, traced) for name, argv in self.commands]

    def inspect(self, outputs, finished):
        digest = hashlib.sha256()
        failed_ops = failed_cells = artifact_bytes = 0
        for name, code, rss_kib, stdout, stderr, table in outputs:
            self.peak_rss_kib = max(self.peak_rss_kib, rss_kib)
            data = stdout.read_bytes()
            if name == "sweep":
                data = self.sweep_out.read_bytes()
            digest.update(data)
            artifact_bytes += len(data)
            if code != 0:
                failed_ops += 1
                sys.stderr.write(f"{name} exited {code}: {stderr.read_text()}")
                continue
            self.docs[name] = json.loads(data)
            if name == "sweep":
                failed_cells += self.docs[name]["failures"]
                failed_ops += int(self.docs[name]["failures"] > 0)
            if table is not None:
                self.child_rows.extend(json.loads(table.read_text()))
        return {"digest": digest.hexdigest(), "failed_ops": failed_ops,
                "failed_cells": failed_cells, "artifact_bytes": artifact_bytes}

    def check(self):
        docs = self.docs
        checks = []
        routes = []
        exact, ode = docs["simulate-exact"], docs["simulate-ode"]
        for key in ("n_s", "n_i", "n_b"):
            if not _close(exact[key], ode[key], ODE_TOL):
                routes.append((key, exact[key], ode[key]))
        checks.append(_check("simulate: exact vs ode engine", routes, 3))

        p = self.closed
        ref = _ode_occupations(p["gamma"], p["kappa"], 0.0, p["length"])
        got = docs["simulate-closed-form"]
        closed = [(key, got[key], getattr(ref, key)) for key in ("n_s", "n_i", "n_b")
                  if not _close(got[key], getattr(ref, key), ODE_TOL)]
        checks.append(_check("simulate: closed-form vs propagate_ode", closed, 3))

        p = self.classify
        got = [complex(re, im) for re, im in docs["classify"]["roots"]]
        bad = _root_mismatches(got, p["gamma"], p["kappa"], p["delta"])
        checks.append(_check("classify: roots vs numpy.roots", bad, 3))

        doc = docs["dressed-check"]
        bad = [] if doc["passed"] and doc["residual"] <= doc["tolerance"] else [doc["residual"]]
        checks.append(_check("dressed-check passes", bad, 1))

        outside = []
        for point in docs["ridge"]["points"]:
            k1, k2 = regimes.boundary_exact(self.ridge["gamma"], point["delta"])
            if not k2 < point["kappa_opt"] < k1:
                outside.append((point["delta"], point["kappa_opt"], (k2, k1)))
        checks.append(_check("ridge: kappa_opt inside the boundary_exact window", outside,
                             len(self.ridge["deltas"])))

        fixed = self.sweep["fixed"]
        checks += _grid_checks(docs["sweep"], fixed["gamma"], fixed["length"],
                               self.sweep_cells, "sweep")
        return checks

    def properties(self):
        return {"cells_per_pass": self.cells, "invocations_per_pass": len(self.commands)}


WORKLOADS = {cls.name: cls for cls in (RevivalMap, ZenoEnvelope, RidgeRegimes, CliOneshot)}
