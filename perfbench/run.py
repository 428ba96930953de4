#!/usr/bin/env python3
"""zenopdc benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the repository root (it imports the package from ``src/``):

    python3 perfbench/run.py --workload revival_map --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs half of the time untraced and half traced, and reports per-layer
metrics plus the tracing overhead.  ``--smoke`` runs two passes on tiny
inputs.  The second-to-last line of standard output is a JSON record of the
machine, revision, seed, inputs, sample counts and reference checks; the
last line is the result:

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

Exit code 0 when the run completed (even if a check failed: see
``correct``); 2 when ``src/zenopdc`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters whose set-up time is measured per untraced run
#: (this process plus probes); ``setup_s`` is their median.
SETUP_RUNS = 5

END_TO_END = {
    "setup_s": "s",
    "pass_ref": "ref",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.scipy_import_s": "s",
    "cli.artifact_bytes": "B",
    "params.constructions": "count",
    "params.self_s": "s",
    "dynamics.propagations": "count",
    "dynamics.self_s": "s",
    "dynamics.eig_s": "s",
    "dynamics.cond_s": "s",
    "dynamics.solve_s": "s",
    "dynamics.eig_matrices": "count",
    "dynamics.eig_per_cell": "1/cell",
    "dynamics.pade_calls": "count",
    "dynamics.pade_ratio": "ratio",
    "dynamics.occupations_calls": "count",
    "dynamics.occupations_s": "s",
    "sweeps.cells": "count",
    "sweeps.self_s": "s",
    "sweeps.failed_cells": "count",
    "sweeps.ridge_evals_per_point": "evals/point",
    "regimes.boundary_calls": "count",
    "regimes.discriminant_evals": "count",
    "closed_forms.calls": "count",
    "dressed.calls": "count",
    "trace.overhead_s": "s",
}


def tail(samples: list[float]) -> tuple[float, float, bool]:
    """(value, percentile, resolved) of the highest percentile with >= 10 samples above.

    With fewer than about 20 samples that percentile falls below the median;
    the median is reported instead and ``resolved`` is False.
    """
    ordered = sorted(samples)
    median = statistics.median(ordered)
    k = len(ordered) - 11
    if k < 0 or ordered[k] <= median:
        return median, 50.0, False
    return ordered[k], 100.0 * (k + 1) / len(ordered), True


def trimmed_mean(samples: list[float], share: float = 0.1) -> float:
    """Mean without the fastest and slowest ``share`` of the samples.

    Applied to the reference-kernel times: a kernel sample that meets a
    garbage-collection pause is an outlier the operations did not share,
    while the host's speed phases must still be averaged the way the mean
    pass time averages them.
    """
    ordered = sorted(samples)
    cut = int(len(ordered) * share)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def setup(workload: str, seed: int, tmp: Path, smoke: bool):
    """Import the package and build the workload's inputs; return (seconds, workload)."""
    tmp.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    import zenopdc  # noqa: F401  (timed: this is the set-up being measured)

    import workloads

    wl = workloads.WORKLOADS[workload](seed, tmp, smoke)
    return time.perf_counter() - start, wl


def setup_probe(args, tmp: Path) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def import_times() -> tuple[float, float]:
    """(import zenopdc cumulative, sum of scipy modules' own) seconds from -X importtime."""
    import workloads

    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import zenopdc"],
                          capture_output=True, text=True, env=workloads.child_env(), cwd=ROOT,
                          timeout=120)
    package = scipy = 0.0
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        own, cumulative, name = int(parts[0]), int(parts[1]), parts[2].strip()
        if name == "zenopdc":
            package = cumulative / 1e6
        if name == "scipy" or name.startswith("scipy."):
            scipy += own / 1e6
    return package, scipy


def run_passes(wl, budget: float, min_passes: int, traced: bool) -> tuple[list[dict], list[float]]:
    """Closed loop, one client: passes until the next would overrun ``budget`` seconds.

    Returns the pass records and the reference-kernel times.  Before each
    operation, outside its timing, the kernel runs until its total time has
    caught up with the workload's ``reference_share`` of the operation time
    so far, so that its samples cover the run as evenly as the operations
    allow.
    """
    clock = time.perf_counter
    records: list[dict] = []
    references: list[float] = []
    owed = 0.0
    start = clock()
    while True:
        ops = wl.pass_ops(traced)
        outputs, op_times, raised = [], [], 0
        for op in ops:
            while owed > 0.0:
                references.append(wl.reference_s())
                owed -= references[-1]
            o0 = clock()
            try:
                outputs.append(op())
            except Exception:  # a failed operation is counted, the run goes on
                traceback.print_exc()
                raised += 1
            op_times.append(clock() - o0)
            owed += wl.reference_share * op_times[-1]
        f0 = clock()
        finished = None
        if not raised:
            try:
                finished = wl.finish(outputs)
            except Exception:
                traceback.print_exc()
                raised += 1
        pass_s = sum(op_times) + clock() - f0
        record = {"pass_s": pass_s, "op_times": op_times, "ops": len(ops), "digest": None,
                  "failed_ops": raised, "failed_cells": 0, "artifact_bytes": 0}
        if not raised:
            try:
                record.update(wl.inspect(outputs, finished))
            except Exception:  # missing or unreadable outputs fail the pass's operation
                traceback.print_exc()
                record["failed_ops"] = 1
        records.append(record)
        median = statistics.median(r["pass_s"] for r in records)
        if len(records) >= min_passes and clock() - start + median > budget:
            references.append(wl.reference_s())
            return records, references


def revision() -> dict:
    """Content hash of the package and benchmark sources, plus the git commit if any."""
    digest = hashlib.sha256()
    files = [*SRC.rglob("*.py"), *SRC.rglob("*.json"), *HERE.glob("*.py"), ROOT / "BENCHMARK.json"]
    for path in sorted(p for p in files if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git": commit, "tree_sha256": digest.hexdigest()}


def machine() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def run(args, tmp: Path) -> dict:
    setup_s, wl = setup(args.workload, args.seed, tmp / "inputs", args.smoke)
    import zenopdc

    if not Path(zenopdc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: zenopdc imported from {zenopdc.__file__}, not {SRC}")
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "revision": revision(),
              "machine": machine(), "inputs": wl.properties()}
    budget = 0.0 if args.smoke else float(args.seconds)

    if args.trace:
        from tracer import SpanTable, Tracer, layer_metrics

        import_s, scipy_s = import_times()
        untraced, _ = run_passes(wl, budget / 2, 1, traced=False)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = run_passes(wl, budget / 2, 1, traced=True)
        finally:
            tracer.uninstall()
        records = untraced + traced
        spans = SpanTable(tracer.rows())
        spans.add(wl.child_rows)
        layers, detail["layers"] = layer_metrics(spans, len(traced), wl.cells)
        untraced_s = statistics.fmean(r["pass_s"] for r in untraced)
        traced_s = statistics.fmean(r["pass_s"] for r in traced)
        layers.update({
            "setup.import_s": import_s,
            "setup.scipy_import_s": scipy_s,
            "cli.artifact_bytes": statistics.fmean(r["artifact_bytes"] for r in traced),
            "sweeps.failed_cells": statistics.fmean(r["failed_cells"] for r in traced),
            "trace.overhead_s": traced_s - untraced_s,
        })
        detail["trace_overhead"] = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
                                    "untraced_passes": len(untraced), "traced_passes": len(traced)}
        detail["inputs"]["pade_cells_per_pass"] = layers["dynamics.pade_calls"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        records, references = run_passes(wl, budget, 2, traced=False)
        probes = 0 if args.smoke else SETUP_RUNS - 1
        setups = [setup_s] + [setup_probe(args, tmp) for _ in range(probes)]
        peak_kib = wl.peak_rss_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        pass_times = [r["pass_s"] for r in records]
        op_times = [t for r in records for t in r["op_times"]]
        pass_tail, invoke_tail = tail(pass_times), tail(op_times)
        values = {
            "setup_s": statistics.median(setups),
            "pass_ref": statistics.fmean(pass_times) / trimmed_mean(references),
            "peak_rss_mib": peak_kib / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        detail["samples"] = {
            "setup_s": setups,
            "pass_s": pass_times,
            "pass_mean_s": statistics.fmean(pass_times),
            "pass_best_s": min(pass_times),
            "reference_s": references,
            "pass_p50_s": statistics.median(pass_times),
            "pass_tail_s": {"value": pass_tail[0], "percentile": pass_tail[1],
                            "resolved": pass_tail[2], "samples": len(pass_times)},
            "invoke_p50_s": statistics.median(op_times),
            "invoke_tail_s": {"value": invoke_tail[0], "percentile": invoke_tail[1],
                              "resolved": invoke_tail[2], "samples": len(op_times)},
        }

    try:
        checks = wl.check()
    except Exception:  # outputs missing or malformed: the checks themselves failed
        traceback.print_exc()
        checks = [{"check": "reference checks ran", "ok": False, "detail": "raised"}]
    digests = {r["digest"] for r in records}
    checks.append({"check": "passes give byte-identical outputs",
                   "ok": len(records) >= 2 and None not in digests and len(digests) == 1,
                   "detail": f"{len(digests)} distinct digest(s) over {len(records)} passes"})
    failed_ops = sum(r["failed_ops"] for r in records)
    attempted = sum(r["ops"] for r in records) + len(checks)
    failed = failed_ops + sum(not c["ok"] for c in checks)
    detail["checks"] = checks
    detail["failed_ratio"] = failed / attempted
    print(json.dumps(detail, sort_keys=True, default=str))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(
        "revival_map", "zeno_envelope", "ridge_regimes", "cli_oneshot"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="two passes on tiny inputs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "zenopdc" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.setup_probe:
            seconds, _ = setup(args.workload, args.seed, tmp / "inputs", smoke=False)
            print(json.dumps({"setup_s": seconds}))
            return 0
        result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
