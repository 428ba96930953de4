#!/usr/bin/env python3
"""Paired benchmark runs of a base revision against the working tree.

Builds two trees in a temporary directory: ``parent``, the ``git archive``
of the base revision, and ``change``, a second archive of it with the working
tree's ``src/`` and ``scripts/`` copied over, so both sides run the same
``perfbench/``.  For each seed 1..N and each workload it runs

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

once in each tree, S being BENCHMARK.json's ``run_seconds``, with
PYTHONDONTWRITEBYTECODE=1 (so each run compiles the package, as the
benchmark's fresh checkouts do); odd seeds run the parent first, even seeds
the change.  It prints, per workload and end-to-end metric of
BENCHMARK.json, both medians, the pairs the change won and whether its
median is within the metric's bound, and beside ``pass_ref`` each side's
median minor page faults per run (``os.wait4``); ``--out`` writes the runs
and that summary as JSON, with the ``machine`` block of the first run's
detail line.
The trees live in a temporary directory under ``TMPDIR``.
Run from anywhere inside the repository:

    python3 scripts/bench_pairs.py --base HEAD --pairs 10 --out BENCH.json
    python3 scripts/bench_pairs.py --smoke --workloads zeno_envelope

``--smoke`` runs one pair of two-pass runs on tiny inputs.  Exit code 0 when
every run finished and reported ``correct``, 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def archive(base: str, dest: Path) -> None:
    """Extract the committed files of revision ``base`` into ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", base], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as stream:
        stream.extractall(dest, filter="data")


def build_trees(base: str, workdir: Path) -> dict[str, Path]:
    trees = {side: workdir / side for side in SIDES}
    for tree in trees.values():
        archive(base, tree)
    for sub in ("src", "scripts"):
        shutil.rmtree(trees["change"] / sub, ignore_errors=True)
        shutil.copytree(ROOT / sub, trees["change"] / sub,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    return trees


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             smoke: bool) -> tuple[dict, dict | None]:
    """The result line of one benchmark run and the ``machine`` block of its detail line.

    The record also holds ``minflt``, the minor page faults of the run's process and the
    processes it waited for (``os.wait4``).  A run that did not finish gives a failed
    record and no machine block.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", *(["--smoke"] if smoke else [])]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=out, stderr=err)
        timer = threading.Timer(60 + 20 * seconds, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    try:
        detail, result = map(json.loads, stdout.splitlines()[-2:])
        return ({"correct": result["correct"], "failed": result["failed"],
                 "minflt": usage.ru_minflt,
                 "metrics": {name: m["value"] for name, m in result["metrics"].items()}},
                detail["machine"])
    except (KeyError, TypeError, ValueError):
        return ({"correct": False, "failed": None, "minflt": usage.ru_minflt, "metrics": {},
                 "error": (stderr.strip().splitlines() or ["no output"])[-1]}, None)


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "runs": values}


def summarize(runs: list[dict], metric: dict) -> dict:
    """Medians, quartiles, wins and the bound check of one metric over the pairs."""
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [(r["parent"]["metrics"][name], r["change"]["metrics"][name]) for r in runs
             if name in r["parent"]["metrics"] and name in r["change"]["metrics"]]
    if not pairs:
        return {"pairs": 0}
    parent, change = (spread([pair[i] for pair in pairs]) for i in (0, 1))
    sign = 1.0 if lower else -1.0
    gain = sign * (parent["median"] - change["median"])
    return {
        "better": metric["better"], "bound": metric["bound"], "pairs": len(pairs),
        "parent": parent, "change": change,
        "change_wins": sum(sign * (p - c) > 0 for p, c in pairs),
        "median_ratio_change_over_parent": change["median"] / parent["median"],
        "within_bound": -gain <= metric["bound"] * parent["median"],
        "gain_beyond_parent_iqr": gain > parent["q3"] - parent["q1"],
    }


def bound_note(s: dict) -> str:
    """Empty within the bound; beyond it, whether the change median lies in the parent's range.

    A change median inside the parent's own min-max is a crossing that the parent's
    run-to-run noise alone could produce.
    """
    if s["within_bound"]:
        return ""
    inside = s["parent"]["min"] <= s["change"]["median"] <= s["parent"]["max"]
    return "  BEYOND BOUND (inside parent range)" if inside else "  BEYOND BOUND"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--pairs", type=int, default=10, help="seeds 1..PAIRS, one pair each")
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--smoke", action="store_true", help="one pair of two-pass runs")
    parser.add_argument("--out", type=Path, help="write runs and summary as JSON here")
    args = parser.parse_args(argv)
    pairs = 1 if args.smoke else args.pairs

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = build_trees(args.base, Path(tmp))
        spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]
        if args.workloads:
            workloads = [w for w in workloads if w in args.workloads.split(",")]
        runs = {w: [] for w in workloads}
        machine = None  # perfbench's own record, from the first run that printed one
        for seed in range(1, pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            for workload in workloads:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side], seen = run_once(trees[side], workload, seed,
                                                spec["run_seconds"], args.smoke)
                    machine = machine or seen
                runs[workload].append(pair)
                print(f"seed {seed} {workload}: " + ", ".join(
                    f"{side} {pair[side]['metrics'].get('pass_ref', float('nan')):.4g}"
                    for side in SIDES), flush=True)

    summary = {w: {m["name"]: summarize(runs[w], m) for m in spec["end_to_end"]}
               for w in workloads}
    # Page faults count what the allocator did, and repeat where a time is noisy.
    faults = {w: {side: statistics.median(pair[side]["minflt"] for pair in runs[w])
                  for side in SIDES} for w in workloads}
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            if s["pairs"]:
                parent = s["parent"]
                note = (f"  minflt parent {faults[workload]['parent']:.0f} "
                        f"change {faults[workload]['change']:.0f}" if name == "pass_ref" else "")
                print(f"{workload:14s} {name:13s} parent {parent['median']:.4g} "
                      f"(q1-q3 {parent['q1']:.4g}-{parent['q3']:.4g}) "
                      f"change {s['change']['median']:.4g} "
                      f"({s['median_ratio_change_over_parent'] - 1:+.1%}) "
                      f"wins {s['change_wins']}/{s['pairs']}{bound_note(s)}{note}")
    all_runs = [pair[side] for pairs_ in runs.values() for pair in pairs_ for side in SIDES]
    correct = all(r["correct"] for r in all_runs)
    if args.out:
        doc = {"base": args.base, "pairs": pairs, "seconds": spec["run_seconds"],
               "smoke": args.smoke, "machine": machine,
               "runs_correct": sum(r["correct"] for r in all_runs),
               "runs_total": len(all_runs), "summary": summary, "minflt_median": faults,
               "runs": runs}
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
