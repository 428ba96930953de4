"""Smoke runs of the scripts under ``scripts/``, each into a temporary directory."""

import csv
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zenopdc import closed_form_batch

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script: str, *args: str, env=None) -> str:
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _columns(path: Path) -> dict[str, np.ndarray]:
    with path.open() as stream:
        rows = list(csv.DictReader(stream))
    return {key: np.array([float(row[key]) for row in rows]) for key in rows[0]}


def test_reproduce_figures_writes_the_four_data_sets(tmp_path):
    _run("reproduce_figures.py", "--outdir", str(tmp_path))
    for name in ("suppression_map.json", "revival_map.json"):
        doc = json.loads((tmp_path / name).read_text())
        assert doc["failures"] == 0 and len(doc["values"]) == doc["axis1"]["count"]

    # Every peak against the Δ = 0 law on the whole 40 × 601 grid, in one batched call.
    env = _columns(tmp_path / "zeno_envelope.csv")
    kappas = np.linspace(0.5, 20.0, 40)
    assert np.array_equal(env["kappa"], kappas)
    n_s, *_, ok = closed_form_batch(0.5, kappas[:, None], 0.0, np.linspace(0.0, 3.0, 601))
    assert ok.all()
    np.testing.assert_allclose(env["peak_n_s"], n_s.max(axis=1), rtol=1e-9, atol=0)
    np.testing.assert_allclose(env["envelope"], (1.0 / kappas) ** 2, rtol=1e-15)

    table = _columns(tmp_path / "resonant_vs_qpm.csv")
    positive = table["length"] > 0.0
    assert positive.sum() == 60
    assert (table["resonant"][positive] > table["qpm_model"][positive]).all()


def test_ridge_scan_writes_the_ridge_and_its_fit(tmp_path):
    out = tmp_path / "ridge.csv"
    stdout = _run("ridge_scan.py", "--out", str(out))
    ridge = _columns(out)
    assert np.array_equal(ridge["delta"], np.linspace(3.0, 10.0, 8))
    assert (np.abs(ridge["kappa_opt"] - ridge["delta"]) < 2**0.5 * 0.5).all()  # within √2·Γ of Δ
    assert (ridge["enhancement"] > 1.0).all()
    slope = float(stdout.split("kappa_opt = ")[1].split()[0])
    assert 0.9 <= slope <= 1.1


def test_artifact_digests_are_the_same_on_every_run():
    first = _run("artifact_digests.py")
    assert first == _run("artifact_digests.py")
    lines = [line.split("  ") for line in first.splitlines()]
    assert [name for _, _, name in lines] == [
        f"{artifact} {fmt}" for artifact in ("sweep fig2", "sweep fig3", "sweep mixed", "ridge 3:10:8")
        for fmt in ("json", "csv")] + ["simulate 0.5 8 6 3 json", "dressed-check 3 json"] + [
        "propagate_lengths 0.5 5 0 3 601", "max_signal_over_length 40 peaks",
        "resonant_vs_qpm 0.5 5 61", "propagate_batch seeded 16x32"]
    assert all(len(digest) == 64 for digest, _, _ in lines)
    # the mixed sweep's cells fail; the last four lines are library calls
    assert {code for _, code, _ in lines} == {"exit 0", "exit 4", "library"}


def test_call_costs_prints_one_line_per_call():
    lines = [line.rsplit("  ", 1) for line in
             _run("call_costs.py", "--repeats", "1", "--number", "1").splitlines()]
    assert [name for name, _ in lines] == [
        f"{call} {n} cells" for n in (1, 33, 132, 257, 512) for call in ("propagate_batch", "expm_i")
    ] + ["propagate_lengths 0.5 5 0 3 601", "max_signal_over_length 601", "resonant_vs_qpm 61",
         "vacuum_occupations(propagate_exact) 1 cell", "ridge point bookkeeping"]
    [float(us) for _, us in lines]  # each figure is a number; its size is not checked


def test_bench_pairs_smoke_run_summarizes_one_pair(tmp_path):
    head = shutil.which("git") and subprocess.run(["git", "rev-parse", "HEAD"], cwd=SCRIPTS,
                                                  capture_output=True).returncode == 0
    if not head:
        pytest.skip("needs git and a repository with a commit")
    out = tmp_path / "pairs.json"
    stdout = _run("bench_pairs.py", "--smoke", "--workloads", "zeno_envelope", "--out", str(out),
                  env=dict(os.environ, TMPDIR=str(tmp_path)))
    doc = json.loads(out.read_text())
    assert doc["runs_correct"] == doc["runs_total"] == 2
    assert {"nproc", "numpy", "blas"} <= set(doc["machine"])  # perfbench's own record
    summary = doc["summary"]["zeno_envelope"]
    assert set(summary) == {"setup_s", "pass_ref", "peak_rss_mib"}
    assert all(metric["pairs"] == 1 for metric in summary.values())
    for metric in summary.values():  # one pair: each side's quartiles and range are its run
        for side in (metric["parent"], metric["change"]):
            assert side["min"] == side["q1"] == side["median"] == side["q3"] == side["max"]
            assert side["runs"] == [side["median"]]
    assert "zeno_envelope  pass_ref" in stdout and "(q1-q3 " in stdout
    pair = doc["runs"]["zeno_envelope"][0]
    faults = {side: pair[side]["minflt"] for side in ("parent", "change")}
    assert all(isinstance(count, int) and count > 0 for count in faults.values())
    assert doc["minflt_median"] == {"zeno_envelope": faults}  # one pair: its own counts
    assert f"minflt parent {faults['parent']} change {faults['change']}" in stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.json"]  # trees removed


def test_bench_pairs_tells_a_crossing_inside_the_parent_range():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    parent = bench_pairs.spread([0.10, 0.12, 0.16, 0.11])
    assert (parent["min"], parent["max"]) == (0.10, 0.16)
    assert parent["q1"] <= parent["median"] <= parent["q3"]
    metric = {"name": "setup_s", "better": "lower", "bound": 0.25}

    def note(change_runs):
        runs = [{"parent": {"metrics": {"setup_s": p}}, "change": {"metrics": {"setup_s": c}}}
                for p, c in zip(parent["runs"], change_runs)]
        return bench_pairs.bound_note(bench_pairs.summarize(runs, metric))

    assert note([0.10, 0.12, 0.11, 0.11]) == ""
    assert note([0.15, 0.15, 0.15, 0.15]) == "  BEYOND BOUND (inside parent range)"
    assert note([0.20, 0.20, 0.20, 0.20]) == "  BEYOND BOUND"
