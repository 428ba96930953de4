"""Smoke runs of the scripts under ``scripts/``, each into a temporary directory."""

import csv
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
    summary = doc["summary"]["zeno_envelope"]
    assert set(summary) == {"setup_s", "pass_ref", "peak_rss_mib"}
    assert all(metric["pairs"] == 1 for metric in summary.values())
    assert "zeno_envelope  pass_ref" in stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.json"]  # trees removed
