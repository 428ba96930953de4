#!/usr/bin/env python3
"""Print the sha256 of fixed CLI artifacts and library results made by this tree's package.

Each line is ``<sha256>  exit <code>  <artifact>`` for a CLI artifact and
``<sha256>  library  <call>`` for the bytes of a library call's arrays.  The set:

  sweep --config fig2 | fig3                   JSON and CSV
  a closed_form_when_applicable sweep          JSON and CSV; its grid holds
    with overflowing cells                     all three provenance tags
  ridge --delta 3:10:8                         JSON and CSV
  simulate --gamma 0.5 --kappa 8 --delta 6     JSON; a one-cell exponential
    --length 3                                 that takes 3 squarings
  dressed-check --seed 3                       JSON
  propagate_lengths(0.5, 5, 0, 3, 601)         w, n and ok
  max_signal_over_length(0.5, κ, 0, 3, 601)    the 40 envelope peaks, κ in
                                               linspace(0.5, 20, 40)
  resonant_vs_qpm(0.5, 5, linspace(0, 3, 61))  its four columns
  propagate_batch of a seeded 16 × 32 stack    w, n and ok; the stack holds
                                               invalid, overflowing and
                                               NaN-rate cells

No CLI artifact covers these library paths.  The package is imported from
the ``src/`` next to this script, so running the script of each of two
checkouts and diffing the outputs tells whether a change keeps every
artifact's bytes:

    python3 scripts/artifact_digests.py > digests.txt
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zenopdc import cli, dressed, dynamics, sweeps  # noqa: E402

#: Closed form in the kappa = 0 row, numeric elsewhere, and cells whose gain*length overflows.
MIXED_SWEEP = {
    "fixed": {"delta": 0.5, "length": 2.5},
    "engine": "closed_form_when_applicable",
    "axis1": {"name": "kappa", "start": 0.0, "stop": 3.0, "count": 4},
    "axis2": {"name": "gamma", "start": 0.0, "stop": 600.0, "count": 3},
}


def seeded_stack():
    """(Γ, κ, Δ, L) over a 16 × 32 stack: supported cells, with every 7th Γ negative, every 11th κ
    NaN, every 13th cell at Γ·L = 500 (its occupations overflow) and every 17th at
    Γ·L = 2500 (its W overflows)."""
    rng = np.random.default_rng(32)
    g, k, d, t = (rng.uniform(lo, hi, (16, 32)).ravel() for lo, hi in
                  ((0.0, 2.0), (0.0, 10.0), (-10.0, 10.0), (0.0, 3.0)))
    g[::7], k[::11] = -1.0, np.nan
    g[::13], t[::13] = 200.0, 2.5
    g[::17], t[::17] = 1000.0, 2.5
    return tuple(a.reshape(16, 32) for a in (g, k, d, t))


def library_results():
    """The arrays of each library call of the docstring's list, by the name it prints."""
    peaks = [sweeps.max_signal_over_length(0.5, kappa, 0.0, 3.0, 601)
             for kappa in np.linspace(0.5, 20.0, 40)]
    table = dressed.resonant_vs_qpm(0.5, 5.0, np.linspace(0.0, 3.0, 61))
    return {
        "propagate_lengths 0.5 5 0 3 601": dynamics.propagate_lengths(0.5, 5.0, 0.0, 3.0, 601),
        "max_signal_over_length 40 peaks": (np.array(peaks),),
        "resonant_vs_qpm 0.5 5 61": tuple(table.values()),
        "propagate_batch seeded 16x32": dynamics.propagate_batch(*seeded_stack()),
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        mixed = Path(tmp) / "mixed.json"
        mixed.write_text(json.dumps(MIXED_SWEEP))
        both = ("json", "csv")
        runs = {
            "sweep fig2": (["sweep", "--config", "fig2"], both),
            "sweep fig3": (["sweep", "--config", "fig3"], both),
            "sweep mixed": (["sweep", "--config", str(mixed)], both),
            "ridge 3:10:8": (["ridge", "--delta", "3:10:8"], both),
            "simulate 0.5 8 6 3": (["simulate", "--gamma", "0.5", "--kappa", "8", "--delta", "6",
                                    "--length", "3"], ("json",)),
            "dressed-check 3": (["dressed-check", "--seed", "3"], ("json",)),
        }
        for name, (argv, formats) in runs.items():
            for fmt in formats:
                out = Path(tmp) / f"artifact.{fmt}"
                code = cli.main([*argv, "--format", fmt, "--out", str(out)])
                digest = hashlib.sha256(out.read_bytes()).hexdigest()
                print(f"{digest}  exit {code}  {name} {fmt}")
    for name, arrays in library_results().items():
        digest = hashlib.sha256(b"".join(np.asarray(a).tobytes() for a in arrays)).hexdigest()
        print(f"{digest}  library  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
