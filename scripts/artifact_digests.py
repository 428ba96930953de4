#!/usr/bin/env python3
"""Print the sha256 of a fixed set of CLI artifacts made by this tree's package.

Each line is ``<sha256>  exit <code>  <artifact>``.  The set:

  sweep --config fig2 | fig3                   JSON and CSV
  a closed_form_when_applicable sweep          JSON and CSV; its grid holds
    with overflowing cells                     all three provenance tags
  ridge --delta 3:10:8                         JSON and CSV
  simulate --gamma 0.5 --kappa 8 --delta 6     JSON; a one-cell exponential
    --length 3                                 that takes 3 squarings
  dressed-check --seed 3                       JSON

The package is imported from the ``src/`` next to this script, so running
the script of each of two checkouts and diffing the outputs tells whether
a change keeps every artifact's bytes:

    python3 scripts/artifact_digests.py > digests.txt
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zenopdc import cli  # noqa: E402

#: Closed form in the kappa = 0 row, numeric elsewhere, and cells whose gain*length overflows.
MIXED_SWEEP = {
    "fixed": {"delta": 0.5, "length": 2.5},
    "engine": "closed_form_when_applicable",
    "axis1": {"name": "kappa", "start": 0.0, "stop": 3.0, "count": 4},
    "axis2": {"name": "gamma", "start": 0.0, "stop": 600.0, "count": 3},
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
