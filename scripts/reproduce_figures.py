#!/usr/bin/env python3
"""Regenerate the headline data sets of the study (data only, no plotting).

Produces, under --outdir:

  suppression_map.json   signal yield on the length x coupling grid at
                         delta = 5 (Zeno suppression: strong probing freezes
                         conversion at every length)
  revival_map.json       signal yield on the coupling x mismatch grid at
                         L = 1.5 (anti-Zeno ridge along kappa ~ delta)
  zeno_envelope.csv      peak yield over length vs probe coupling, with the
                         (2*gamma/kappa)^2 envelope alongside
  resonant_vs_qpm.csv    exact resonant yield vs the quasi-phase-matching
                         model sinh^2(2*gamma*L/pi) and the dressed-channel
                         law sinh^2(gamma*L/sqrt(2))

Both maps are written by `zenopdc sweep --config fig2|fig3`, so the JSON
files are that command's output.
"""

import argparse
from pathlib import Path

import numpy as np

from zenopdc import cli, max_signal_over_length, resonant_vs_qpm


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", type=Path, default=Path("artifacts"))
    parser.add_argument("--gamma", type=float, default=0.5)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    for config, target in (("fig2", "suppression_map.json"), ("fig3", "revival_map.json")):
        path = args.outdir / target
        status = cli.main(["sweep", "--config", config, "--out", str(path)])
        if status not in (cli.EXIT_OK, cli.EXIT_CELL_FAILURES):
            return status
        print(f"wrote {path}")

    kappas = np.linspace(0.5, 20.0, 40)
    lines = ["kappa,peak_n_s,envelope"]
    for kappa in kappas:
        peak = max_signal_over_length(args.gamma, float(kappa), 0.0, 3.0)
        envelope = (2.0 * args.gamma / kappa) ** 2
        lines.append(f"{float(kappa)!r},{peak!r},{float(envelope)!r}")
    path = args.outdir / "zeno_envelope.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(kappas)} couplings)")

    lengths = np.linspace(0.0, 3.0, 61)
    table = resonant_vs_qpm(args.gamma, 5.0, lengths)
    lines = ["length,resonant,qpm_model,matched_channel"]
    for i in range(len(lengths)):
        lines.append(
            f"{float(table['lengths'][i])!r},{float(table['resonant'][i])!r},"
            f"{float(table['qpm_model'][i])!r},{float(table['matched_channel'][i])!r}"
        )
    path = args.outdir / "resonant_vs_qpm.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(lengths)} lengths)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
