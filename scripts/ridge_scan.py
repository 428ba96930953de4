#!/usr/bin/env python3
"""Track the anti-Zeno ridge kappa_opt(delta) and fit its linearity.

Writes a CSV of (delta, kappa_opt, n_s_max, n_s_unprobed, enhancement) and
prints the least-squares line kappa_opt = slope * delta + intercept.  On the
compensation ridge the slope is ~1: the probe coupling that maximizes the
signal yield tracks the phase mismatch it compensates.
"""

import argparse
from pathlib import Path

import numpy as np

from zenopdc import find_anti_zeno_ridge, propagate_batch, ridge_linearity
from zenopdc.params import require_ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gamma", type=float, default=0.5)
    parser.add_argument("--length", type=float, default=1.5)
    parser.add_argument("--delta-min", type=float, default=3.0)
    parser.add_argument("--delta-max", type=float, default=10.0)
    parser.add_argument("--count", type=int, default=8)
    parser.add_argument("--out", type=Path, default=Path("ridge.csv"))
    args = parser.parse_args()

    deltas = [float(d) for d in np.linspace(args.delta_min, args.delta_max, args.count)]
    points = find_anti_zeno_ridge(args.gamma, args.length, deltas)

    # The unprobed (kappa = 0) signal at every ridge delta, in one stacked propagation.
    n, ok = propagate_batch(args.gamma, 0.0, [p.delta for p in points], args.length)
    require_ok(ok, "unprobed signal")
    lines = ["delta,kappa_opt,n_s_max,n_s_unprobed,enhancement"]
    for p, unprobed in zip(points, n[:, 0].tolist()):
        gain = p.n_s_max / unprobed if unprobed > 0 else float("inf")
        lines.append(f"{p.delta!r},{p.kappa_opt!r},{p.n_s_max!r},{unprobed!r},{gain!r}")
    args.out.write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(points)} ridge points)")

    if len(points) >= 3:
        slope, intercept, residual = ridge_linearity(points)
        print(f"fit: kappa_opt = {slope:.4f} * delta + {intercept:+.4f} "
              f"(max residual {residual:.4f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
