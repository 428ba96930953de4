#!/usr/bin/env python3
"""Print the cost of single calls into the propagation kernel and the ridge, in µs.

Each line is ``<name>  <µs>``, the least over ``--repeats`` rounds of the mean
time of ``--number`` calls.  The lines:

  propagate_batch N cells        one stacked propagation, N in 1 33 132 257 512
  expm_i N cells                 the kernel alone on the same N generators
  propagate_step N cells         the step alone on that kernel output
  transfer N cells               W from that kernel output and the frame
                                 factors e^{∓iΔL/2} of the same N cells
  propagate_lengths 0.5 5 0 3 601
  max_signal_over_length 601     one envelope peak, (Γ, κ, Δ) = (0.5, 5, 0), L <= 3
  resonant_vs_qpm 61             the dressed route on linspace(0, 3, 61) at Γ = 0.5, Δ = 5
  vacuum_occupations(propagate_exact) 1 cell
  ridge point bookkeeping        find_anti_zeno_ridge(0.5, 1.5, [5.0]) with its
                                 stacked propagations replayed from a recording,
                                 so only the ridge's own work is timed

The κ values of a stack are spread over [0, 10] at Γ = 0.5, Δ = 5, L = 1.5,
the ridge's setting.  The package is imported from the ``src/`` next to this
script, so running the script of each of two checkouts compares them:

    python3 scripts/call_costs.py --repeats 7 --number 200
"""

import argparse
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zenopdc import dressed, dynamics, sweeps  # noqa: E402
from zenopdc.params import CouplerParams, valid_cells  # noqa: E402

STACKS = (1, 33, 132, 257, 512)
GAMMA, DELTA, LENGTH = 0.5, 5.0, 1.5


def cost(call, repeats: int, number: int) -> float:
    """Least over ``repeats`` rounds of the mean µs of ``number`` calls of ``call``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - start) / number)
    return best * 1e6


def ridge_replay():
    """``find_anti_zeno_ridge`` on one Δ with ``sweeps._signal`` replaying a recorded run."""
    recorded, signal = [], sweeps._signal

    def record(*args):
        recorded.append(signal(*args))
        return recorded[-1]

    def replay():
        replies = iter(recorded)
        sweeps._signal = lambda *args: next(replies)
        try:
            sweeps.find_anti_zeno_ridge(GAMMA, LENGTH, [DELTA])
        finally:
            sweeps._signal = signal

    sweeps._signal = record
    try:
        sweeps.find_anti_zeno_ridge(GAMMA, LENGTH, [DELTA])
    finally:
        sweeps._signal = signal
    return replay


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--number", type=int, default=200)
    args = parser.parse_args()
    timed = {}
    for n in STACKS:
        # float64 arrays of n cells, made by the package itself
        g, k, d, t, _ = valid_cells(GAMMA, [10.0 * i / max(n - 1, 1) for i in range(n)],
                                    DELTA, LENGTH)
        m = dynamics._generators(g, k, d)
        timed[f"propagate_batch {n} cells"] = partial(dynamics.propagate_batch, g, k, d, t)
        timed[f"expm_i {n} cells"] = partial(dynamics.expm_i, m, t)
        e, phase = dynamics.expm_i(m, t), np.exp(1j * (0.5 * d * t))
        timed[f"propagate_step {n} cells"] = partial(dynamics.propagate_step, e)
        timed[f"transfer {n} cells"] = partial(dynamics.transfer, e, phase.conj(), phase)
    timed["propagate_lengths 0.5 5 0 3 601"] = partial(dynamics.propagate_lengths,
                                                       0.5, 5.0, 0.0, 3.0, 601)
    timed["max_signal_over_length 601"] = partial(sweeps.max_signal_over_length,
                                                  GAMMA, 5.0, 0.0, 3.0, 601)
    timed["resonant_vs_qpm 61"] = partial(dressed.resonant_vs_qpm, GAMMA, DELTA,
                                          np.linspace(0.0, 3.0, 61))
    p = CouplerParams(GAMMA, 5.0, DELTA, LENGTH)
    timed["vacuum_occupations(propagate_exact) 1 cell"] = lambda: dynamics.vacuum_occupations(
        dynamics.propagate_exact(p))
    timed["ridge point bookkeeping"] = ridge_replay()
    for name, call in timed.items():
        call()  # the thread's workspace and numpy's caches are made before timing
        print(f"{name}  {cost(call, args.repeats, args.number):.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
