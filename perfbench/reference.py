"""Reference kernel: a fixed amount of work that uses no package code.

The host's speed drifts by up to 2x over seconds to minutes.  Each workload
times this kernel alongside its operations, and ``pass_ref`` divides the
mean pass time by the kernel's time, which cancels most of that drift.  The
kernel mixes validated-dataclass construction with 3 x 3 numpy
eig/cond/solve in about the proportions a propagation has.

Run as a script it executes the kernel once in a fresh interpreter, the
yardstick for workloads whose operations are whole interpreter runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class _Point:
    gamma: float
    kappa: float
    delta: float
    length: float

    def __post_init__(self) -> None:
        for name in ("gamma", "kappa", "delta", "length"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(name)
            object.__setattr__(self, name, value)


def kernel_s() -> float:
    """Wall time of one run of the kernel in this process."""
    import numpy as np

    start = time.perf_counter()
    point = _Point(0.5, 0.0, 1.0, 1.5)
    total = 0.0
    for k in range(96):
        p = replace(point, kappa=0.1 * k)
        m = np.array([[0.5 * p.delta, p.gamma, 0.0],
                      [-p.gamma, -0.5 * p.delta, -p.kappa],
                      [0.0, -p.kappa, -0.5 * p.delta]])
        vals, vecs = np.linalg.eig(m)
        cond = np.linalg.cond(vecs)
        w = np.linalg.solve(vecs.T, (vecs * np.exp(1j * p.length * vals)).T).T
        total += float(np.sum(np.abs(w[0]) ** 2)) + cond
    if not math.isfinite(total):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return time.perf_counter() - start


if __name__ == "__main__":
    kernel_s()
