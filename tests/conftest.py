"""Shared fixtures: hypothesis strategies and the acceptance report hook.

Acceptance tests record one pass/fail line each through the
``acceptance_report`` fixture; the lines are replayed in a dedicated terminal
section after the run so they stay visible even when capture is on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from zenopdc import CouplerParams

# Ranges over which the absolute 1e-10 guarantees are advertised: gains with
# gamma*length beyond ~6 push the map norm high enough that float64 cannot
# hold the symplectic identities to 1e-10 in absolute terms.
SUPPORTED_GAMMA = (0.0, 2.0)
SUPPORTED_KAPPA = (0.0, 10.0)
SUPPORTED_DELTA = (-10.0, 10.0)
SUPPORTED_LENGTH = (0.0, 3.0)

#: Largest relative distance between the frame-free occupations of the stacked paths and
#: those of a map's V block, whose rows the frame phases turn (≈1e-15 is seen).
MAP_RTOL = 1e-14


def _finite(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def supported_params(draw, max_gamma: float = SUPPORTED_GAMMA[1]) -> CouplerParams:
    """Random parameter sets inside the supported accuracy range."""
    return CouplerParams(
        gamma=draw(_finite(SUPPORTED_GAMMA[0], max_gamma)),
        kappa=draw(_finite(*SUPPORTED_KAPPA)),
        delta=draw(_finite(*SUPPORTED_DELTA)),
        length=draw(_finite(*SUPPORTED_LENGTH)),
    )


def draw_supported(rng: np.random.Generator, max_gamma: float = SUPPORTED_GAMMA[1]) -> CouplerParams:
    """rng-based analogue of :func:`supported_params` for fixed-seed loops."""
    return CouplerParams(
        gamma=rng.uniform(SUPPORTED_GAMMA[0], max_gamma),
        kappa=rng.uniform(*SUPPORTED_KAPPA),
        delta=rng.uniform(*SUPPORTED_DELTA),
        length=rng.uniform(*SUPPORTED_LENGTH),
    )


_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance_report():
    """Record one '[PASS]/[FAIL] name: detail' line and assert on it."""

    def _report(name: str, passed: bool, detail: str) -> None:
        line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        assert passed, line

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance gate")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
