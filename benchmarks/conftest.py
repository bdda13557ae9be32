"""Benchmark-harness fixtures.

Every bench renders its paper-vs-measured table through :func:`emit`, which
prints it (visible with ``pytest -s`` and in the benchmark log) and writes
it under the untracked ``benchmarks/out/`` so the full set of reproduced
tables can be inspected after a run.  The pinned copies under
``benchmarks/results/`` are written by
``compare_baselines.py --regen-baselines`` and by nothing else, so a test
run leaves the working tree clean.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.gpusim.device import get_device
from repro.gpusim.engine import TimingEngine

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: Smoke mode (``REPRO_SMOKE=1``): tiny configurations for CI.  Measured
#: output is mode-specific — smoke runs write under ``out/smoke/`` — and
#: ``compare_baselines.py`` diffs it against the matching pinned file
#: (``results/`` or ``results/smoke/``).
SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")


def json_baseline_dir() -> pathlib.Path:
    """Where this run's measured tables and JSON belong (mode-specific)."""
    directory = OUT_DIR / "smoke" if SMOKE else OUT_DIR
    directory.mkdir(parents=True, exist_ok=True)
    return directory


@pytest.fixture(scope="session")
def rtx4090():
    return get_device("RTX 4090")


@pytest.fixture(scope="session")
def engine():
    return TimingEngine()


@pytest.fixture(scope="session")
def emit():
    directory = json_baseline_dir()

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (directory / f"{name}.txt").write_text(text + "\n")

    return _emit
