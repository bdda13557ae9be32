"""Paper-table harness: render, then hold against the tracked copy.

Every file here reproduces one of the paper's tables or figures from the
analytical model and renders it through :func:`emit`, which prints it
(visible with ``pytest -s``), writes it under the untracked
``benchmarks/out/`` and compares it with the tracked
``benchmarks/results/<name>.txt``: a table that no longer matches fails
its test naming the file and the first differing line.  The model is
deterministic, so any difference is a change to the model.

``python -m pytest benchmarks --regen-tables`` rewrites the tracked
copies instead of comparing them (review ``git diff benchmarks/results``
and commit) — the same deliberate-change convention as
``--regen-api-surface`` and ``repro conformance --regen-kats``, and the
only thing that writes ``benchmarks/results/``, so a test run leaves the
working tree clean.

Measured performance of the signing stack is not here: ``bench/run.py``
measures it and ``bench/compare.py`` gates it.
"""

from __future__ import annotations

import itertools
import pathlib

import pytest

from repro.gpusim.device import get_device
from repro.gpusim.engine import TimingEngine

OUT_DIR = pathlib.Path(__file__).parent / "out"
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--regen-tables", action="store_true", default=False,
        help="rewrite benchmarks/results/*.txt from the tables this run "
             "renders instead of comparing against them")


def check_table(name: str, text: str, regen: bool,
                results_dir: pathlib.Path = RESULTS_DIR) -> None:
    """Fail unless *text* is what ``<results_dir>/<name>.txt`` tracks;
    with *regen*, make it so instead."""
    tracked = results_dir / f"{name}.txt"
    rendered = text + "\n"
    if regen:
        tracked.write_text(rendered)
        return
    hint = ("if the change is deliberate: `python -m pytest benchmarks "
            "--regen-tables`, review the diff, commit")
    if not tracked.exists():
        pytest.fail(f"{tracked} does not exist — {hint}", pytrace=False)
    pairs = itertools.zip_longest(tracked.read_text().split("\n"),
                                  rendered.split("\n"))
    for number, (want, got) in enumerate(pairs, start=1):
        if want != got:
            pytest.fail(
                f"{tracked}:{number} differs from the rendered table\n"
                f"  tracked : {want!r}\n  rendered: {got!r}\n{hint}",
                pytrace=False)


@pytest.fixture(scope="session")
def rtx4090():
    return get_device("RTX 4090")


@pytest.fixture(scope="session")
def engine():
    return TimingEngine()


@pytest.fixture(scope="session")
def emit(request):
    regen = request.config.getoption("--regen-tables")
    OUT_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str, tracked: bool = True) -> None:
        print(f"\n{text}\n")
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        if tracked:
            check_table(name, text, regen)

    return _emit
