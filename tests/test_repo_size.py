"""The size ratchet: ``src/repro`` may not quietly grow back.

The north star tracks source line count next to sig/s ("each PR should
leave ``src/`` smaller or flatter than it found it unless it can show
why not").  This counts lines exactly the way the benchmark's
``repo.src_lines`` ladder metric does (``bench/herobench/ladder.py``:
every line of every ``*.py`` under ``src/repro``) and holds the total
under a ceiling.
"""

from pathlib import Path

#: The last measured line count.  This constant only
#: moves *down* — a PR that lands smaller lowers it to its own result —
#: unless the PR's CHANGES.md entry argues why the growth pays for
#: itself.
SRC_LINES_CEILING = 18545


def test_src_lines_stay_under_the_ceiling():
    lines = 0
    for path in (Path(__file__).parent.parent / "src" / "repro"
                 ).rglob("*.py"):
        with open(path, "rb") as handle:
            lines += sum(1 for _ in handle)
    assert lines <= SRC_LINES_CEILING, (
        f"src/repro is {lines} lines, over the {SRC_LINES_CEILING} "
        "ceiling: delete what the change made unnecessary, or raise the "
        "ceiling and say why in CHANGES.md")
