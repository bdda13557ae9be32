"""Table formatting and shape-check helpers for the benchmark harness.

Benchmarks print paper-vs-measured tables with :func:`format_table` and
assert *shape* agreement — orderings and rough ratios, not absolute
numbers — with :func:`shape_check`.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "shape_check"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a fixed-width text table."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(row[i]) for row in cells)) if cells
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(value.ljust(w) for value, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def shape_check(
    measured: float,
    paper: float,
    rel_tolerance: float,
    label: str = "",
) -> None:
    """Assert ``measured`` is within a multiplicative band of ``paper``.

    ``rel_tolerance`` of 0.5 accepts measured in [paper/1.5, paper*1.5].
    Raises AssertionError with a readable message otherwise.
    """
    if paper == 0:
        raise AssertionError(f"{label}: paper value is zero, cannot compare")
    band = 1.0 + rel_tolerance
    lo, hi = paper / band, paper * band
    assert lo <= measured <= hi, (
        f"{label}: measured {measured:.4g} outside [{lo:.4g}, {hi:.4g}] "
        f"(paper {paper:.4g}, tolerance x{band:.2f})"
    )
