"""Shared-memory bank model with exact conflict counting.

NVIDIA shared memory is organized as 32 four-byte banks; a warp access is
processed in *wavefronts*, and whenever two threads in the same wavefront
touch **different 32-bit words that live in the same bank**, the wavefront
replays — a bank conflict.  (Threads reading the *same* word broadcast and
do not conflict.)

This module replays real access traces against that rule:

* :class:`SharedMemoryBankModel` applies the documented per-phase rule: an
  N-byte per-thread access executes as N/4 word phases; in each phase every
  thread presents one word address, and the wavefront count is the maximum
  number of distinct words mapped to any single bank.
* :class:`Layout` positions n-byte tree nodes in shared memory with an
  optional padding rule (a 4-byte pad bank inserted after every
  ``pad_period`` data bytes — the paper's Equations 2/3 choose that
  period).
* :func:`reduction_trace` generates the exact load/store pattern of the
  bottom-up Merkle reduction of paper Figure 7 (one tree, or several side
  by side), which :func:`count_reduction_conflicts` replays level by
  level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import SharedMemoryError

__all__ = [
    "AccessPattern",
    "ConflictReport",
    "SharedMemoryBankModel",
    "Layout",
    "reduction_trace",
    "count_reduction_conflicts",
]

#: Shared-memory banks, bytes per bank, and threads per warp.
BANKS = 32
BANK_WIDTH = 4
WARP_SIZE = 32


@dataclass(frozen=True)
class AccessPattern:
    """One warp-level access: per-thread (byte_address, width_bytes).

    ``accesses`` maps lane -> (address, width); lanes absent from the dict
    are inactive (predicated off).
    """

    accesses: dict[int, tuple[int, int]]
    kind: str = "load"  # "load" or "store"

    def __post_init__(self) -> None:
        for lane, (addr, width) in self.accesses.items():
            if not 0 <= lane < 32:
                raise SharedMemoryError(f"lane {lane} outside the warp")
            if width % 4 or width <= 0:
                raise SharedMemoryError(
                    f"access width {width} must be a positive multiple of 4"
                )
            if addr % 4:
                raise SharedMemoryError(f"address {addr:#x} is not word-aligned")


@dataclass
class ConflictReport:
    """Aggregated wavefront statistics over a trace."""

    load_wavefronts: int = 0
    load_ideal: int = 0
    store_wavefronts: int = 0
    store_ideal: int = 0

    @property
    def load_conflicts(self) -> int:
        return self.load_wavefronts - self.load_ideal

    @property
    def store_conflicts(self) -> int:
        return self.store_wavefronts - self.store_ideal

    @property
    def total_conflicts(self) -> int:
        return self.load_conflicts + self.store_conflicts


class SharedMemoryBankModel:
    """The 32-bank wavefront-replay rule."""

    def warp_wavefronts(self, pattern: AccessPattern) -> tuple[int, int]:
        """(actual, ideal) wavefronts for one warp access.

        Ideal is the phase count (width / 4): the wavefronts a conflict-free
        access of the same width would need.
        """
        if not pattern.accesses:
            return 0, 0
        phases = max(width for _, width in pattern.accesses.values()) // 4
        actual = 0
        for phase in range(phases):
            words_per_bank: dict[int, set[int]] = {}
            for addr, width in pattern.accesses.values():
                if phase * 4 >= width:
                    continue
                word = (addr + phase * 4) // BANK_WIDTH
                bank = word % BANKS
                words_per_bank.setdefault(bank, set()).add(word)
            if words_per_bank:
                actual += max(len(words) for words in words_per_bank.values())
        return actual, phases

    def replay(self, trace: Iterable[AccessPattern]) -> ConflictReport:
        """Replay a trace of warp accesses and aggregate conflicts."""
        report = ConflictReport()
        for pattern in trace:
            actual, ideal = self.warp_wavefronts(pattern)
            if pattern.kind == "store":
                report.store_wavefronts += actual
                report.store_ideal += ideal
            else:
                report.load_wavefronts += actual
                report.load_ideal += ideal
        return report


@dataclass(frozen=True)
class Layout:
    """Placement of n-byte nodes in a shared-memory region.

    ``pad_period`` of 0 means a packed layout.  Otherwise one 4-byte pad
    bank is skipped after every ``pad_period`` bytes of *data*, shifting
    subsequent nodes — the generalized padding strategy of paper §III-E.
    """

    node_bytes: int
    pad_period: int = 0

    def __post_init__(self) -> None:
        if self.node_bytes % 4 or self.node_bytes <= 0:
            raise SharedMemoryError(
                f"node size {self.node_bytes} must be a positive multiple of 4"
            )
        if self.pad_period % 4 or self.pad_period < 0:
            raise SharedMemoryError(
                f"pad period {self.pad_period} must be a non-negative multiple of 4"
            )

    def address(self, node_index: int) -> int:
        """Byte address of node *node_index* under this layout."""
        raw = node_index * self.node_bytes
        if self.pad_period:
            raw += 4 * (raw // self.pad_period)
        return raw


def reduction_trace(
    leaf_count: int,
    layout: Layout,
    trees: int = 1,
) -> Iterator[AccessPattern]:
    """Warp access trace of *trees* bottom-up Merkle reductions side by side.

    Mirrors the kernels' reduction loop (paper Figure 7): at each level,
    thread ``t`` owns parent ``t``, loads its two children and stores the
    parent; threads are chunked into warps (only intra-warp conflicts
    exist).  Each level is stored tree-major in its own region under
    *layout*, so with ``trees > 1`` — ``TREE_Sign``'s d hypertree
    subtrees sharing warps — thread ``t``'s children sit at
    ``tree * width + 2 * local`` and conflicts arise *across* trees.
    Yields level by level: the first ``3 * ceil(trees * leaf_count / 2 /
    WARP_SIZE)`` patterns are the bottom level.
    """
    if leaf_count <= 0 or leaf_count & (leaf_count - 1):
        raise SharedMemoryError(
            f"reduction needs a power-of-two leaf count, got {leaf_count}"
        )
    if trees < 1:
        raise SharedMemoryError(f"need at least one tree, got {trees}")
    n = layout.node_bytes
    width = leaf_count
    while width > 1:
        parents = width // 2
        total = trees * parents
        for warp_base in range(0, total, WARP_SIZE):
            lanes = range(warp_base, min(warp_base + WARP_SIZE, total))

            def child_addr(t: int, side: int) -> int:
                tree, local = divmod(t, parents)
                return layout.address(tree * width + 2 * local + side)

            yield AccessPattern(
                {t - warp_base: (child_addr(t, 0), n) for t in lanes})
            yield AccessPattern(
                {t - warp_base: (child_addr(t, 1), n) for t in lanes})
            yield AccessPattern(
                {t - warp_base: (layout.address(t), n) for t in lanes},
                kind="store",
            )
        width = parents


def count_reduction_conflicts(
    leaf_count: int,
    node_bytes: int,
    pad_period: int = 0,
    repeats: int = 1,
    trees: int = 1,
) -> ConflictReport:
    """Conflicts of *repeats* reductions of *trees* side-by-side Merkle
    trees under one padding rule."""
    layout = Layout(node_bytes, pad_period)
    single = SharedMemoryBankModel().replay(
        reduction_trace(leaf_count, layout, trees))
    return ConflictReport(
        single.load_wavefronts * repeats,
        single.load_ideal * repeats,
        single.store_wavefronts * repeats,
        single.store_ideal * repeats,
    )
