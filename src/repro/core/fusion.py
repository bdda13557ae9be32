"""FORS Fusion planning, including the Relax-FORS model.

Turns a Tree Tuning result into a concrete :class:`ForsPlan` — block
geometry, fused-set factor, relax buffering, and (optionally) the bank
padding rule — for the ``FORS_Sign`` kernel.

Relax-FORS (paper §III-B.4) engages when a single FORS tree's leaf storage
would monopolize the shared-memory budget (the 256f case: 512 leaves of
32 bytes = 16 KB per tree).  One thread then generates *two* leaves into a
register-resident relax buffer and immediately reduces them, so the bottom
level never materializes in shared memory — halving the per-tree footprint
and the minimum threads per tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import SphincsParams
from .padding import PaddingRule, padding_rule
from .tree_tuning import TuningResult, tree_tuning_search

__all__ = ["ForsPlan", "plan_fors", "needs_relax"]

# Engage Relax-FORS when one tree's leaf level eats at least this fraction
# of the block shared-memory budget (256f: 16 KB / 48 KB).
_RELAX_FRACTION = 1 / 3

# Per-thread relax-buffer registers are capped (paper's R_t threshold) to
# avoid spilling: two n-byte leaves = 2n/4 registers.
RELAX_BUFFER_REGS = {16: 8, 24: 12, 32: 16}


@dataclass(frozen=True)
class ForsPlan:
    """Concrete FORS_Sign execution plan for one device."""

    params: SphincsParams
    threads_per_block: int
    n_tree: int                 # trees per set
    fusion_f: int               # fused sets
    relax: bool
    pad: PaddingRule | None     # None = packed layout (conflict-prone)
    smem_bytes: int             # data bytes (padding overhead added below)
    sync_points: float
    tuning: TuningResult | None = None

    @property
    def trees_in_flight(self) -> int:
        return self.n_tree * self.fusion_f

    @property
    def rounds(self) -> int:
        """Set groups processed sequentially by one block."""
        flight = self.trees_in_flight
        return -(-self.params.k // flight)

    @property
    def smem_per_block(self) -> int:
        """Shared memory per block including padding overhead."""
        if self.pad is None:
            return self.smem_bytes
        return self.smem_bytes + self.pad.overhead_bytes(self.smem_bytes)

    @property
    def relax_buffer_regs(self) -> int:
        return RELAX_BUFFER_REGS[self.params.n] if self.relax else 0


def needs_relax(params: SphincsParams, smem_budget: int) -> bool:
    """Whether one FORS tree's leaves crowd out fusion (paper 256f case)."""
    return params.t * params.n >= smem_budget * _RELAX_FRACTION


def plan_fors(
    params: SphincsParams,
    smem_budget: int,
    padded: bool = True,
    force_relax: bool | None = None,
    hard_limit: int | None = None,
) -> ForsPlan:
    """Tune and plan FORS_Sign for a shared-memory budget.

    ``force_relax`` overrides the automatic Relax-FORS decision (for the
    ablation bench).  ``hard_limit`` is the device's opt-in per-block
    maximum including the padding overhead; when the padded footprint of
    the tuned configuration exceeds it (older parts whose opt-in limit
    equals the static 48 KB), the search reruns with a shrunken budget.
    """
    relax = needs_relax(params, smem_budget) if force_relax is None else force_relax
    pad = padding_rule(params.n) if padded else None
    budget = smem_budget
    while True:
        tuning = tree_tuning_search(params, budget, relax=relax)
        best = tuning.best
        plan = ForsPlan(
            params=params,
            threads_per_block=best.t_set,
            n_tree=best.n_tree,
            fusion_f=best.f,
            relax=relax,
            pad=pad,
            smem_bytes=best.smem_bytes,
            sync_points=best.sync_points,
            tuning=tuning,
        )
        if hard_limit is None or plan.smem_per_block <= hard_limit:
            return plan
        # Shrink by the padding overhead and retry (strictly decreasing).
        overhead = 4 * hard_limit // pad.pad_period if pad else 0
        budget = min(budget - 1024, hard_limit - overhead)
