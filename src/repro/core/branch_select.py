"""Profiling-driven PTX/native branch selection (paper §III-C.2, Table V).

HERO-Sign compiles every kernel twice — once per execution path — profiles
both, and bakes the winner in at compile time (``constexpr if``).  This
module performs exactly that comparison on the timing model and returns
the per-kernel choice plus the profiling evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpusim.compiler import Branch
from ..gpusim.engine import TimingEngine
from .kernels import KernelPlan

__all__ = ["BranchChoice", "select_branches"]


@dataclass(frozen=True)
class BranchChoice:
    """Profiling outcome for one kernel."""

    kernel: str
    native_time_s: float
    ptx_time_s: float

    @property
    def winner(self) -> Branch:
        return Branch.PTX if self.ptx_time_s < self.native_time_s else Branch.NATIVE

    @property
    def ptx_selected(self) -> bool:
        return self.winner is Branch.PTX

    @property
    def speedup(self) -> float:
        """Winner's speedup over the loser."""
        slow = max(self.native_time_s, self.ptx_time_s)
        fast = min(self.native_time_s, self.ptx_time_s)
        return slow / fast if fast > 0 else 1.0


def select_branches(
    plans: dict[str, KernelPlan],
    engine: TimingEngine,
) -> dict[str, BranchChoice]:
    """Profile both branches of every plan and pick per-kernel winners."""
    choices: dict[str, BranchChoice] = {}
    for name, plan in plans.items():
        times: dict[Branch, float] = {}
        for branch in (Branch.NATIVE, Branch.PTX):
            candidate = plan.with_branch(branch)
            timing = engine.time_kernel(
                candidate.compiled, candidate.workload, candidate.launch
            )
            times[branch] = timing.time_s
        choices[name] = BranchChoice(
            kernel=name,
            native_time_s=times[Branch.NATIVE],
            ptx_time_s=times[Branch.PTX],
        )
    return choices
