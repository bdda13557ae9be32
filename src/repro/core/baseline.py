"""The TCAS-SPHINCSp baseline model (Kim et al., the paper's SOTA comparator).

Kim et al. introduced hypertree MMTP (parallel Merkle trees in
``TREE_Sign``) but kept **single-FORS-subtree parallelism**, plain stream
launches with synchronous host control, native SHA-256 code, global-memory
placement for FORS nodes and seeds, and no bank padding.  The baseline's
launch structure — one FORS launch, one TREE launch *per hypertree layer*
(the reference code's ``merkle_sign`` loop of Figure 2), and one WOTS
launch, synchronized on the host — produces the kernel-launch overhead and
idle time of paper Table II / Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpusim.compiler import Branch, CompilerModel
from ..gpusim.device import DeviceSpec
from ..params import SphincsParams
from .kernels import KernelPlan, OptimizationFlags, build_plans

__all__ = ["BASELINE_FLAGS", "baseline_plans", "baseline_launch_structure"]

BASELINE_FLAGS = OptimizationFlags.baseline()


def baseline_plans(
    params: SphincsParams,
    device: DeviceSpec,
    messages: int = 1024,
    compiler: CompilerModel | None = None,
) -> dict[str, KernelPlan]:
    """The three kernel plans under the TCAS-SPHINCSp feature set."""
    return build_plans(
        params, device, BASELINE_FLAGS,
        branches={k: Branch.NATIVE for k in ("FORS_Sign", "TREE_Sign", "WOTS_Sign")},
        messages=messages,
        compiler=compiler,
    )


@dataclass(frozen=True)
class LaunchStructure:
    """How many kernel launches one batch costs, per implementation."""

    fors_launches: int
    tree_launches: int
    wots_launches: int
    host_synchronized: bool

    @property
    def total(self) -> int:
        return self.fors_launches + self.tree_launches + self.wots_launches


def baseline_launch_structure(params: SphincsParams) -> LaunchStructure:
    """TCAS-SPHINCSp: per batch, one FORS launch, one TREE launch per
    hypertree layer (the ``merkle_sign`` loop), one WOTS launch — all
    host-synchronized."""
    return LaunchStructure(
        fors_launches=1,
        tree_launches=params.d,
        wots_launches=1,
        host_synchronized=True,
    )
