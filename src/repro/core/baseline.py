"""The TCAS-SPHINCSp baseline model (Kim et al., the paper's SOTA comparator).

Kim et al. introduced hypertree MMTP (parallel Merkle trees in
``TREE_Sign``) but kept **single-FORS-subtree parallelism**, plain stream
launches with synchronous host control, native SHA-256 code, global-memory
placement for FORS nodes and seeds, and no bank padding.  The baseline's
launch structure — one FORS launch, one TREE launch *per hypertree layer*
(the reference code's ``merkle_sign`` loop of Figure 2), and one WOTS
launch, synchronized on the host, as ``core/batch.py: run_batch`` lays it
out in its ``baseline`` mode — produces the kernel-launch overhead and
idle time of paper Table II / Figure 12.
"""

from __future__ import annotations

from ..gpusim.compiler import Branch
from ..gpusim.device import DeviceSpec
from ..params import SphincsParams
from .kernels import KernelPlan, OptimizationFlags, build_plans

__all__ = ["BASELINE_FLAGS", "baseline_plans"]

BASELINE_FLAGS = OptimizationFlags.baseline()


def baseline_plans(
    params: SphincsParams,
    device: DeviceSpec,
    messages: int = 1024,
) -> dict[str, KernelPlan]:
    """The three kernel plans under the TCAS-SPHINCSp feature set."""
    return build_plans(
        params, device, BASELINE_FLAGS,
        branches={k: Branch.NATIVE for k in ("FORS_Sign", "TREE_Sign", "WOTS_Sign")},
        messages=messages,
    )

