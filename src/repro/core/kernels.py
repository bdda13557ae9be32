"""Workload builders for the three SPHINCS+ kernels.

HERO-Sign follows Kim et al. in decomposing signature generation into
``FORS_Sign``, ``TREE_Sign`` and ``WOTS_Sign`` (paper §III).  This module
derives each kernel's per-block workload — hash counts, critical paths,
barriers, shared-memory wavefronts, off-chip traffic — from the SPHINCS+
parameter geometry and an execution plan, then compiles and packages
everything as :class:`KernelPlan` objects the timing engine can run.

One block processes one message (the paper's block-based batching), so the
grid size equals the batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice

from ..errors import GpuModelError
from ..gpusim.compiler import Branch, CompiledKernel, CompilerModel
from ..gpusim.device import DeviceSpec
from ..gpusim.instructions import MISC as MISC_CLASS, InstructionMix
from ..gpusim.kernel import KernelWorkload, LaunchConfig, WorkloadPhase
from ..gpusim.memory import (
    WARP_SIZE,
    Layout,
    SharedMemoryBankModel,
    count_reduction_conflicts,
    reduction_trace,
)
from ..params import SphincsParams
from .fusion import ForsPlan, plan_fors
from .hybrid_memory import MemoryPlan, get_memory_plan

__all__ = [
    "OptimizationFlags",
    "KernelPlan",
    "build_fors_plan",
    "build_tree_plan",
    "build_wots_plan",
    "build_plans",
    "level_wavefronts",
]


@dataclass(frozen=True)
class OptimizationFlags:
    """Which HERO-Sign optimizations are active (the Fig. 11 ladder).

    ``branch`` of ``None`` means profile-driven selection
    (:mod:`repro.core.branch_select`); a concrete :class:`Branch` forces
    one path everywhere.
    """

    mmtp: bool = True
    fusion: bool = True
    branch: Branch | None = None
    hybrid_memory: bool = True
    free_bank: bool = True

    @classmethod
    def baseline(cls) -> "OptimizationFlags":
        """The TCAS-SPHINCSp feature set."""
        return cls(
            mmtp=False, fusion=False, branch=Branch.NATIVE,
            hybrid_memory=False, free_bank=False,
        )

    @classmethod
    def full(cls) -> "OptimizationFlags":
        return cls()


@dataclass
class KernelPlan:
    """Everything needed to time one kernel."""

    kernel: str
    workload: KernelWorkload
    launch: LaunchConfig
    compiled: CompiledKernel
    memory_plan: MemoryPlan
    fors_plan: ForsPlan | None = None
    extra_regs: int = 0

    def with_branch(self, branch: Branch) -> "KernelPlan":
        """The same plan recompiled for the other execution path,
        preserving the memory plan's per-hash overhead and any relax-buffer
        register reservation."""
        compiled = _compile(
            self.kernel, self.compiled.params,
            self.compiled.device, branch,
            self.memory_plan.overhead_for(self.kernel, self.compiled.params.n),
            extra_regs=self.extra_regs,
            threads_per_block=self.launch.threads_per_block,
        )
        return replace(self, compiled=compiled)


# ----------------------------------------------------------------------
# Shared-memory wavefront accounting for one reduction level
# ----------------------------------------------------------------------
def level_wavefronts(
    parents: int,
    node_bytes: int,
    pad_period: int,
) -> tuple[float, float]:
    """(load, store) wavefronts for one reduction level of one tree.

    Replays the bottom level of :func:`reduction_trace` (thread ``t``
    loads children ``2t`` and ``2t+1``, stores parent ``t``) against the
    32-bank model.
    """
    trace = reduction_trace(2 * parents, Layout(node_bytes, pad_period))
    level = islice(trace, 3 * math.ceil(parents / WARP_SIZE))
    report = SharedMemoryBankModel().replay(level)
    return float(report.load_wavefronts), float(report.store_wavefronts)


# ----------------------------------------------------------------------
# FORS_Sign
# ----------------------------------------------------------------------
def build_fors_plan(
    params: SphincsParams,
    device: DeviceSpec,
    flags: OptimizationFlags,
    branch: Branch,
    messages: int = 1024,
    fors_plan: ForsPlan | None = None,
) -> KernelPlan:
    """FORS_Sign: k Merkle trees of t leaves, fused per the Tree Tuning plan.

    Without MMTP (the TCAS-SPHINCSp baseline) the block walks the k trees
    one at a time with ``t`` threads and keeps nodes in global memory.
    """
    memory_plan = _memory_plan_for(flags)
    pad_period = 0
    if fors_plan is None:
        if flags.fusion:
            fors_plan = plan_fors(
                params, device.shared_mem_per_block_static,
                padded=flags.free_bank,
                hard_limit=device.shared_mem_per_block_optin,
            )
        else:
            # MMTP without tuning: fill the thread budget with whole trees.
            n_tree = max(1, min(params.k, 1024 // params.t)) if flags.mmtp else 1
            threads = n_tree * min(params.t, 1024)
            fors_plan = ForsPlan(
                params=params,
                threads_per_block=threads,
                n_tree=n_tree,
                fusion_f=1,
                relax=False,
                pad=None,
                smem_bytes=n_tree * params.t * params.n,
                sync_points=params.log_t * math.ceil(params.k / n_tree),
            )
    if fors_plan.pad is not None:
        pad_period = fors_plan.pad.pad_period

    t = params.t
    k = params.k
    n = params.n
    flight = fors_plan.trees_in_flight
    nodes_shared = memory_plan.nodes_in_shared and flags.mmtp
    overhead = memory_plan.overhead_for("FORS_Sign", params.n)

    phases: list[WorkloadPhase] = []
    remaining = k
    round_index = 0
    while remaining > 0:
        trees = min(flight, remaining)
        suffix = f"r{round_index}"
        if fors_plan.relax:
            # Two leaves per thread plus the level-1 parent, all before the
            # first barrier; level 1 never touches shared memory.  The two
            # leaves are independent; the parent depends on both, so the
            # dependent chain is PRF -> leaf -> parent.
            leaf_hashes = trees * (t * 2 + t // 2)
            leaf_depth = 3
            first_level = 2
        else:
            leaf_hashes = trees * t * 2
            leaf_depth = 2
            first_level = 1
        store_waves = 0.0
        if nodes_shared:
            leaves_stored = t // 2 if fors_plan.relax else t
            store_waves = trees * leaves_stored * n / 4 / 32
        phases.append(WorkloadPhase(
            name=f"leaves_{suffix}",
            hash_total=float(leaf_hashes),
            hash_depth=float(leaf_depth),
            active_threads=fors_plan.threads_per_block,
            syncs=1,
            smem_store_passes=store_waves,
            global_bytes=(trees * t * n * 2.0) if not nodes_shared else 0.0,
        ))
        for level in range(first_level, params.log_t + 1):
            parents = t >> level
            per_set = fors_plan.n_tree * parents
            active = min(fors_plan.threads_per_block, max(1, per_set))
            loads = stores = 0.0
            gbytes = 0.0
            if nodes_shared:
                lw, sw = level_wavefronts(parents, n, pad_period)
                loads = lw * trees
                stores = sw * trees
            else:
                gbytes = trees * parents * 3.0 * n
            # A thread's F fused-set nodes are independent (that is the
            # point of fusion), so the dependent depth stays 1.
            phases.append(WorkloadPhase(
                name=f"reduce_h{level}_{suffix}",
                hash_total=float(trees * parents),
                hash_depth=1.0,
                active_threads=active,
                syncs=1,
                smem_load_passes=loads,
                smem_store_passes=stores,
                global_bytes=gbytes,
            ))
        remaining -= trees
        round_index += 1

    # Compress the k roots into the FORS public key and emit the signature.
    root_hashes = max(1.0, math.ceil(k * n / 64))
    phases.append(WorkloadPhase(
        name="root_compress",
        hash_total=root_hashes,
        hash_depth=root_hashes,
        active_threads=32,
        global_bytes=float(params.fors_sig_bytes),
    ))

    workload = KernelWorkload("FORS_Sign", phases)
    launch = LaunchConfig(
        grid_blocks=messages,
        threads_per_block=fors_plan.threads_per_block,
        smem_per_block=fors_plan.smem_per_block if nodes_shared else 0,
    )
    compiled = _compile(
        "FORS_Sign", params, device, branch, overhead,
        extra_regs=fors_plan.relax_buffer_regs,
        threads_per_block=fors_plan.threads_per_block,
    )
    return KernelPlan("FORS_Sign", workload, launch, compiled, memory_plan,
                      fors_plan=fors_plan, extra_regs=fors_plan.relax_buffer_regs)


# ----------------------------------------------------------------------
# TREE_Sign
# ----------------------------------------------------------------------
def build_tree_plan(
    params: SphincsParams,
    device: DeviceSpec,
    flags: OptimizationFlags,
    branch: Branch,
    messages: int = 1024,
) -> KernelPlan:
    """TREE_Sign: all d hypertree subtrees of one message in one block.

    One thread builds one WOTS+ leaf (``wots_gen_leaf``, the register
    hot spot), then the d trees reduce level-by-level.  Both the baseline
    (Kim et al. introduced hypertree MMTP) and HERO-Sign share this
    structure; they differ in branch, memory plan and bank padding.
    """
    memory_plan = _memory_plan_for(flags)
    overhead = memory_plan.overhead_for("TREE_Sign", params.n)
    pad_period = 0
    if flags.free_bank:
        from .padding import padding_rule

        pad_period = padding_rule(params.n).pad_period

    d = params.d
    leaves = params.tree_leaves
    n = params.n
    threads = d * leaves
    if threads > device.max_threads_per_block:
        raise GpuModelError(
            f"{params.name}: TREE_Sign wants {threads} threads/block, over "
            f"the {device.max_threads_per_block} limit on {device.name}"
        )

    phases: list[WorkloadPhase] = [
        WorkloadPhase(
            name="wots_leaves",
            hash_total=float(d * leaves * params.hashes_per_wots_leaf),
            hash_depth=float(params.hashes_per_wots_leaf),
            active_threads=threads,
            syncs=1,
            smem_store_passes=d * leaves * n / 4 / 32,
            global_bytes=0.0 if memory_plan.seeds_in_constant
            else d * leaves * 2.0 * n,
        )
    ]
    # The d small subtrees reduce side by side in shared warps, so the
    # bank behaviour is the multi-tree pattern; spread its wavefronts over
    # the per-level phases proportionally to active parents.
    tree_report = count_reduction_conflicts(leaves, n, pad_period, trees=d)
    total_parents = d * (leaves - 1)
    for level in range(1, params.tree_height + 1):
        parents = leaves >> level
        share = d * parents / total_parents
        phases.append(WorkloadPhase(
            name=f"reduce_h{level}",
            hash_total=float(d * parents),
            hash_depth=1.0,
            active_threads=max(1, d * parents),
            syncs=1,
            smem_load_passes=tree_report.load_wavefronts * share,
            smem_store_passes=tree_report.store_wavefronts * share,
        ))
    phases.append(WorkloadPhase(
        name="emit_auth_paths",
        hash_total=1.0,
        hash_depth=1.0,
        active_threads=min(threads, 32 * d),
        global_bytes=float(d * params.tree_height * n),
    ))

    smem = d * leaves * n
    if pad_period:
        smem += 4 * (smem // pad_period)
    workload = KernelWorkload("TREE_Sign", phases)
    launch = LaunchConfig(
        grid_blocks=messages, threads_per_block=threads, smem_per_block=smem
    )
    compiled = _compile("TREE_Sign", params, device, branch, overhead,
                        threads_per_block=threads)
    return KernelPlan("TREE_Sign", workload, launch, compiled, memory_plan)


# ----------------------------------------------------------------------
# WOTS_Sign
# ----------------------------------------------------------------------
def build_wots_plan(
    params: SphincsParams,
    device: DeviceSpec,
    flags: OptimizationFlags,
    branch: Branch,
    messages: int = 1024,
) -> KernelPlan:
    """WOTS_Sign: the d one-time signatures, one thread per hash chain.

    Chains walk only to the message digit (w/2 steps on average after the
    PRF), making this the lightest kernel.  With more chains than the
    thread budget (192f/256f), chains iterate within threads.
    """
    memory_plan = _memory_plan_for(flags)
    overhead = memory_plan.overhead_for("WOTS_Sign", params.n)

    chains = params.d * params.wots_len
    threads = min(chains, device.max_threads_per_block)
    iterations = math.ceil(chains / threads)
    avg_steps = 1 + params.w / 2

    phases = [
        WorkloadPhase(
            name="chains",
            hash_total=chains * avg_steps,
            hash_depth=iterations * avg_steps,
            active_threads=threads,
            global_bytes=float(params.d * params.wots_sig_bytes)
            + (0.0 if memory_plan.seeds_in_constant else chains * 2.0 * params.n),
        )
    ]
    workload = KernelWorkload("WOTS_Sign", phases)
    launch = LaunchConfig(grid_blocks=messages, threads_per_block=threads)
    compiled = _compile("WOTS_Sign", params, device, branch, overhead,
                        threads_per_block=threads)
    return KernelPlan("WOTS_Sign", workload, launch, compiled, memory_plan)


# ----------------------------------------------------------------------
def build_plans(
    params: SphincsParams,
    device: DeviceSpec,
    flags: OptimizationFlags,
    branches: dict[str, Branch] | None = None,
    messages: int = 1024,
) -> dict[str, KernelPlan]:
    """Build all three kernel plans under one flag set.

    ``branches`` assigns an execution path per kernel (from
    :mod:`repro.core.branch_select`); when absent, ``flags.branch`` (or
    native) applies uniformly.
    """
    default = flags.branch or Branch.NATIVE
    branches = branches or {}
    return {
        "FORS_Sign": build_fors_plan(
            params, device, flags,
            branches.get("FORS_Sign", default), messages,
        ),
        "TREE_Sign": build_tree_plan(
            params, device, flags,
            branches.get("TREE_Sign", default), messages,
        ),
        "WOTS_Sign": build_wots_plan(
            params, device, flags,
            branches.get("WOTS_Sign", default), messages,
        ),
    }


# ----------------------------------------------------------------------
def _memory_plan_for(flags: OptimizationFlags) -> MemoryPlan:
    if flags.hybrid_memory:
        return get_memory_plan("hybrid")
    if flags.mmtp:
        return get_memory_plan("shared")
    return get_memory_plan("global")


# Extra instructions per hash per register spilled to local memory when
# __launch_bounds__ clamps the allocation below the compiler's demand.
_SPILL_INSTRUCTIONS_PER_REG = 4.0


def _launch_bounds_cap(device: DeviceSpec, threads_per_block: int) -> int:
    """Max registers/thread that still lets one block launch.

    Mirrors ``__launch_bounds__(threads_per_block)``: the register file
    divided across the block's warps at 256-register allocation granularity.
    """
    warps = math.ceil(threads_per_block / device.warp_size)
    per_warp = device.registers_per_sm // warps
    per_warp -= per_warp % 256
    return min(device.max_registers_per_thread, per_warp // device.warp_size)


def _compile(
    kernel: str,
    params: SphincsParams,
    device: DeviceSpec,
    branch: Branch,
    overhead: float,
    extra_regs: int = 0,
    threads_per_block: int | None = None,
) -> CompiledKernel:
    tuned = CompilerModel(per_hash_overhead=overhead)
    compiled = tuned.compile(kernel, params, device, branch)
    regs = compiled.regs_per_thread + extra_regs
    if threads_per_block is not None:
        cap = _launch_bounds_cap(device, threads_per_block)
        if regs > cap:
            # __launch_bounds__ forces the allocation down; the compiler
            # spills the excess to local memory (paper §III-A).
            spilled = regs - cap
            mix = compiled.mix_per_hash.merged(InstructionMix())
            mix.add(MISC_CLASS, spilled * _SPILL_INSTRUCTIONS_PER_REG)
            compiled = replace(compiled, mix_per_hash=mix)
            regs = cap
    if regs != compiled.regs_per_thread:
        compiled = replace(compiled, regs_per_thread=regs)
    return compiled
