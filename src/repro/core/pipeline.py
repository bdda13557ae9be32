"""Kernel throughput reports and the optimization ladder.

* :func:`kernel_report` — one kernel's KOPS and Nsight-style metrics
  (a row of paper Table VIII).
* :func:`kernel_comparison` — baseline vs HERO-Sign for all three kernels
  (the whole of Table VIII).
* :func:`optimization_ladder` — the cumulative step sequence of paper
  Figure 11: Baseline -> MMTP -> +FS -> +PTX -> +HybridME -> +FreeBank,
  evaluated on ``FORS_Sign``.

Throughput is reported in KOPS (kilo signature-component operations per
second): ``messages / kernel_time / 1e3``, matching the paper's metric.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpusim.compiler import Branch
from ..gpusim.device import DeviceSpec
from ..gpusim.engine import TimingEngine
from ..gpusim.profiler import KernelProfile, profile_launch
from ..params import SphincsParams
from .baseline import baseline_plans
from .branch_select import select_branches
from .kernels import KernelPlan, OptimizationFlags, build_plans

__all__ = [
    "KernelReport",
    "StepResult",
    "kernel_report",
    "hero_plans",
    "kernel_comparison",
    "optimization_ladder",
    "LADDER_STEPS",
]


@dataclass(frozen=True)
class KernelReport:
    """Throughput and profile for one kernel under one configuration."""

    kernel: str
    kops: float
    time_ms: float
    profile: KernelProfile


@dataclass(frozen=True)
class StepResult:
    """One rung of the Figure 11 ladder."""

    name: str
    kops: float
    step_speedup: float
    cumulative_speedup: float


def kernel_report(plan: KernelPlan, engine: TimingEngine) -> KernelReport:
    """Time one kernel plan and package the Table VIII row."""
    profile = profile_launch(engine, plan.compiled, plan.workload, plan.launch)
    kops = plan.launch.grid_blocks / profile.timing.time_s / 1e3
    return KernelReport(
        kernel=plan.kernel, kops=kops, time_ms=profile.time_ms, profile=profile
    )


def hero_plans(
    params: SphincsParams,
    device: DeviceSpec,
    engine: TimingEngine,
    messages: int = 1024,
    flags: OptimizationFlags | None = None,
) -> dict[str, KernelPlan]:
    """Fully-optimized HERO-Sign plans with profiling-driven branches."""
    flags = flags or OptimizationFlags.full()
    if flags.branch is not None:
        return build_plans(params, device, flags, messages=messages)
    native = build_plans(
        params, device, flags,
        branches={k: Branch.NATIVE for k in ("FORS_Sign", "TREE_Sign", "WOTS_Sign")},
        messages=messages,
    )
    choices = select_branches(native, engine)
    return {
        name: plan.with_branch(choices[name].winner)
        for name, plan in native.items()
    }


def kernel_comparison(
    params: SphincsParams,
    device: DeviceSpec,
    engine: TimingEngine | None = None,
) -> dict[str, tuple[KernelReport, KernelReport]]:
    """Per-kernel (baseline, HERO-Sign) reports — paper Table VIII."""
    engine = engine or TimingEngine()
    base = baseline_plans(params, device)
    hero = hero_plans(params, device, engine)
    return {
        name: (
            kernel_report(base[name], engine),
            kernel_report(hero[name], engine),
        )
        for name in base
    }


# The Figure 11 ladder: cumulative flag sets, in paper order.
LADDER_STEPS: tuple[tuple[str, OptimizationFlags], ...] = (
    ("Baseline", OptimizationFlags.baseline()),
    ("MMTP", OptimizationFlags(
        mmtp=True, fusion=False, branch=Branch.NATIVE,
        hybrid_memory=False, free_bank=False)),
    ("+FS", OptimizationFlags(
        mmtp=True, fusion=True, branch=Branch.NATIVE,
        hybrid_memory=False, free_bank=False)),
    ("+PTX", OptimizationFlags(
        mmtp=True, fusion=True, branch=None,
        hybrid_memory=False, free_bank=False)),
    ("+HybridME", OptimizationFlags(
        mmtp=True, fusion=True, branch=None,
        hybrid_memory=True, free_bank=False)),
    ("+FreeBank", OptimizationFlags(
        mmtp=True, fusion=True, branch=None,
        hybrid_memory=True, free_bank=True)),
)


def optimization_ladder(
    params: SphincsParams,
    device: DeviceSpec,
    engine: TimingEngine | None = None,
) -> list[StepResult]:
    """Evaluate the cumulative optimization steps (paper Figure 11) on
    ``FORS_Sign``."""
    engine = engine or TimingEngine()
    results: list[StepResult] = []
    previous_kops = None
    baseline_kops = None
    for name, flags in LADDER_STEPS:
        plans = hero_plans(params, device, engine, flags=flags)
        report = kernel_report(plans["FORS_Sign"], engine)
        if baseline_kops is None:
            baseline_kops = report.kops
            previous_kops = report.kops
        results.append(StepResult(
            name=name,
            kops=report.kops,
            step_speedup=report.kops / previous_kops,
            cumulative_speedup=report.kops / baseline_kops,
        ))
        previous_kops = report.kops
    return results
