"""Multi-batch signature generation: streams versus task graphs.

This module drives paper Figure 12: a workload of many messages is split
into batches; each batch runs the three kernels with one of four execution
strategies:

* ``baseline``       — TCAS-SPHINCSp: one stream, host-synchronized,
  one FORS launch, one TREE launch per hypertree layer, one WOTS launch.
* ``baseline-graph`` — the same DAG packaged into a task graph.
* ``streams``        — HERO-Sign without graphs: FORS_Sign and TREE_Sign
  on concurrent streams, WOTS_Sign after both (paper §III-F: only
  WOTS_Sign depends on the roots of the other two).
* ``graph``          — HERO-Sign's block-based CUDA-Graph construction
  (paper Figure 10), one graph per batch on a non-blocking stream.

The reported *kernel launch latency* counts host-side launch overheads and
synchronization gaps (what graphs eliminate), not execution time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import GpuModelError
from ..gpusim.calibration import DEFAULT_CALIBRATION
from ..gpusim.device import DeviceSpec
from ..gpusim.engine import TimingEngine
from ..gpusim.graph import TaskGraph
from ..gpusim.kernel import LaunchConfig
from ..gpusim.stream import Timeline, TimelineResult
from ..params import SphincsParams
from .baseline import baseline_plans
from .kernels import KernelPlan
from .pipeline import hero_plans

__all__ = ["BatchResult", "run_batch", "end_to_end_kops", "MODES"]

MODES = ("baseline", "baseline-graph", "streams", "graph")


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one multi-batch signing run."""

    mode: str
    messages: int
    batches: int
    makespan_s: float
    launch_latency_us: float
    gpu_idle_s: float
    timeline: TimelineResult

    @property
    def kops(self) -> float:
        return self.messages / self.makespan_s / 1e3


@dataclass(frozen=True)
class _BatchKernel:
    """A kernel re-timed for the per-batch grid."""

    name: str
    work_s: float
    demand: float


def _batch_kernels(
    plans: dict[str, KernelPlan],
    engine: TimingEngine,
    messages: int,
    batches: int,
) -> dict[str, _BatchKernel]:
    """Per-batch kernel work and machine demand.

    Kernels are timed at the full workload's grid (batches are designed to
    run concurrently, so per-SM warp supply reflects the whole workload,
    not one batch) and the work is split evenly across batches.  ``demand``
    is the fraction of the machine one batch's grid can occupy alone — the
    quantity the timeline's water-filling shares between overlapping
    kernels.
    """
    batch_messages = messages // batches
    out: dict[str, _BatchKernel] = {}
    for name, plan in plans.items():
        full = engine.time_kernel(
            plan.compiled, plan.workload,
            LaunchConfig(messages, plan.launch.threads_per_block,
                         plan.launch.smem_per_block),
        )
        alone = engine.time_kernel(
            plan.compiled, plan.workload,
            LaunchConfig(batch_messages, plan.launch.threads_per_block,
                         plan.launch.smem_per_block),
        )
        # Machine-seconds conservation: one batch is 1/batches of the full
        # workload's machine time; running alone it stretches to
        # ``alone.time_s`` wall seconds, so it occupies this fraction of
        # the machine — the share the water-filling hands back when other
        # batches overlap it.  Concurrent batches therefore approach the
        # full-grid rate but can never exceed it.
        machine_s = full.time_s / batches
        demand = min(1.0, max(machine_s / alone.time_s, 1e-6))
        out[name] = _BatchKernel(
            name=name, work_s=alone.time_s, demand=demand
        )
    return out


def run_batch(
    params: SphincsParams,
    device: DeviceSpec,
    mode: str,
    messages: int = 1024,
    batches: int = 8,
    engine: TimingEngine | None = None,
) -> BatchResult:
    """Simulate a multi-batch signing workload under one strategy."""
    if mode not in MODES:
        raise GpuModelError(f"unknown batch mode {mode!r}; known: {MODES}")
    if batches < 1:
        raise GpuModelError(f"batches must be >= 1, got {batches}")
    if messages % batches:
        raise GpuModelError(
            f"{messages} messages do not divide into {batches} batches"
        )
    calibration = DEFAULT_CALIBRATION
    engine = engine or TimingEngine(calibration)

    # TCAS-SPHINCSp signs the whole workload per synchronized kernel
    # sequence (no batch pipelining), so the baseline modes run one batch
    # at the full grid; HERO-Sign's block-based strategy spreads batches
    # over concurrent non-blocking streams/graphs (paper Figure 10).
    effective_batches = 1 if mode.startswith("baseline") else batches

    if mode.startswith("baseline"):
        plans = baseline_plans(params, device, messages=messages)
    else:
        plans = hero_plans(params, device, engine, messages=messages)
    kernels = _batch_kernels(plans, engine, messages, effective_batches)

    timeline = Timeline(device, calibration)
    gap = calibration.host_sync_gap_us * 1e-6

    if mode == "baseline":
        stream = timeline.stream("s0")
        timeline.launch(stream, "FORS_Sign",
                        kernels["FORS_Sign"].work_s,
                        demand=kernels["FORS_Sign"].demand,
                        start_after_s=gap)
        tree = kernels["TREE_Sign"]
        for layer in range(params.d):
            timeline.launch(stream, f"TREE_Sign.L{layer}",
                            tree.work_s / params.d,
                            demand=tree.demand, start_after_s=gap)
        timeline.launch(stream, "WOTS_Sign",
                        kernels["WOTS_Sign"].work_s,
                        demand=kernels["WOTS_Sign"].demand,
                        start_after_s=gap)
    elif mode == "baseline-graph":
        graph = TaskGraph("baseline")
        prev = graph.add_kernel("FORS_Sign", kernels["FORS_Sign"].work_s,
                                kernels["FORS_Sign"].demand)
        tree = kernels["TREE_Sign"]
        for layer in range(params.d):
            prev = graph.add_kernel(f"TREE_Sign.L{layer}",
                                    tree.work_s / params.d,
                                    tree.demand, deps=(prev,))
        graph.add_kernel("WOTS_Sign", kernels["WOTS_Sign"].work_s,
                         kernels["WOTS_Sign"].demand, deps=(prev,))
        exe = graph.instantiate()
        exe.launch(timeline, calibration)
    elif mode == "streams":
        # One non-blocking stream pair per batch: all batches overlap.
        for batch in range(batches):
            fors_stream = timeline.stream(f"fors{batch}")
            tree_stream = timeline.stream(f"tree{batch}")
            fors = timeline.launch(fors_stream, "FORS_Sign",
                                   kernels["FORS_Sign"].work_s,
                                   demand=kernels["FORS_Sign"].demand)
            tree = timeline.launch(tree_stream, "TREE_Sign",
                                   kernels["TREE_Sign"].work_s,
                                   demand=kernels["TREE_Sign"].demand)
            timeline.launch(fors_stream, "WOTS_Sign",
                            kernels["WOTS_Sign"].work_s,
                            demand=kernels["WOTS_Sign"].demand,
                            deps=(fors, tree),
                            start_after_s=calibration.event_sync_us * 1e-6)
    else:  # graph
        graph = TaskGraph("herosign")
        fors = graph.add_kernel("FORS_Sign", kernels["FORS_Sign"].work_s,
                                kernels["FORS_Sign"].demand)
        tree = graph.add_kernel("TREE_Sign", kernels["TREE_Sign"].work_s,
                                kernels["TREE_Sign"].demand)
        graph.add_kernel("WOTS_Sign", kernels["WOTS_Sign"].work_s,
                         kernels["WOTS_Sign"].demand, deps=(fors, tree))
        exe = graph.instantiate()
        for _ in range(batches):
            exe.launch(timeline, calibration)

    result = timeline.run()
    gaps = sum(rec.start_after_s for rec in result.records)
    return BatchResult(
        mode=mode,
        messages=messages,
        batches=effective_batches,
        makespan_s=result.makespan_s,
        launch_latency_us=(result.launch_overhead_s + gaps) * 1e6,
        gpu_idle_s=result.gpu_idle_s,
        timeline=result,
    )


def end_to_end_kops(
    params: SphincsParams,
    device: DeviceSpec,
    messages: int = 1024,
    batches: int = 8,
    engine: TimingEngine | None = None,
) -> dict[str, BatchResult]:
    """All four strategies of paper Figure 12 on one workload."""
    return {
        mode: run_batch(params, device, mode, messages, batches, engine)
        for mode in MODES
    }
