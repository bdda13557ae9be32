"""Ablation: Relax-FORS on/off for SPHINCS+-256f (DESIGN.md ablation #1).

The paper proposes Relax-FORS because standard tuning at 256f fits only
two trees with F=1.  This bench quantifies what the relax buffer buys.
"""

from repro.analysis import format_table
from repro.core.fusion import plan_fors
from repro.core.kernels import OptimizationFlags, build_fors_plan
from repro.core.pipeline import kernel_report
from repro.gpusim.compiler import Branch
from repro.params import get_params

SMEM = 48 * 1024


def _fors_kops(rtx4090, engine, relax):
    params = get_params("256f")
    fors_plan = plan_fors(
        params, SMEM, force_relax=relax,
        hard_limit=rtx4090.shared_mem_per_block_optin,
    )
    plan = build_fors_plan(
        params, rtx4090, OptimizationFlags.full(),
        Branch.PTX, fors_plan=fors_plan,
    )
    return kernel_report(plan, engine), fors_plan


def test_ablation_relax_fors(rtx4090, engine, emit, benchmark):
    (with_relax, plan_on), (without, plan_off) = benchmark(
        lambda: (_fors_kops(rtx4090, engine, True),
                 _fors_kops(rtx4090, engine, False))
    )

    emit("ablation_relax_fors", format_table(
        ["config", "KOPS", "trees in flight", "F", "sync points",
         "smem KB", "warp occ %"],
        [
            ["Relax-FORS", round(with_relax.kops, 1),
             plan_on.trees_in_flight, plan_on.fusion_f,
             plan_on.sync_points, round(plan_on.smem_per_block / 1024, 1),
             round(with_relax.profile.warp_occupancy_pct, 1)],
            ["standard", round(without.kops, 1),
             plan_off.trees_in_flight, plan_off.fusion_f,
             plan_off.sync_points, round(plan_off.smem_per_block / 1024, 1),
             round(without.profile.warp_occupancy_pct, 1)],
        ],
        title="Ablation — Relax-FORS vs standard fusion, FORS_Sign 256f",
    ))

    # Relax-FORS must help (the paper's +FS step at 256f is 1.38x).
    assert with_relax.kops > without.kops
    assert plan_on.sync_points < plan_off.sync_points
    assert plan_on.trees_in_flight > plan_off.trees_in_flight
