"""Ablation: Tree Tuning's tie-break order (DESIGN.md ablation #2).

Algorithm 1 prioritizes fewest synchronization points, then utilization.
This bench compares the chosen configuration against the best
utilization-first candidate to confirm the sync-first heuristic pays.
"""

from repro.analysis import format_table
from repro.core.kernels import OptimizationFlags, build_fors_plan
from repro.core.fusion import ForsPlan
from repro.core.padding import padding_rule
from repro.core.pipeline import kernel_report
from repro.core.tree_tuning import tree_tuning_search
from repro.gpusim.compiler import Branch
from repro.params import get_params

SMEM = 48 * 1024


def _kops_for_candidate(params, cand, rtx4090, engine, relax):
    fors_plan = ForsPlan(
        params=params,
        threads_per_block=cand.t_set,
        n_tree=cand.n_tree,
        fusion_f=cand.f,
        relax=relax,
        pad=padding_rule(params.n),
        smem_bytes=cand.smem_bytes,
        sync_points=cand.sync_points,
    )
    plan = build_fors_plan(
        params, rtx4090, OptimizationFlags.full(),
        Branch.PTX, fors_plan=fors_plan,
    )
    return kernel_report(plan, engine).kops


def test_ablation_sync_priority(rtx4090, engine, emit, benchmark):
    rows = []
    for alias in ("128f", "192f"):
        params = get_params(alias)
        result = tree_tuning_search(params, SMEM)

        sync_first = result.best
        util_first = max(
            result.candidates, key=lambda c: (c.u_t, c.u_s, -c.sync_points)
        )
        kops_sync = benchmark.pedantic(
            _kops_for_candidate,
            args=(params, sync_first, rtx4090, engine, False),
            iterations=1, rounds=1,
        ) if alias == "128f" else _kops_for_candidate(
            params, sync_first, rtx4090, engine, False)
        kops_util = _kops_for_candidate(params, util_first, rtx4090, engine,
                                        False)
        rows.append([alias, "sync-first (paper)",
                     f"({sync_first.t_set},{sync_first.f})",
                     sync_first.sync_points, round(kops_sync, 1)])
        rows.append([alias, "utilization-first",
                     f"({util_first.t_set},{util_first.f})",
                     util_first.sync_points, round(kops_util, 1)])
        # The paper's heuristic should not lose to utilization-first.
        assert kops_sync >= kops_util * 0.98, f"{alias}"

    emit("ablation_sync_priority", format_table(
        ["set", "tie-break", "(T_set, F)", "sync points", "FORS KOPS"],
        rows,
        title="Ablation — Tree Tuning tie-break: fewest syncs vs highest "
              "utilization",
    ))
