"""Table VI: shared-memory bank conflicts during the Merkle reduction,
baseline (packed) vs the Eq. 2/3 padded layout.

The model replays the exact reduction access trace of one signing
operation's FORS and TREE reductions.  Absolute counts depend on Nsight's
counter scope (the paper's numbers aggregate an unknown repeat factor), so
the asserted shape is the paper's: packed layouts conflict heavily, padded
layouts are conflict-free.
"""

from repro.analysis import PAPER, format_table
from repro.core.padding import padding_rule
from repro.gpusim.memory import count_reduction_conflicts
from repro.params import get_params


def _conflicts(alias):
    params = get_params(alias)
    period = padding_rule(params.n).pad_period
    out = {}
    # FORS_Sign: k trees of t leaves; TREE_Sign: d trees of 2^(h/d) leaves.
    out["FORS_Sign"] = {
        "baseline": count_reduction_conflicts(
            params.t, params.n, 0, repeats=params.k),
        "padded": count_reduction_conflicts(
            params.t, params.n, period, repeats=params.k),
    }
    # The d hypertree subtrees reduce side by side in shared warps.
    out["TREE_Sign"] = {
        "baseline": count_reduction_conflicts(
            params.tree_leaves, params.n, 0, trees=params.d),
        "padded": count_reduction_conflicts(
            params.tree_leaves, params.n, period, trees=params.d),
    }
    return out


def test_table6_bank_conflicts(emit, benchmark):
    measured = benchmark(
        lambda: {alias: _conflicts(alias) for alias in ("128f", "192f", "256f")}
    )

    rows = []
    for alias, kernels in measured.items():
        paper = PAPER["table6_bank_conflicts"][alias]
        for kernel, reports in kernels.items():
            pb, pp = paper[kernel]["baseline"], paper[kernel]["padded"]
            base, padded = reports["baseline"], reports["padded"]
            rows.append([
                f"SPHINCS+-{alias}", kernel,
                f"{pb[0]:,}/{pb[1]:,}",
                f"{base.load_conflicts:,}/{base.store_conflicts:,}",
                f"{pp[0]}/{pp[1]}",
                f"{padded.load_conflicts}/{padded.store_conflicts}",
            ])
    emit("table6_bank_conflicts", format_table(
        ["parameter set", "kernel", "paper packed (ld/st)",
         "model packed (ld/st)", "paper padded", "model padded"],
        rows,
        title="Table VI — reduction bank conflicts, packed vs Eq. 2/3 padding",
    ))

    for alias, kernels in measured.items():
        for kernel, reports in kernels.items():
            assert reports["baseline"].total_conflicts > 0, f"{alias}/{kernel}"
            assert reports["padded"].total_conflicts == 0, f"{alias}/{kernel}"
