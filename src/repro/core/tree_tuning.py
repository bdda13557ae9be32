"""The Auto Tree Tuning search — paper Algorithm 1, line for line.

Given the FORS parameters ``(k, log2 t, n)`` and the shared memory
available per block (``SEME_PER_BLOCK()``, static or dynamic), the search
enumerates every feasible ``(T_set, F)``:

* ``T_set`` — threads per block, a multiple of ``T_min = t`` (one thread
  per leaf of each tree in the set);
* ``N_tree = T_set / T_min`` — trees processed in parallel by one set;
* ``F`` — how many consecutive sets are *fused* into the block's shared
  memory, so one ``__syncthreads()`` covers ``F`` sets' tree levels.

Heuristics (paper §III-B.3): configurations must cover a full FORS subtree
(line 1); configurations that saturate both the 1024-thread budget and the
shared-memory budget, or fall below the thread-utilization floor ``alpha``,
are excluded (lines 18-19); ties resolve by fewest synchronization points,
then highest thread and shared-memory utilization (line 25).

With ``alpha = 0.6`` the search reproduces paper Table IV on the RTX 4090:
``(T_set=704, F=3)`` with both utilizations 0.6875 for 128f, and
``(T_set=768, F=2)`` with both utilizations 0.75 for 192f.

The *relax* mode models the Relax-FORS buffer of §III-B.4: one thread
produces two leaves into a register-resident relax buffer, halving both
the minimum threads per tree and the per-tree shared-memory footprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import TuningError
from ..params import SphincsParams

__all__ = ["TuningCandidate", "TuningResult", "tree_tuning_search"]

#: Thread budget per block (1024 on every supported device).
T_MAX = 1024
#: Thread-utilization floor ``alpha`` of line 18.
ALPHA = 0.6


@dataclass(frozen=True)
class TuningCandidate:
    """One feasible fusion configuration."""

    t_set: int          # threads per block
    f: int              # fused sets
    n_tree: int         # trees per set
    u_t: float          # thread utilization  (T_used / T_max)
    u_s: float          # shared-memory utilization (S_used / S_max)
    sync_points: float  # barriers per block (paper line 21)
    smem_bytes: int     # S_used

    @property
    def trees_in_flight(self) -> int:
        """Trees processed between consecutive barrier groups."""
        return self.n_tree * self.f

    def sort_key(self) -> tuple[float, float, float]:
        """Paper line 25: argmin over (sync, -U_T, -U_S)."""
        return (self.sync_points, -self.u_t, -self.u_s)


@dataclass(frozen=True)
class TuningResult:
    """Search outcome: the optimum plus the full candidate set, so the
    final configuration can be picked from empirical profiling among the
    near-optimal candidates (paper §III-B.3)."""

    best: TuningCandidate
    candidates: tuple[TuningCandidate, ...]
    relax: bool

    def top(self, count: int = 5) -> tuple[TuningCandidate, ...]:
        return tuple(sorted(self.candidates, key=TuningCandidate.sort_key)[:count])


def tree_tuning_search(
    params: SphincsParams,
    smem_per_block: int,
    relax: bool = False,
) -> TuningResult:
    """Run Algorithm 1 and return the optimal configuration.

    Parameters
    ----------
    params:
        Supplies ``(k, log2 t, n)``.
    smem_per_block:
        ``SEME_PER_BLOCK()`` — static (48 KB) or opt-in dynamic limit.
    relax:
        Apply the Relax-FORS halving of threads and shared memory.
    """
    k, log_t, n = params.k, params.log_t, params.n
    t = params.t
    t_min = t // 2 if relax else t                       # line 1 (relaxed)
    s_tree = (t * n) // 2 if relax else t * n            # per-tree footprint
    s_max = smem_per_block                               # line 2

    if t_min > T_MAX:
        raise TuningError(
            f"{params.name}: one FORS tree needs {t_min} threads, more than "
            f"the {T_MAX}-thread budget even in relax mode"
        )

    candidates: list[TuningCandidate] = []               # line 3
    for t_set in range(t_min, T_MAX + 1, t_min):         # line 4
        n_tree = t_set // t_min                          # line 5
        if n_tree > k:
            break
        s_set = n_tree * s_tree                          # line 6
        if s_set > s_max:                                # line 7
            continue
        f_max = min(s_max // s_set, k // n_tree)         # line 10
        for f in range(1, f_max + 1):                    # line 11
            t_used = t_set                               # line 12
            s_used = f * s_set                           # line 13
            if t_used > T_MAX or s_used > s_max:         # line 14
                continue
            u_t = t_used / T_MAX                         # line 17
            u_s = s_used / s_max
            if (u_t == 1.0 and u_s == 1.0) or u_t < ALPHA:   # line 18
                continue
            sync = log_t * math.ceil(k / n_tree) / f     # line 21
            candidates.append(TuningCandidate(           # line 22
                t_set=t_set, f=f, n_tree=n_tree,
                u_t=u_t, u_s=u_s, sync_points=sync, smem_bytes=s_used,
            ))

    if not candidates:
        raise TuningError(
            f"{params.name}: no feasible fusion configuration under "
            f"{smem_per_block} B shared memory and alpha={ALPHA}"
            + ("" if relax else " (consider relax mode)")
        )
    best = min(candidates, key=TuningCandidate.sort_key)  # line 25
    return TuningResult(best=best, candidates=tuple(candidates), relax=relax)
