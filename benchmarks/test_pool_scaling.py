"""Worker-pool scaling — the multi-core execution tier's perf baseline.

Not a paper table: for pools of 1 / 2 / 4 workers, a fixed multi-tenant
workload (several keys, several batches each, signed one batch after
another — each batch's plan spreads over every worker) is signed and the
achieved sig/s plus per-batch p95 latency are recorded as
``pool_scaling.json`` next to the other baselines.  On a multi-core box
throughput should scale with the pool size up to the core count — that
is the whole argument of the worker tier — while on a single core the
configs tie and the record simply pins that machine's shape.

Byte-identity of the pooled path is asserted against the scalar
reference here too, so a perf baseline can never be produced by a pool
that signs wrong.  Set ``REPRO_SMOKE=1`` for the tiny CI configuration.
"""

import json
import os

from conftest import SMOKE, json_baseline_dir

from repro.runtime import WorkerPool, get_backend
from repro.service import derive_seed, percentile
from repro.sphincs.signer import Sphincs

WORKER_CONFIGS = (1, 2, 4)
TENANTS = 2 if SMOKE else 4
BATCHES_PER_TENANT = 2
BATCH_SIZE = 2 if SMOKE else 4
PARAMS = "128f"


def _workload():
    """(tenant label, keys, messages) per batch — identical every run."""
    scheme = Sphincs(PARAMS, deterministic=True)
    work = []
    for tenant in range(TENANTS):
        keys = scheme.keygen(seed=derive_seed(f"pool-bench-{tenant}", 16))
        for batch in range(BATCHES_PER_TENANT):
            messages = [f"t{tenant}/b{batch}/m{i}".encode()
                        for i in range(BATCH_SIZE)]
            work.append((f"tenant-{tenant}", keys, messages))
    return work


def test_pool_scaling_1_2_4_workers(emit):
    import time

    work = _workload()
    scalar = get_backend("scalar", PARAMS, deterministic=True)
    expected = {index: scalar.sign_batch(messages, keys).signatures
                for index, (_, keys, messages) in enumerate(work)}

    configs = {}
    for workers in WORKER_CONFIGS:
        with WorkerPool(workers=workers) as pool:
            backend = get_backend("pooled", PARAMS, deterministic=True,
                                  pool=pool)
            # Warm every tenant key's pinned layers first, so the
            # measurement sees steady state, not cold caches.
            for _, keys, _ in work:
                backend.prewarm_key(keys)
            pool.ping(timeout=10.0)

            started = time.perf_counter()
            batch_ms = []
            signed = 0
            for index, (_, keys, messages) in enumerate(work):
                result = backend.sign_batch(messages, keys)
                batch_ms.append(result.elapsed_s * 1000.0)
                signed += result.count
                assert result.signatures == expected[index], (
                    f"pooled signatures diverged from the scalar "
                    f"reference at {workers} workers, batch {index}"
                )
            elapsed = time.perf_counter() - started
        configs[str(workers)] = {
            "sigs_per_s": round(signed / elapsed, 4),
            "elapsed_s": round(elapsed, 4),
            "p95_batch_ms": round(percentile(batch_ms, 95), 3),
            "signed": signed,
        }

    base = configs[str(WORKER_CONFIGS[0])]["sigs_per_s"]
    scaling = {
        f"{workers}w_vs_1w": round(
            configs[str(workers)]["sigs_per_s"] / base, 4)
        for workers in WORKER_CONFIGS[1:]
    }

    record = {
        "params": f"SPHINCS+-{PARAMS}",
        "smoke": SMOKE,
        "inner_backend": "vectorized",
        "cpu_count": os.cpu_count(),
        "tenants": TENANTS,
        "batches": len(work),
        "batch_size": BATCH_SIZE,
        "configs": configs,
        "scaling": scaling,
    }
    (json_baseline_dir() / "pool_scaling.json").write_text(
        json.dumps(record, indent=2) + "\n")

    # The hard scaling claim only holds where the cores exist; a 1-core
    # CI box legitimately ties.  The perf gate compares like-for-like
    # against the pinned baseline, so a real regression still fails.
    if (os.cpu_count() or 1) >= 4:
        assert scaling["4w_vs_1w"] >= 1.3, (
            f"4-worker pool should beat 1 worker on a "
            f"{os.cpu_count()}-core box, got {scaling['4w_vs_1w']:.2f}x"
        )

    from repro.analysis import format_table

    emit("pool_scaling", format_table(
        ["workers", "signed", "wall s", "sig/s", "p95 batch ms", "vs 1w"],
        [[workers, configs[str(workers)]["signed"],
          configs[str(workers)]["elapsed_s"],
          configs[str(workers)]["sigs_per_s"],
          configs[str(workers)]["p95_batch_ms"],
          f"{configs[str(workers)]['sigs_per_s'] / base:.2f}x"]
         for workers in WORKER_CONFIGS],
        title=(f"Worker-pool scaling, {len(work)} batches x "
               f"{BATCH_SIZE} msgs, {TENANTS} tenants, "
               f"{os.cpu_count()} CPU core(s)"),
    ))
