"""Scalar vs vectorized backend throughput — the runtime's perf baseline.

Not a paper table: honest wall-clock numbers for the two CPU backends on
the same 64-message batch, recorded as JSON next to the other results so
future PRs (sharding, async, new devices) have a baseline to beat.

Two acceptance bars:

* the vectorized backend must be >= 1.5x scalar sig/s cold (measured
  ~3x: address templates + shared midstates + the layer cache's
  first-pass subtree reuse), and
* the *replay* pass — the same batch signed again on the same backend,
  so every signature comes out of the per-key replay memo — must be
  >= 2x the cold vectorized pass (the memo-works gate; measured three
  orders of magnitude higher, and no statement about fresh traffic).
"""

import json

from conftest import SMOKE, json_baseline_dir

from repro.runtime import get_backend

BATCH = 16 if SMOKE else 64
SEED = bytes(48)


def test_scalar_vs_vectorized_64_batch(emit):
    messages = [f"throughput message {i}".encode() for i in range(BATCH)]

    scalar = get_backend("scalar", "128f", deterministic=True)
    vectorized = get_backend("vectorized", "128f", deterministic=True)
    keys = scalar.keygen(seed=SEED)

    result_scalar = scalar.sign_batch(messages, keys)
    result_vector = vectorized.sign_batch(messages, keys)
    # Same instance, same batch: in deterministic mode the second pass
    # is answered from the replay memo — what an idempotent retry costs,
    # not what a new message does.
    result_replay = vectorized.sign_batch(messages, keys)

    # Same bytes, different speed — the whole point of the backend split.
    assert result_scalar.signatures == result_vector.signatures
    assert result_scalar.signatures == result_replay.signatures

    ratio = result_vector.sigs_per_s / result_scalar.sigs_per_s
    assert ratio >= 1.5, (
        f"vectorized backend must be >= 1.5x scalar on a {BATCH}-message "
        f"batch, measured {ratio:.2f}x"
    )
    replay_ratio = result_replay.sigs_per_s / result_vector.sigs_per_s
    assert replay_ratio >= 2.0, (
        f"replayed pass must be >= 2x the cold vectorized pass "
        f"on a {BATCH}-message batch, measured {replay_ratio:.2f}x"
    )

    record = {
        "params": "SPHINCS+-128f",
        "smoke": SMOKE,
        "batch": BATCH,
        "scalar": {
            "elapsed_s": round(result_scalar.elapsed_s, 4),
            "sigs_per_s": round(result_scalar.sigs_per_s, 4),
            "stage_seconds": {k: round(v, 4) for k, v
                              in result_scalar.stage_seconds.items()},
        },
        "vectorized": {
            "elapsed_s": round(result_vector.elapsed_s, 4),
            "sigs_per_s": round(result_vector.sigs_per_s, 4),
            "stage_seconds": {k: round(v, 4) for k, v
                              in result_vector.stage_seconds.items()},
            "subtree_cache": result_vector.cache_stats,
        },
        "replay": {
            "elapsed_s": round(result_replay.elapsed_s, 4),
            "sigs_per_s": round(result_replay.sigs_per_s, 4),
            "speedup_vs_cold": round(replay_ratio, 4),
            "cache": result_replay.cache_stats,
        },
        "speedup": round(ratio, 4),
    }
    (json_baseline_dir() / "backend_throughput.json").write_text(
        json.dumps(record, indent=2) + "\n")

    from repro.analysis import format_table

    emit("backend_throughput", format_table(
        ["backend", "batch", "wall s", "sig/s", "speedup"],
        [
            ["scalar", BATCH, round(result_scalar.elapsed_s, 2),
             round(result_scalar.sigs_per_s, 2), "1.00x"],
            ["vectorized (cold)", BATCH, round(result_vector.elapsed_s, 2),
             round(result_vector.sigs_per_s, 2), f"{ratio:.2f}x"],
            ["vectorized (replay)", BATCH, round(result_replay.elapsed_s, 4),
             round(result_replay.sigs_per_s),
             f"{replay_ratio * ratio:,.0f}x"],
        ],
        title=f"Backend throughput, {BATCH}-message batch, SPHINCS+-128f",
    ))
