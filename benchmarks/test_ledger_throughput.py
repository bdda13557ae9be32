"""Ledger pipeline throughput — the transparency-log tier's baseline.

Not a paper table: a fixed stream of events is appended through a real
:class:`~repro.ledger.LedgerService` (batched ``sign_many`` seals over a
deterministic 128f tenant), then every acknowledged receipt's inclusion
proof is generated and verified, and finally the differential audit
replays the on-disk bytes.  Three rates are recorded as
``ledger_throughput.json`` next to the other baselines:

* ``append.appends_per_s`` — acknowledged appends per second, the write
  path including Merkle sealing, checkpoint signing, and fsync.
* ``proofs.proofs_per_s`` — inclusion proofs generated *and* verified
  per second, the read path a monitor exercises.
* ``audit.entries_per_s`` — audited entries per second for the full
  replay (signature verification plus deterministic byte-compare).

All three are wall-clock rates, so worker processes are inside them: the
log signs through ``LocalClient``, which runs the signing plan on one
pinned worker per allowed CPU from two up and in-process on one.  The
record says which (``signing_workers``; 0 is in-process) — a rate is
only comparable with a baseline of the same executor, and the pinned
JSONs were measured in-process.  The proofs all cite the newest
checkpoint, so its signature is walked once and recalled after
(:class:`~repro.runtime.fastops.FastVerifier`'s memo); each entry
signature is walked.

The run also asserts the pipeline invariant outright: every receipt must
verify and the audit must come back clean — a throughput number measured
over unverifiable entries would be meaningless.  Set ``REPRO_SMOKE=1``
for the tiny CI configuration.
"""

import asyncio
import json
import os
import time

from conftest import SMOKE, json_baseline_dir

from repro.api import LocalClient, verify_inclusion
from repro.ledger import LedgerService, run_audit
from repro.params import get_params
from repro.service import Keystore, derive_seed

PARAMS = "128f"
TENANT = "ledger-bench"
ENTRIES = 4 if SMOKE else 12
BATCH_SIZE = 2 if SMOKE else 4


def _keystore() -> Keystore:
    store = Keystore()
    store.add_tenant(TENANT, PARAMS)
    store.generate_key(TENANT, "default",
                       seed=derive_seed(f"{TENANT}/default",
                                        get_params(PARAMS).n))
    return store


async def _append_phase(ledger: LedgerService) -> tuple[list, dict]:
    events = [f"ledger-bench event {i}".encode() for i in range(ENTRIES)]
    started = time.perf_counter()
    receipts = await ledger.append_many(events)
    elapsed = time.perf_counter() - started
    assert len(receipts) == ENTRIES
    return receipts, {
        "entries": ENTRIES,
        "batch_size": BATCH_SIZE,
        "elapsed_s": round(elapsed, 4),
        "appends_per_s": round(ENTRIES / elapsed, 4),
    }


def _proof_phase(ledger: LedgerService, client: LocalClient,
                 receipts: list) -> dict:
    size = receipts[-1].checkpoint.size
    started = time.perf_counter()
    for receipt in receipts:
        proof = ledger.prove(receipt.index, size)
        assert verify_inclusion(client, proof), (
            f"receipt {receipt.index} failed inclusion — invariant broken"
        )
    elapsed = time.perf_counter() - started
    return {
        "verified": len(receipts),
        "elapsed_s": round(elapsed, 4),
        "proofs_per_s": round(len(receipts) / elapsed, 4),
    }


def _audit_phase(root, keystore: Keystore) -> dict:
    started = time.perf_counter()
    report = run_audit(root, keystore, tenant=TENANT, deterministic=True)
    elapsed = time.perf_counter() - started
    assert report["ok"], report["problems"]
    assert report["entries_verified"] == ENTRIES
    assert report["signatures_matched"] == report["checkpoints"]
    return {
        "entries_verified": report["entries_verified"],
        "checkpoints_verified": report["checkpoints_verified"],
        "elapsed_s": round(elapsed, 4),
        "entries_per_s": round(report["entries_verified"] / elapsed, 4),
    }


def test_ledger_throughput(emit, tmp_path):
    keystore = _keystore()
    client = LocalClient(keystore, backend="vectorized",
                         deterministic=True)
    root = tmp_path / "log"

    async def scenario():
        ledger = LedgerService(client, tenant=TENANT, root=root,
                               batch_size=BATCH_SIZE, max_wait_ms=10.0)
        receipts, append = await _append_phase(ledger)
        await ledger.close()
        return ledger, receipts, append

    try:
        workers = client.info().workers
        ledger, receipts, append = asyncio.run(scenario())
        proofs = _proof_phase(ledger, client, receipts)
    finally:
        client.close()
    audit = _audit_phase(root, keystore)

    record = {
        "params": f"SPHINCS+-{PARAMS}",
        "smoke": SMOKE,
        "cpu_count": os.cpu_count(),
        "signing_workers": workers,
        "append": append,
        "proofs": proofs,
        "audit": audit,
    }
    (json_baseline_dir() / "ledger_throughput.json").write_text(
        json.dumps(record, indent=2) + "\n")

    from repro.analysis import format_table

    emit("ledger_throughput", format_table(
        ["phase", "items", "wall s", "items/s"],
        [["append", append["entries"], append["elapsed_s"],
          append["appends_per_s"]],
         ["prove+verify", proofs["verified"], proofs["elapsed_s"],
          proofs["proofs_per_s"]],
         ["audit replay", audit["entries_verified"], audit["elapsed_s"],
          audit["entries_per_s"]]],
        title=(f"Ledger pipeline, {ENTRIES} entries sealed in batches of "
               f"{BATCH_SIZE}, {os.cpu_count()} CPU core(s), signing "
               + (f"on {workers} worker processes" if workers
                  else "in-process")),
    ))
