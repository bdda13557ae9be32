#!/usr/bin/env python3
"""A live batch signing service — the paper's workload, served async.

PR 1's runtime signs batches fast; this example fronts it with the
``repro.service`` tier the way a real deployment would: two tenants with
their own named keys and parameter sets share one asyncio signing
service, traffic arrives as an on/off *bursty* stream (the worst case
for naive batching), and the batcher signs one batch at a time,
earliest deadline first: a burst that lands in one loop turn rides one
batch, and what arrives while it signs piles up behind it.

What to watch in the output:

* The batch-size histogram — a burst fills whole batches.
* p50 vs p99 total latency — the batching delay the paper trades
  against throughput, measured per request.
* The wallet tenant's lone low-latency request — a batch of one,
  dispatched the moment it arrives instead of stranding behind the
  target batch size.
* With ``--workers N``, the per-worker pool table — every batch's
  signing plan (one fused run of layers per message, cut into pieces
  when the batch is small) spreads over all N pinned workers, so even
  a batch of one uses every core.

The client side is the unified ``repro.api`` facade: an ``AsyncClient``
negotiates protocol v2 (``hello`` — see the printed capability line),
signs the burst with pipelined typed calls, amortizes framing with one
``sign-many`` frame, and round-trips served ``verify`` — the same four
methods would work unchanged over ``api.connect("local")`` or
``api.connect("pooled")``.

Usage: python examples/batch_signing_service.py [messages] [--workers N]
"""

import asyncio

from repro.api import AsyncClient
from repro.service import (Keystore, LoadGenerator, SigningServer,
                           SigningService, bursty_trace, derive_seed,
                           render_snapshot)
from repro.params import get_params

TENANTS = {
    "wallet": "128f",     # latency-sensitive payments traffic
    "firmware": "128s",   # small signatures for constrained devices
}


def build_keystore() -> Keystore:
    keystore = Keystore()  # in-memory; pass a path to persist
    for tenant, params in TENANTS.items():
        keystore.add_tenant(tenant, params)
        keystore.generate_key(
            tenant, "default",
            seed=derive_seed(f"{tenant}/default", get_params(params).n))
    return keystore


async def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("messages", type=int, nargs="?", default=12)
    parser.add_argument("--workers", type=int, default=0,
                        help="size of the multi-process worker pool "
                             "(0 = sign in-process)")
    args = parser.parse_args()
    workers = args.workers
    count = args.messages

    service = SigningService(
        build_keystore(),
        target_batch_size=4,    # the most one batch signs
        max_wait_s=0.08,        # default budget: orders queues, FIFO here
        max_pending=64,
        deterministic=True,
        workers=workers,        # >0: sign on a multi-process worker pool
    )
    server = SigningServer(service, port=0)
    await server.start()
    pool_note = (f", {workers}-process worker pool" if workers else "")
    print(f"signing service on 127.0.0.1:{server.port} — "
          f"tenants {dict(TENANTS)}{pool_note}")
    client = await AsyncClient.connect(port=server.port)
    info = client.info()
    print(f"negotiated protocol v{info.protocol_version} with "
          f"{info.server}: verbs {', '.join(info.verbs)}; "
          f"max_batch {info.max_batch}\n")

    try:
        # 1. The wallet tenant's bursty stream, over TCP — typed calls
        #    through the facade, pipelined on one socket.
        async def signer(message: bytes):
            return await client.sign("wallet", message)

        offsets = bursty_trace(count, rate=40.0, burst=4, seed=2)
        generator = LoadGenerator(
            signer, message_factory=lambda i: f"payment #{i}".encode())
        report = await generator.run(offsets, trace="bursty")
        print(report.table())
        print()

        # 2. A settlement batch in one sign-many frame: base64/framing
        #    overhead amortized across the whole batch server-side.
        settlements = [f"settlement #{i}".encode() for i in range(4)]
        results = await client.sign_many("wallet", settlements)
        print(f"sign-many: {len(results)} settlement signatures in one "
              f"frame (batch sizes {[r.batch_size for r in results]})")

        # 3. One lone firmware request — 128s signing is seconds-slow,
        #    but the deadline (not the batch target) controls its wait —
        #    then served verification over the same connection: the v2
        #    verb the old protocol never offered.
        firmware = await client.sign("firmware", b"firmware image digest",
                                     deadline_ms=40.0)
        verdict = await client.verify("firmware", b"firmware image digest",
                                      firmware.signature)
        tampered = await client.verify("firmware", b"firmware image DIGEST",
                                       firmware.signature)
        print(f"firmware/{firmware.params}: batch of "
              f"{firmware.batch_size}, waited {firmware.wait_ms:.0f} ms "
              f"in queue, {len(firmware.signature):,} B signature, "
              f"served verify={verdict.valid} "
              f"(tampered={tampered.valid})\n")

        # 4. The server's own view, as the stats verb reports it.
        print(render_snapshot(await client.stats(),
                              title="Server telemetry (stats verb)"))
    finally:
        await client.close()
        await server.stop()


if __name__ == "__main__":
    asyncio.run(main())
