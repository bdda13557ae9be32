#!/usr/bin/env python3
"""The signed transparency-log pipeline, end to end over the wire.

PR 1's runtime signs batches; the service tier serves them; this example
stacks the ledger on top the way a deployment would: a
:class:`~repro.ledger.LedgerServer` hosts both the signing verbs and the
``log-*`` verbs on one port, a wire client appends a bursty stream of
events, and everything the server acknowledges is then *distrusted* and
re-checked from primitives — inclusion proofs, a consistency proof
between two sealed tree heads, and finally the differential audit
replaying the raw on-disk bytes.

What to watch in the output:

* Receipts batch under checkpoints — a burst of appends seals as one
  Merkle batch with one signed tree head, not one signature per event.
* Client-side verification trusts only the tenant key: the inclusion
  proof from ``log-proof`` is recomputed locally and the checkpoint
  signature checked through a *separate* verifier client.
* The consistency proof shows the old tree head is a prefix of the new
  one — the log extended, it did not rewrite history.
* The audit digest at the end is the same replay ``repro audit`` and the
  conformance oracle's ``ledger:audit`` path run.

Usage: python examples/ledger_pipeline.py [events] [--batch-size N]
"""

import argparse
import asyncio
import tempfile
from itertools import groupby
from pathlib import Path

from repro.api import LocalClient, verify_inclusion
from repro.ledger import (InclusionProof, LedgerServer, LedgerService,
                          run_audit, verify_consistency_path)
from repro.obs.metrics import MetricsRegistry
from repro.params import get_params
from repro.service import (Keystore, ServiceClient, SigningService,
                           bursty_trace, derive_seed)

TENANT = "ledger"
PARAMS = "128f"


def build_keystore() -> Keystore:
    keystore = Keystore()
    keystore.add_tenant(TENANT, PARAMS)
    keystore.generate_key(
        TENANT, "default",
        seed=derive_seed(f"{TENANT}/default", get_params(PARAMS).n))
    return keystore


async def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("events", type=int, nargs="?", default=6)
    parser.add_argument("--batch-size", type=int, default=4,
                        help="entries per sealed Merkle batch")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="repro-ledger-") as tmp:
        root = Path(tmp) / "log"
        metrics = MetricsRegistry()
        signer = LocalClient(build_keystore(), deterministic=True)
        service = SigningService(build_keystore(), target_batch_size=4,
                                 max_wait_s=0.05, deterministic=True)
        ledger = LedgerService(signer, tenant=TENANT, root=root,
                               batch_size=args.batch_size, metrics=metrics)
        server = LedgerServer(service, ledger, port=0)
        await server.start()
        print(f"ledger server on 127.0.0.1:{server.port} — one port, "
              f"signing + log verbs, segments under {root}")

        client = await ServiceClient.open(port=server.port, version=3)
        print(f"negotiated protocol v{client.hello['version']} "
              f"({'binary frames' if client.binary else 'JSON lines'})\n")

        try:
            # 1. A bursty stream of events over the wire: each burst
            #    lands as one log-append, seals as one Merkle batch, and
            #    is covered by one signed checkpoint.
            offsets = bursty_trace(args.events, rate=200.0,
                                   burst=args.batch_size, seed=2)
            bursts = [[b"audit event %d" % index for index, _ in group]
                      for _, group in groupby(enumerate(offsets),
                                              key=lambda pair: pair[1])]
            receipts, checkpoints = [], []
            for burst in bursts:
                reply = await client.call("log-append", entries=burst)
                receipts.extend(reply["receipts"])
                checkpoints.append(reply["checkpoint"])
                head = reply["checkpoint"]
                print(f"log-append: {len(burst)} event(s) -> entries "
                      f"{[r['index'] for r in reply['receipts']]}, "
                      f"checkpoint size {head['size']}, "
                      f"root {head['root'][:16]}…")
            print()

            # 2. Distrust the server: fetch an inclusion proof for the
            #    first and last entries and verify them client-side
            #    against nothing but the tenant key.
            #    The client owns worker processes: ``with`` stops them.
            with LocalClient(build_keystore(),
                             deterministic=True) as verifier:
                for position in (0, len(receipts) - 1):
                    reply = await client.call(
                        "log-proof", index=receipts[position]["index"])
                    proof = InclusionProof.from_dict(reply["proof"])
                    ok = verify_inclusion(verifier, proof)
                    print(f"entry {proof.index} of {proof.size}: "
                          f"inclusion path of {len(proof.path)} node(s), "
                          f"client-side verify -> {ok}")
                    assert ok, "acknowledged entry failed client-side proof"

            # 3. The log only ever extends: a consistency proof between
            #    the first sealed head and the current one.
            if len(checkpoints) > 1:
                old = checkpoints[0]
                reply = await client.call("log-checkpoint",
                                          since=old["size"])
                head = reply["checkpoint"]
                consistent = verify_consistency_path(
                    old["size"], bytes.fromhex(old["root"]),
                    head["size"], bytes.fromhex(head["root"]),
                    [bytes.fromhex(node)
                     for node in reply["consistency"]])
                print(f"consistency {old['size']} -> {head['size']}: "
                      f"old head is a prefix -> {consistent}")
                assert consistent, "the log rewrote history"
            print()
        finally:
            await client.close()
            await server.stop()
            await ledger.close()
            signer.close()

        # 4. The differential audit: replay the on-disk bytes with no
        #    state from the run above — the `repro audit` job.
        report = run_audit(root, build_keystore(), tenant=TENANT,
                           deterministic=True)
        print(f"audit: ok={report['ok']}, "
              f"{report['entries_verified']}/{report['entries']} entries "
              f"verified, {report['checkpoints_verified']} checkpoint "
              f"signature(s) checked, "
              f"{report['signatures_matched']} byte-matched "
              f"deterministically")
        assert report["ok"], report["problems"]

        print("\nledger metrics:")
        for line in metrics.render_prometheus().splitlines():
            if line.startswith("repro_ledger"):
                print(f"  {line}")


if __name__ == "__main__":
    asyncio.run(main())
