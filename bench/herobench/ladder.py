"""The layer ladder: one corpus, one key, every layer in turn.

The same fresh messages are signed under the same key through each
layer of the stack.  A rung's *cost* is the CPU of every process it
takes — the caller's and the servers' or workers' — per signature, in
kh; its *tax* is its cost minus the rung it stands on, so the taxes
along a chain add up to the top rung's cost.  Every rung is a separate
instance that has signed the same few warm-up messages, and, the key
being deterministic, must return the same bytes.

Two chains share the bottom rungs::

    hashlib floor -> vectorized -> scheduler -> api.local -> pool / ledger
                               \\-> service -> tcp -> cluster

The corpus is signed in rounds of a few messages, and within a round the
rungs take turns, so that a change in the machine's speed falls on every
rung alike; a cost is the median over rounds.  Many short rounds beat
few long ones: at four rounds of eight messages a tax moved by 20 kh
between two runs, at eight of four by 4.  A rung-round is a third of a
second of work, a tax smaller than a few kh is noise, and the level of
the whole ladder moves with the machine's mood: it shows where the
large costs are, and it gates nothing.  (The ledger rung therefore
shares one checkpoint signature among four appends, not the eight of
``ledger_mixed``.)
"""

from __future__ import annotations

import asyncio
import shutil
import statistics
import tempfile
import time

from . import procs
from .checks import PARAMS, stream
from .floor import hash_slice, quantile
from .workloads import LEDGER_BATCH, Run

now = time.perf_counter
TENANT = "ladder"
ROUNDS, ROUND_MESSAGES, WARM_MESSAGES = 8, 4, 4
#: The pool splits a batch only when every worker gets a few messages.
POOL_BATCH, POOL_ROUNDS = 16, 3
SERVER_FLAGS = ("--batch-size", str(ROUND_MESSAGES), "--max-wait-ms", "5",
                "--tenants", f"{TENANT}:{PARAMS}", "--deterministic")
REPLAY_PASSES = 5
CODEC_ROUNDS = 300
OBS_ROUNDS = 40
#: rung -> the rung it stands on
BELOW = {"vectorized": "hashlib floor", "scheduler": "vectorized",
         "api.local": "scheduler", "pool-1w": "api.local",
         "pool-2w": "api.local", "ledger": "api.local",
         "service": "vectorized", "tcp-v3": "service", "tcp-v2": "service",
         "cluster": "tcp-v3"}
TAXES = {"runtime.scheduler.tax_kh": "scheduler",
         "api.local.tax_kh": "api.local",
         "runtime.pool.tax_kh": "pool-1w",
         "service.tax_kh": "service",
         "api.tcp.tax_kh": "tcp-v3",
         "api.tcp.v2_tax_kh": "tcp-v2",
         "cluster.tax_kh": "cluster",
         "ledger.append_tax_kh": "ledger"}


def ladder(run: Run) -> dict[str, tuple]:
    """Every ladder metric as ``name -> (value, unit)``."""
    rounds, size, warm_size = (1, 2, 1) if run.smoke \
        else (ROUNDS, ROUND_MESSAGES, WARM_MESSAGES)
    messages = stream(run.seed, "ladder/corpus")
    corpus = [messages.randbytes(64) for _ in range(rounds * size)]
    warm = [messages.randbytes(64) for _ in range(warm_size)]
    rungs = _Rungs(run, corpus, warm, size, run.checker.keys(TENANT))
    out: dict[str, tuple] = {}
    out.update(rungs.hashes())
    out.update(rungs.reference())
    out.update(asyncio.run(rungs.climb()))
    out.update(rungs.observability())
    out.update(rungs.codecs())
    out.update(rungs.models())
    for name, rung in TAXES.items():
        out[name] = (rungs.cpu[rung] - rungs.cpu[BELOW[rung]], "kh")
    rungs.print_table()
    return out


class _Rungs:
    def __init__(self, run: Run, corpus, warm, size, keys):
        self.run, self.corpus, self.warm, self.keys = run, corpus, warm, keys
        self.size = size
        self.floor = run.floor
        #: rung -> kh per signature: CPU of every process, and wall
        self.cpu: dict[str, float] = {}
        self.wall: dict[str, float] = {}
        #: what the first rung signed; every other rung must match it
        self.expected: dict[bytes, bytes] = {}

    # ------------------------------------------------------------------
    def hashes(self) -> dict:
        from repro.hashes.address import Address
        from repro.hashes.thash import HashContext
        from repro.params import get_params
        from repro.sphincs.signer import Sphincs

        ctx, adrs = HashContext(get_params(PARAMS)), Address()
        seed, node = self.keys.pk_seed, bytes(16)
        ratios = []
        for _ in range(5):  # interleaved, so drift hits both alike
            start = time.thread_time()
            for _ in range(2000):
                ctx.thash(seed, adrs, node, node)
            thash_us = (time.thread_time() - start) / 2000 * 1e6
            ratios.append(thash_us / hash_slice(2000))
        counting = Sphincs(PARAMS, deterministic=True, count_hashes=True)
        counting.sign(self.corpus[0], self.keys)
        self.cpu["hashlib floor"] = counting.ctx.hash_calls / 1e3
        return {
            "hashes.thash_floor_ratio": (statistics.median(ratios), "ratio"),
            "hashes.calls_per_sig": (counting.ctx.hash_calls, "count"),
        }

    def reference(self) -> dict:
        from repro.runtime import get_backend
        from repro.sphincs.signer import Sphincs

        few = self.corpus[:2]
        scheme = Sphincs(PARAMS, deterministic=True)
        start = now()
        reference = [scheme.sign(message, self.keys) for message in few]
        sign_kh = self.floor.kh(start, now()) / len(few)
        start = now()
        verified = [scheme.verify(message, signature, self.keys.public)
                    for message, signature in zip(few, reference)]
        verify_kh = self.floor.kh(start, now()) / len(few)
        self.run.checker.attempt(len(few))
        self.run.checker.expect(all(verified), "ladder-reference-verify")
        scalar = get_backend("scalar", PARAMS, deterministic=True)
        start = now()
        signed = scalar.sign_batch(few, self.keys).signatures
        scalar_kh = self.floor.kh(start, now()) / len(few)
        self.run.checker.expect(signed == reference, "ladder-scalar-differs")
        self.expected.update(zip(few, reference))
        return {
            "sphincs.sign_kh": (sign_kh, "kh"),
            "sphincs.verify_kh": (verify_kh, "kh"),
            "runtime.scalar.sign_kh": (scalar_kh, "kh"),
        }

    # ------------------------------------------------------------------
    async def climb(self) -> dict:
        """Stand every rung up, sign the corpus in interleaved rounds,
        then take the measurements that need a warm system."""
        from repro import api, ledger
        from repro.runtime import BatchScheduler, get_backend
        from repro.service import Keystore, SigningService

        checker = self.run.checker
        out: dict[str, tuple] = {}
        closers = []       # undone in reverse, whatever happens
        signers = {}       # rung -> async callable(messages) -> signatures

        def sync(sign):
            async def signer(messages):
                return sign(messages)
            return signer

        def through_client(client):
            return sync(lambda messages: [
                result.signature
                for result in client.sign_many(TENANT, messages)])

        def gathered(sign_one):
            # Pipelined single signs: the call shape every served rung
            # shares, so they differ only in the layers in between.
            async def signer(messages):
                results = await asyncio.gather(*map(sign_one, messages))
                return [result.signature for result in results]
            return signer

        procs.OUT_DIR.mkdir(exist_ok=True)
        root = tempfile.mkdtemp(dir=procs.OUT_DIR, prefix="ladder-ledger-")
        closers.append(lambda: shutil.rmtree(root, ignore_errors=True))
        try:
            backend = get_backend("vectorized", PARAMS, deterministic=True)
            stages: dict[str, float] = {}

            def through_backend(messages):
                result = backend.sign_batch(messages, self.keys)
                for stage, seconds in result.stage_seconds.items():
                    stages[stage] = stages.get(stage, 0.0) + seconds
                return result.signatures
            signers["vectorized"] = sync(through_backend)

            scheduler = BatchScheduler(
                target_batch_size=1 << 30, backend="vectorized",
                deterministic=True, keys_provider=lambda params: self.keys)
            signers["scheduler"] = sync(lambda messages: [
                scheduler.claim(ticket)
                for ticket in scheduler.run(messages, params=PARAMS)])

            local = api.connect("local", deterministic=True)
            closers.append(local.close)
            local.add_tenant(TENANT, PARAMS)
            signers["api.local"] = through_client(local)

            for workers in (1, 2):
                pooled = api.connect("pooled", workers=workers,
                                     deterministic=True)
                closers.append(pooled.close)
                pooled.add_tenant(TENANT, PARAMS)
                signers[f"pool-{workers}w"] = through_client(pooled)

            keystore = Keystore()
            keystore.add_tenant(TENANT, PARAMS)
            keystore.generate_key(
                TENANT, "default", seed=self.keys.sk_seed + self.keys.sk_prf
                + self.keys.pk_seed)
            service = SigningService(
                keystore, backend="vectorized", target_batch_size=self.size,
                max_wait_s=0.005, deterministic=True)
            closers.append(service.close)
            signers["service"] = gathered(
                lambda message: service.sign(message, TENANT))

            for rung, command, connect, version in (
                    ("tcp-v3", "serve-async", api.AsyncClient.connect, 3),
                    ("tcp-v2", "serve-async", api.AsyncClient.connect, 2),
                    ("cluster", "serve-cluster",
                     api.AsyncClusterClient.connect, 3)):
                flags = SERVER_FLAGS + (
                    ("--nodes", "1") if rung == "cluster" else ())
                server = procs.Server(command, *flags)
                closers.append(server.stop)
                client = await connect(port=server.port, version=version)
                closers.append(client.close)
                signers[rung] = gathered(
                    lambda message, client=client:
                    client.sign(TENANT, message))
            cluster_port, cluster_v3 = server.port, client

            ledger_client = api.connect("local", deterministic=True)
            closers.append(ledger_client.close)
            ledger_client.add_tenant(TENANT, PARAMS)
            log = ledger.LedgerService(
                ledger_client, tenant=TENANT, root=root,
                batch_size=min(self.size, LEDGER_BATCH))
            closers.append(log.close)
            receipts = []

            async def through_ledger(messages):
                acknowledged = await log.append_many(messages)
                if messages is not self.warm:
                    receipts.extend(acknowledged)
                return [ledger.decode_entry(receipt.entry)[1]
                        for receipt in acknowledged]
            signers["ledger"] = through_ledger

            everyone = self.run.children()
            self.run.spawned.extend(everyone)

            def cpu() -> float:
                return time.process_time() + procs.cpu_seconds(everyone)

            for sign in signers.values():
                await sign(self.warm)
            before = backend.cache_stats()
            taken = {rung: [] for rung in signers}
            order = list(signers)
            for index in range(0, len(self.corpus), self.size):
                messages = self.corpus[index:index + self.size]
                for rung in order:
                    start, cpu_before = now(), cpu()
                    signatures = await signers[rung](messages)
                    used, end = cpu() - cpu_before, now()
                    per_s = 1e3 / self.floor.mean_us(start, end) \
                        / len(messages)
                    taken[rung].append((used * per_s, (end - start) * per_s))
                    self._check(rung, messages, signatures)
                order.append(order.pop(0))  # the next round starts later
            fresh = backend.cache_stats()
            for rung, rounds in taken.items():
                self.cpu[rung] = statistics.median(c for c, _ in rounds)
                self.wall[rung] = statistics.median(w for _, w in rounds)

            # The corpus again, now that every lookup hits.
            start = now()
            replayed = backend.sign_batch(self.corpus, self.keys).signatures
            replay_kh = self.floor.kh(start, now()) / len(self.corpus)
            self._check("replay", self.corpus, replayed)
            after = backend.cache_stats()

            def hit_ratio(old, new) -> float:
                hits = new["hits"] - old["hits"]
                return hits / (hits + new["misses"] - old["misses"])

            total = sum(stages.values())
            out.update({
                f"runtime.vectorized.{stage}_kh": (
                    self.cpu["vectorized"] * seconds / total, "kh")
                for stage, seconds in stages.items()})
            out.update({
                "runtime.vectorized.sign_kh": (self.cpu["vectorized"], "kh"),
                "runtime.layercache.fresh_hit_ratio": (
                    hit_ratio(before, fresh), "ratio"),
                "runtime.layercache.replay_hit_ratio": (
                    hit_ratio(fresh, after), "ratio"),
                "runtime.layercache.replay_sign_kh": (replay_kh, "kh"),
                "runtime.layercache.bytes": (after["bytes"], "bytes"),
            })
            out.update(await self._pool_scaling(
                signers["pool-1w"], signers["pool-2w"], cpu))
            out.update(await self._cluster_replay(cluster_port, cluster_v3))

            await log.close()
            size = log.head.size
            start = time.thread_time()
            proofs = [log.prove(receipt.index, size) for receipt in receipts]
            prove_us = (time.thread_time() - start) / len(proofs) * 1e6
            start = now()
            included = [api.verify_inclusion(ledger_client, proof)
                        for proof in proofs[:self.size]]
            verify_kh = self.floor.kh(start, now()) / len(included)
            checker.attempt(len(included))
            checker.expect(all(included), "ladder-not-included")
            start = now()
            report = ledger.run_audit(root, ledger_client.keystore,
                                      tenant=TENANT, deterministic=True)
            audit_kh = self.floor.kh(start, now()) \
                / report["entries_verified"]
            checker.attempt()
            checker.expect(report["ok"], "ladder-audit-not-clean")
            out.update({
                "ledger.prove_us": (prove_us, "us"),
                "ledger.verify_inclusion_kh": (verify_kh, "kh"),
                "ledger.audit_kh_per_entry": (audit_kh, "kh"),
            })
        finally:
            for close in reversed(closers):
                done = close()
                if asyncio.iscoroutine(done):
                    await done
        return out

    def _check(self, rung, messages, signatures) -> None:
        checker = self.run.checker
        checker.attempt(len(messages))
        for message, signature in zip(messages, signatures):
            if message in self.expected:
                checker.expect(signature == self.expected[message],
                               f"ladder-{rung}-differs")
            elif checker.signature(TENANT, message, signature):
                self.expected[message] = signature

    async def _pool_scaling(self, one_worker, two_workers, cpu) -> dict:
        """Batches large enough for the pool to split, on one worker and
        on two in turn: what a second core buys in wall-clock."""
        messages = stream(self.run.seed, "ladder/pool")
        walls = {one_worker: [], two_workers: []}
        overlap = []
        for _ in range(1 if self.run.smoke else POOL_ROUNDS):
            batch = [messages.randbytes(64) for _ in range(POOL_BATCH)]
            for sign in (one_worker, two_workers):
                start, cpu_before = now(), cpu()
                signatures = await sign(batch)
                used, end = cpu() - cpu_before, now()
                walls[sign].append(self.floor.kh(start, end))
                self._check("pool-split", batch, signatures)
            overlap.append(used / (end - start))
        return {
            "runtime.pool.scaling_2w": (
                statistics.median(walls[one_worker])
                / statistics.median(walls[two_workers]), "ratio"),
            "runtime.pool.cpu_over_wall": (
                statistics.median(overlap), "ratio"),
        }

    async def _cluster_replay(self, port, v3) -> dict:
        """The corpus again and again, one call in flight, v3 then v2:
        what the wire costs when the signature itself is cheap."""
        from repro import api

        passes = 2 if self.run.smoke else REPLAY_PASSES
        latencies = {}
        async with await api.AsyncClusterClient.connect(
                port=port, version=2) as v2:
            for label, client in (("v3", v3), ("v2", v2)):
                taken = []
                for _ in range(passes):
                    for message in self.corpus:
                        start = now()
                        result = await client.sign(TENANT, message)
                        taken.append(self.floor.kh(start, now()))
                        self._check("cluster-replay", [message],
                                    [result.signature])
                latencies[label] = taken
        return {
            "api.cluster.v2_latency_p50_kh": (
                quantile(latencies["v2"], 0.5), "kh"),
            "api.cluster.v3_latency_p50_kh": (
                quantile(latencies["v3"], 0.5), "kh"),
        }

    # ------------------------------------------------------------------
    def observability(self) -> dict:
        """Replayed (so cheap, so sensitive) signing with the program's
        own ``Tracer`` on and off, in interleaved rounds."""
        from repro import api
        from repro.obs import Tracer

        messages = self.corpus[:6]
        clients = [api.LocalClient(deterministic=True, tracer=tracer)
                   for tracer in (None, Tracer())]
        try:
            for client in clients:
                client.add_tenant(TENANT, PARAMS)
                client.sign_many(TENANT, messages)
            taken = {client: 0.0 for client in clients}
            for turn in range(2 if self.run.smoke else OBS_ROUNDS):
                # Whoever goes second finds the caches warm: take turns.
                for client in clients[::-1 if turn % 2 else 1]:
                    start = time.process_time()
                    client.sign_many(TENANT, messages)
                    taken[client] += time.process_time() - start
        finally:
            for client in clients:
                client.close()
        plain, traced = (taken[client] for client in clients)
        return {"obs.trace_overhead_ratio": (traced / plain - 1.0, "ratio")}

    def codecs(self) -> dict:
        """Encode and decode one ``sign`` exchange (a 4 KiB message, a
        17,088-byte signature) as a v2 JSON line and as a v3 frame."""
        from repro.service import protocol

        message = bytes(4096)
        signature = self.expected[self.corpus[0]]
        meta = ("SPHINCS+-128f", "vectorized", 1, 1.0, 2.0)

        def v2():
            request = protocol.encode({
                "op": "sign", "id": 7, "tenant": TENANT, "key": "default",
                "message": protocol.pack_bytes(message)})
            protocol.unpack_bytes(protocol.decode(request)["message"])
            response = protocol.encode({
                "ok": True, "op": "sign", "id": 7,
                "signature": protocol.pack_bytes(signature),
                "params": meta[0], "backend": meta[1],
                "batch_size": meta[2], "wait_ms": meta[3],
                "total_ms": meta[4]})
            protocol.unpack_bytes(protocol.decode(response)["signature"],
                                  name="signature")
            return len(request) + len(response)

        def v3():
            code = protocol.FRAME_CODES["sign"]
            request = protocol.encode_frame(code, protocol.pack_sign_request(
                TENANT, "default", message, None, None), id=7)
            protocol.unpack_sign_request(
                protocol.decode_frame(memoryview(request)[4:]).payload)
            response = protocol.encode_frame(
                code, protocol.pack_sign_result(signature, *meta), id=7,
                flags=protocol.FLAG_OK)
            protocol.unpack_sign_result(
                protocol.decode_frame(memoryview(response)[4:]).payload)
            return len(request) + len(response)

        out = {}
        for label, exchange in (("v2", v2), ("v3", v3)):
            start = time.thread_time()
            for _ in range(CODEC_ROUNDS):
                moved = exchange()
            out[f"service.protocol.{label}_codec_us"] = (
                (time.thread_time() - start) / CODEC_ROUNDS * 1e6, "us")
            out[f"service.protocol.{label}_bytes_per_sig"] = (moved, "bytes")
        return out

    def models(self) -> dict:
        from repro.core.batch import run_batch
        from repro.core.fusion import plan_fors
        from repro.gpusim.device import get_device
        from repro.params import get_params

        device, params = get_device("RTX 4090"), get_params(PARAMS)
        start = now()
        plan_fors(params, device.shared_mem_per_block_static,
                  hard_limit=device.shared_mem_per_block_optin)
        tuned = now()
        modeled = run_batch(params, device, "graph", messages=1024,
                            batches=8)
        lines = 0
        for path in (procs.SRC_DIR / "repro").rglob("*.py"):
            with open(path, "rb") as handle:
                lines += sum(1 for _ in handle)
        return {
            "core.tune_ms": ((tuned - start) * 1e3, "ms"),
            "gpusim.model_ms": ((now() - tuned) * 1e3, "ms"),
            "gpusim.graph_kops_128f": (modeled.kops, "kops"),
            "repo.src_lines": (lines, "count"),
        }

    # ------------------------------------------------------------------
    def print_table(self) -> None:
        print(f"# ladder: {len(self.corpus)} fresh messages in rounds of "
              f"{self.size}, one key; kh per signature")
        for rung, cost in self.cpu.items():
            tax = cost - self.cpu[BELOW[rung]] if rung in BELOW else cost
            wall = f"{self.wall[rung]:9.2f}" if rung in self.wall \
                else " " * 9
            print(f"# ladder {rung:<14} cpu {cost:9.2f}  tax {tax:+8.2f}"
                  f"  wall {wall}"
                  + (f"  over {BELOW[rung]}" if rung in BELOW else ""))
        for top in ("cluster", "pool-1w", "ledger"):
            chain = [top]
            while chain[-1] in BELOW:
                chain.append(BELOW[chain[-1]])
            total = self.cpu[chain[-1]] + sum(
                self.cpu[upper] - self.cpu[lower]
                for upper, lower in zip(chain, chain[1:]))
            print(f"# ladder taxes along {' <- '.join(chain)} sum to "
                  f"{total:.2f} kh; {top} costs {self.cpu[top]:.2f} kh")
