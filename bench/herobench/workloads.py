"""The four workloads.  Each sets its system up (several times, so the
set-up time is a median), runs a timed window of ``run.seconds``, and
hands back a :class:`Window`; ``bench/README.md`` says why each exists.

Closed loops run in *segments* of fixed composition: the system's CPU is
read at segment boundaries, every cost is a median over segments, and
the window closes at the first segment boundary past ``run.seconds``.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

from . import procs
from .checks import PARAMS, TENANT_SPEC, TENANTS, Checker, stream
from .floor import LATENCY_PAD_S, FloorSampler, quantile
from .loadgen import open_loop
from .spans import Recorder

now = time.perf_counter

#: Set-ups per run; the reported set-up time is their median.  The
#: cluster's set-up signs 32 attestations, so it is repeated less.
SETUP_REPEATS = {"batch_fresh": 3, "serve_poisson": 3, "replay_hot": 2,
                 "ledger_mixed": 3}
#: One signature costs about 144 kh in-process at the seed commit; the
#: constants below are in that unit and are never re-measured.
REFERENCE_SIGN_KH = 150.0

BATCH_MESSAGES = 16          # batch_fresh: messages per sign_many
BATCH_LIMIT_KH = BATCH_MESSAGES * 2 * REFERENCE_SIGN_KH  # per call
POISSON_UTILISATION = 0.30   # serve_poisson: share of one reference core
POISSON_LIMIT_KH = 1500.0
POISSON_WEIGHTS = (8, 4, 2, 1)
POISSON_DRAIN_S = 15.0
REPLAY_ATTESTATIONS = 8      # replay_hot: fixed messages per tenant
REPLAY_SEGMENT_CALLS = 100   # per caller
REPLAY_LIMIT_KH = 150.0
LEDGER_BATCH = 8             # ledger_mixed: appends per segment ...
LEDGER_PROOFS = 24           # ... and proofs generated and verified
#: A round's limit: twice its reference cost — the batch's signatures and
#: the checkpoint's, and two reference verifications (30 kh) per proof.
LEDGER_LIMIT_KH = 2 * ((LEDGER_BATCH + 1) * REFERENCE_SIGN_KH
                       + LEDGER_PROOFS * 2 * 30.0)
#: Segments (serve_poisson: replies) after which ``peak_rss_mb`` is read.
#: The program's caches grow with every fresh message, so a reading at
#: the end of a timed window would say how fast the machine was; these
#: counts are reached a third of the way into a window at the seed commit.
RSS_AFTER = {"batch_fresh": 12, "serve_poisson": 24, "replay_hot": 4,
             "ledger_mixed": 5}


@dataclass
class Run:
    """What one invocation of ``run.py --workload`` shares."""

    seed: int
    seconds: float
    smoke: bool
    floor: FloorSampler
    sidecars: frozenset[int]
    recorder: Recorder
    checker: Checker
    setups: list[float] = field(default_factory=list)
    spawned: list[int] = field(default_factory=list)
    rss_mb: float = 0.0
    _opened: float = 0.0

    def children(self) -> list[int]:
        """Live processes below this one that belong to the program."""
        return [pid for pid in procs.descendants(os.getpid())
                if pid not in self.sidecars]

    def open(self) -> None:
        self._opened = now()

    def expired(self) -> bool:
        return now() - self._opened >= self.seconds

    def mark_rss(self, done: int = 0, workload: str | None = None) -> None:
        """Read ``peak_rss_mb`` — the largest peak resident set among
        this process and the program's — once: when *done* reaches the
        workload's ``RSS_AFTER``, or, called bare, at the window's end."""
        if not self.rss_mb and (workload is None
                                or done >= RSS_AFTER[workload]):
            self.rss_mb = procs.peak_rss_mb([os.getpid()] + self.children())

    async def setup(self, workload: str, build, destroy):
        """Await ``build()`` ``repeats`` times, timing each (in seconds of
        the reference machine) and awaiting ``destroy`` on all but the
        last, which is returned."""
        repeats = 1 if self.smoke else SETUP_REPEATS[workload]
        for attempt in range(repeats):
            started = now()
            system = await build()
            self.setups.append(self.floor.reference_s(started, now()))
            if attempt + 1 < repeats:
                await destroy(system)
        return system


@dataclass
class Window:
    """What a timed window measured, still in seconds."""

    #: (start, end, CPU seconds of the system under test, signatures)
    segments: list[tuple[float, float, float, int]]
    #: (from, done) of each call that came back good
    latencies: list[tuple[float, float]]
    sent: int
    limit_kh: float
    #: seconds the generator ran late (open loop) or sat between a
    #: reply and the next send (closed loop)
    lags: list[float]
    #: (start, end, signatures) of the stretches whose wall time is the
    #: signatures' cost, where that is not the whole of every segment
    walls: list[tuple[float, float, int]] | None = None

    def latencies_kh(self, floor: FloorSampler) -> list[float]:
        return [floor.kh(start, end, LATENCY_PAD_S)
                for start, end in self.latencies]

    def end_to_end(self, floor: FloorSampler) -> dict[str, tuple]:
        """NaN where every operation failed and left nothing to time."""
        latencies = self.latencies_kh(floor)
        return {
            "cpu_cost_kh": (_median(
                cpu * 1e3 / floor.mean_us(start, end) / count
                for start, end, cpu, count in self.segments if count), "kh"),
            "latency_p50_kh": (quantile(latencies, 0.5), "kh"),
            "within_limit_share": (
                sum(1 for kh in latencies if kh <= self.limit_kh)
                / self.sent, "share"),
        }

    def context(self, floor: FloorSampler) -> dict[str, tuple]:
        start, end = self.segments[0][0], self.segments[-1][1]
        samples = floor.samples(start, end)
        q1, _, q3 = statistics.quantiles(samples, n=4)
        latencies = self.latencies_kh(floor)
        walls = self.walls or [(opened, closed, count)
                               for opened, closed, _, count in self.segments]
        return {
            "api.wall_cost_kh": (_median(
                floor.kh(opened, closed) / count
                for opened, closed, count in walls if count), "kh"),
            "api.latency_p90_kh": (quantile(latencies, 0.9), "kh"),
            "api.latency_p99_kh": (quantile(latencies, 0.99), "kh"),
            "bench.floor_us": (statistics.fmean(samples), "us"),
            "bench.floor_spread": (
                (q3 - q1) / statistics.median(samples), "share"),
            "bench.gen_lag_p95_ms": (quantile(self.lags, 0.95) * 1e3, "ms"),
            "bench.offered_rps": (self.sent / (end - start), "1/s"),
        }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


# ----------------------------------------------------------------------
async def batch_fresh(run: Run) -> Window:
    """Closed loop, one caller, the pooled client over two workers.  The
    pooled client is synchronous: the one caller blocks in every call."""
    from repro import api

    warm = stream(run.seed, "batch_fresh/warm")

    async def build():
        client = api.connect("pooled", workers=2, deterministic=True)
        try:
            for tenant in TENANTS:
                client.add_tenant(tenant, PARAMS)
                client.sign_many(tenant,
                                 [warm.randbytes(64) for _ in range(4)])
        except BaseException:
            client.close()
            raise
        return client

    async def destroy(client):
        client.close()

    client = await run.setup("batch_fresh", build, destroy)
    try:
        workers = run.children()
        run.spawned.extend(workers)
        traced = run.recorder.wrap(client, "api.pooled")
        payload = stream(run.seed, "batch_fresh/messages")
        segments, latencies, lags = [], [], []
        request = 0

        def cpu() -> float:
            return time.process_time() + procs.cpu_seconds(workers)

        run.open()
        replied = now()
        while not run.expired():
            # One call is one segment; tenants take turns.
            tenant = TENANTS[request % len(TENANTS)]
            messages = [payload.randbytes(64) for _ in range(BATCH_MESSAGES)]
            request += 1
            run.checker.attempt(len(messages))
            sent, cpu_before, signed = now(), cpu(), 0
            lags.append(sent - replied)
            try:
                with run.recorder.span("bench.call", request=request):
                    results = traced.sign_many(tenant, messages)
            except Exception as exc:  # noqa: BLE001 — every type counts
                run.checker.fail(type(exc).__name__, len(messages))
                results = None
            replied = now()
            used = cpu() - cpu_before
            if results is not None and all([
                    run.checker.signature(tenant, message, result.signature)
                    for message, result in zip(messages, results)]):
                latencies.append((sent, replied))
                signed = len(messages)
            segments.append((sent, replied, used, signed))
            run.mark_rss(request, "batch_fresh")
        run.mark_rss()
        return Window(segments, latencies, request, BATCH_LIMIT_KH, lags)
    finally:
        client.close()


# ----------------------------------------------------------------------
async def serve_poisson(run: Run) -> Window:
    """Open loop against a ``serve-async`` subprocess."""
    from repro import api

    warm = stream(run.seed, "serve_poisson/warm")

    async def build():
        server = procs.Server(
            "serve-async", "--batch-size", "8", "--max-wait-ms", "20",
            "--tenants", TENANT_SPEC, "--deterministic")
        run.spawned.append(server.proc.pid)
        try:
            client = await api.AsyncClient.connect(port=server.port)
            for tenant in TENANTS:
                await client.sign_many(
                    tenant, [warm.randbytes(256) for _ in range(2)])
        except BaseException:
            server.stop()
            raise
        return server, client

    async def destroy(system):
        server, client = system
        try:
            await client.close()
        finally:
            server.stop()

    server, client = system = await run.setup("serve_poisson", build,
                                               destroy)
    try:
        traced = run.recorder.wrap(client, "api.tcp")
        draws = stream(run.seed, "serve_poisson/tenants")
        payload = stream(run.seed, "serve_poisson/messages")
        latencies = []

        async def one(request: int, tenant: str, message: bytes,
                      due: float) -> None:
            run.checker.attempt()
            try:
                with run.recorder.span("bench.request", request=request,
                                       start=due):
                    result = await traced.sign(tenant, message)
            except Exception as exc:  # noqa: BLE001 — every type counts
                run.checker.fail(type(exc).__name__)
                return
            done = now()
            if run.checker.signature(tenant, message, result.signature):
                latencies.append((due, done))
                run.mark_rss(len(latencies), "serve_poisson")

        def make_request(index: int, due: float):
            tenant = draws.choices(TENANTS, weights=POISSON_WEIGHTS)[0]
            return one(index, tenant, payload.randbytes(256), due)

        cpu_before = server.cpu_seconds()
        opened, tasks, lags = await open_loop(
            run.floor, stream(run.seed, "serve_poisson/arrivals"),
            REFERENCE_SIGN_KH / POISSON_UTILISATION, run.seconds,
            make_request)
        _, unanswered = await asyncio.wait(tasks, timeout=POISSON_DRAIN_S)
        for task in unanswered:
            task.cancel()
            run.checker.fail("unanswered")
        run.mark_rss()
        closed = max([done for _, done in latencies], default=now())
        cpu = server.cpu_seconds() - cpu_before
        return Window([(opened, closed, cpu, len(latencies))], latencies,
                      len(tasks), POISSON_LIMIT_KH, lags)
    finally:
        await destroy(system)


# ----------------------------------------------------------------------
async def replay_hot(run: Run) -> Window:
    """Closed loop, two callers (v3 and v2) against ``serve-cluster``."""
    from repro import api

    attestations = stream(run.seed, "replay_hot/attestations")
    count = 2 if run.smoke else REPLAY_ATTESTATIONS
    corpus = {tenant: [attestations.randbytes(4096) for _ in range(count)]
              for tenant in TENANTS}
    firsts: dict[str, list[bytes]] = {}

    async def build():
        server = procs.Server(
            "serve-cluster", "--nodes", "2", "--cache-budget-mb", "32",
            "--batch-size", "1", "--max-wait-ms", "5",
            "--tenants", TENANT_SPEC, "--deterministic")
        run.spawned.append(server.proc.pid)
        try:
            clients = [
                await api.AsyncClusterClient.connect(port=server.port),
                await api.AsyncClusterClient.connect(port=server.port,
                                                     version=2)]
            # Sign every attestation once, so that the window replays.
            signed = await asyncio.gather(*(
                clients[0].sign_many(tenant, corpus[tenant])
                for tenant in TENANTS))
            for tenant, results in zip(TENANTS, signed):
                firsts[tenant] = [result.signature for result in results]
                await clients[1].sign(tenant, corpus[tenant][0])
        except BaseException:
            server.stop()
            raise
        return server, clients

    async def destroy(system):
        server, clients = system
        try:
            for client in clients:
                await client.close()
        finally:
            server.stop()

    server, clients = system = await run.setup("replay_hot", build, destroy)
    try:
        for tenant in TENANTS:
            for message, signature in zip(corpus[tenant], firsts[tenant]):
                run.checker.attempt()
                run.checker.signature(tenant, message, signature)
        latencies, lags = [], []
        requests = iter(range(1, 1 << 30))

        async def caller(client, draws, calls: int) -> int:
            signed, replied = 0, now()
            for _ in range(calls):
                tenant = draws.choice(TENANTS)
                index = draws.randrange(count)
                run.checker.attempt()
                sent = now()
                lags.append(sent - replied)
                try:
                    with run.recorder.span("bench.request",
                                           request=next(requests)):
                        result = await client.sign(tenant,
                                                   corpus[tenant][index])
                except Exception as exc:  # noqa: BLE001 — every type counts
                    run.checker.fail(type(exc).__name__)
                    replied = now()
                    continue
                replied = now()
                if run.checker.expect(
                        result.signature == firsts[tenant][index],
                        "replay-differs-from-first"):
                    latencies.append((sent, replied))
                    signed += 1
            return signed

        callers = [
            (run.recorder.wrap(client, "api.cluster"),
             stream(run.seed, f"replay_hot/caller-{index}"))
            for index, client in enumerate(clients)]
        calls = REPLAY_SEGMENT_CALLS // 10 if run.smoke \
            else REPLAY_SEGMENT_CALLS
        segments = []
        run.open()
        while not run.expired():
            opened, cpu_before = now(), server.cpu_seconds()
            signed = await asyncio.gather(*(
                caller(client, draws, calls) for client, draws in callers))
            segments.append((opened, now(),
                             server.cpu_seconds() - cpu_before, sum(signed)))
            run.mark_rss(len(segments), "replay_hot")
        run.mark_rss()
        return Window(segments, latencies, len(lags), REPLAY_LIMIT_KH, lags)
    finally:
        await destroy(system)


# ----------------------------------------------------------------------
async def ledger_mixed(run: Run) -> Window:
    """Closed loop, one caller, appends beside proofs on one ledger."""
    from repro import api, ledger
    from repro.service import Keystore

    warm = stream(run.seed, "ledger_mixed/warm")
    procs.OUT_DIR.mkdir(exist_ok=True)

    async def build():
        root = tempfile.mkdtemp(dir=procs.OUT_DIR, prefix="ledger-")
        client = api.LocalClient(Keystore(), backend="vectorized",
                                 deterministic=True)
        try:
            client.add_tenant("ledger", PARAMS)
            traced = run.recorder.wrap(client, "api.local")
            service = ledger.LedgerService(
                traced, tenant="ledger", root=root, batch_size=LEDGER_BATCH)
            receipts = await service.append_many(
                [warm.randbytes(128) for _ in range(LEDGER_BATCH)])
        except BaseException:
            client.close()
            shutil.rmtree(root, ignore_errors=True)
            raise
        return root, client, traced, service, receipts

    async def destroy(system):
        root, client, _, service, _ = system
        try:
            await service.close()
        finally:
            client.close()
            shutil.rmtree(root, ignore_errors=True)

    system = await run.setup("ledger_mixed", build, destroy)
    root, client, traced, service, receipts = system
    try:
        traced_service = run.recorder.wrap(service, "ledger")
        traced_api = run.recorder.wrap(api, "api")
        payload = stream(run.seed, "ledger_mixed/events")
        picks = stream(run.seed, "ledger_mixed/proofs")
        segments, walls, latencies, lags = [], [], [], []
        request = 0

        def check_receipts(events, acknowledged) -> bool:
            good = []
            for event, receipt in zip(events, acknowledged):
                body, signature = ledger.decode_entry(receipt.entry)
                good.append(run.checker.expect(body == event, "wrong-entry")
                            and run.checker.signature("ledger", event,
                                                      signature))
            return all(good)

        run.checker.attempt(len(receipts))
        check_receipts([ledger.decode_entry(receipt.entry)[0]
                        for receipt in receipts], receipts)
        run.open()
        replied = now()
        while not run.expired():
            opened, cpu_before = now(), time.process_time()
            events = [payload.randbytes(128) for _ in range(LEDGER_BATCH)]
            request += 1
            run.checker.attempt(len(events))
            appended = 0
            lags.append(opened - replied)
            try:
                with run.recorder.span("bench.append", request=request):
                    acknowledged = await traced_service.append_many(events)
            except Exception as exc:  # noqa: BLE001 — every type counts
                run.checker.fail(type(exc).__name__, len(events))
            else:
                replied = now()
                if check_receipts(events, acknowledged):
                    appended = len(events)
                    walls.append((opened, replied, appended))
            replied = now()
            size = service.head.size
            proved = 0
            for position in range(LEDGER_PROOFS):
                # The first proof is of an event just appended, the rest
                # of earlier events, drawn anywhere in the log.
                index = picks.choice(acknowledged).index \
                    if position == 0 and appended else picks.randrange(size)
                request += 1
                run.checker.attempt()
                sent = now()
                lags.append(sent - replied)
                try:
                    with run.recorder.span("bench.proof", request=request):
                        proof = traced_service.prove(index, size)
                        included = traced_api.verify_inclusion(traced, proof)
                except Exception as exc:  # noqa: BLE001 — every type counts
                    run.checker.fail(type(exc).__name__)
                    replied = now()
                    continue
                replied = now()
                proved += run.checker.expect(included, "not-included")
            # The caller's round — events handed in, acknowledged, and
            # the proofs it wanted held and verified — is what this
            # workload calls a latency: the append alone, or the wait to
            # the first proof, is half the work and a quarter noisier
            # from run to run (bench/README.md).
            if appended and proved == LEDGER_PROOFS:
                latencies.append((opened, replied))
            segments.append((opened, now(),
                             time.process_time() - cpu_before, appended))
            run.mark_rss(len(segments), "ledger_mixed")
        run.mark_rss()
        await service.close()
        run.checker.attempt()
        report = ledger.run_audit(root, client.keystore, tenant="ledger")
        run.checker.expect(report["ok"], "audit-not-clean")
        return Window(segments, latencies, len(segments), LEDGER_LIMIT_KH,
                      lags, walls)
    finally:
        await destroy(system)


WORKLOADS = {
    "batch_fresh": batch_fresh,
    "serve_poisson": serve_poisson,
    "replay_hot": replay_hot,
    "ledger_mixed": ledger_mixed,
}
