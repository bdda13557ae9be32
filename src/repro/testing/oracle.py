"""The cross-backend differential oracle.

Every execution strategy in this repository — the scalar reference
backend, the vectorized CPU backend, the
:class:`~repro.runtime.scheduler.BatchScheduler` service layer, the
async :class:`~repro.service.server.SigningService`, and the unified
:mod:`repro.api` client facade over each transport (``client:local``,
``client:pooled``, ``client:tcp`` pinned to the v2 JSON wire, and
``client:tcp-v3`` over the binary framing with streamed sign-many —
both against a live server) — promises the same thing:
byte-identical SPHINCS+ signatures
in deterministic mode.  The
oracle *enforces* that promise.  It signs a shared adversarial corpus
(:func:`repro.testing.corpus.message_corpus`) on a reference scheme, runs
every path over the same corpus and keys, and reports:

* **matched** — signature bytes identical to the reference, and
* **verified** — the signature round-trips through ``verify``.

When a path diverges, the oracle names the first diverging hop: it
deserializes both signatures and walks the component layout in signing
order (randomizer -> FORS trees -> per-layer WOTS chains -> per-layer
Merkle auth paths), so a report says ``wots (layer 2)``, not "bytes
differ".  A diverging signature that still *verifies* would be a silently
wrong signature — the one outcome a conformance suite exists to make
impossible — and is flagged as undetected, which fails the run louder
than an ordinary mismatch.

Fault injection plugs in here: a
:class:`~repro.testing.faults.BitFlipFault` is installed on the ``scalar``
backend's hash context — the one path whose signing calls
``HashContext.thash``/``prf`` (the fast kernels hash off midstate
templates) — and the oracle must (a) catch the divergence, (b) name the
stage, and (c) say whether verification alone would have caught it.

Verification gets the same differential treatment.  The serving tiers
verify through the template-driven kernel
(:class:`~repro.runtime.fastops.FastVerifier`); ``repro.sphincs`` and the
``scalar`` backend keep the reference walk.  Every backend path and every
client path therefore also answers a set of *verify cases* — each corpus
pair, then the first pair's signature corrupted region by region
(:func:`~repro.testing.corpus.signature_mutations`) and paired with the
wrong message — and any verdict that differs from the reference's is a
``verify`` divergence.  A :class:`~repro.testing.faults.VerifyFault`
(a fast verifier that never compares the root, or one whose memo of
accepted triples, or of upper hypertree layers, forgets the signature
bytes) must ring exactly there — which is why the corrupted signatures,
the top layer's among them, come *after* the valid one they were made
from, in one verifier's sight.

A :class:`~repro.testing.faults.CachedNodeFault` runs a focused two-pass
flow instead: warm the vectorized backend's hypertree layer cache over
the corpus (pass 1 must byte-match), corrupt one node of the pinned
subtree a fixed *fresh* probe message's path crosses, then sign the
probe — the corpus again would be answered from the replay memo and read
no subtree — so the divergence is provably the cached state.
A *consistent* strike produces signatures that still verify, so the
report must show ``verify_failed=False`` divergences: the fault-attack
class only the differential compare catches.

A :class:`~repro.testing.faults.MemoFault` (every memoised signature has
a bit flipped) cannot show on first sight, so it runs the paths that sign
the corpus twice: ``backend:vectorized+warm``, ``backend:pooled+warm``
and a replaying ``client:local``.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass, field

from ..errors import ConformanceError, SignatureFormatError
from ..params import SphincsParams, get_params
from ..runtime.pool import WorkerPool
from ..runtime.registry import BACKENDS, get_backend
from ..runtime.scheduler import BatchScheduler
from ..sphincs.signer import KeyPair, Sphincs
from .corpus import message_corpus, signature_mutations
from .faults import (BitFlipFault, CachedNodeFault, MemoFault, PlanFault,
                     VerifyFault)

__all__ = ["Divergence", "PathResult", "ConformanceReport",
           "DifferentialOracle", "localize_divergence"]


@dataclass(frozen=True)
class Divergence:
    """One path/case pair whose signature differed from the reference.

    ``verify_failed`` records *how* the divergence was caught.  ``True``
    means plain verification already rejects the signature.  ``False`` is
    the more dangerous class from the SPHINCS+ fault-attack literature: a
    corrupted auth-path node used consistently in both the signature and
    the root computation yields a *valid-looking* signature that only the
    byte-level differential compare exposes — verification alone would
    have served it.  Either way the oracle caught it; the report just
    says which net did.
    """

    path: str      # e.g. "backend:vectorized"
    case: str      # corpus case name
    stage: str     # first diverging component, e.g. "wots (layer 2)"
    verify_failed: bool
    detail: str = ""

    def __str__(self) -> str:
        verdict = ("caught by verify" if self.verify_failed
                   else "verifies — caught by differential compare only "
                        "(fault-attack class)")
        text = f"{self.path} / {self.case}: diverges at {self.stage} ({verdict})"
        return f"{text} — {self.detail}" if self.detail else text


@dataclass
class PathResult:
    """One signing path's outcome over the whole corpus."""

    path: str
    count: int = 0
    matched: int = 0
    verified: int = 0
    elapsed_s: float = 0.0
    divergences: list[Divergence] = field(default_factory=list)
    error: str = ""  # a path that failed outright (exception) reports here

    @property
    def ok(self) -> bool:
        return (not self.divergences and not self.error
                and self.matched == self.count == self.verified)


@dataclass
class ConformanceReport:
    """Everything one oracle run established."""

    params: str
    cases: list[str]
    results: list[PathResult]
    fault_spec: str | None = None
    fault_fired: bool = False
    cache_strike: str | None = None  # a cache:flip run's strike detail

    @property
    def passed(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def divergences(self) -> list[Divergence]:
        return [d for result in self.results for d in result.divergences]

    def first_divergence(self) -> Divergence | None:
        found = self.divergences
        return found[0] if found else None

    def render(self) -> str:
        from ..analysis.reporting import format_table

        rows = []
        for result in self.results:
            status = ("ok" if result.ok
                      else "ERROR" if result.error else "DIVERGED")
            rows.append([result.path, result.count, result.matched,
                         result.verified, round(result.elapsed_s, 3), status])
        lines = [format_table(
            ["path", "cases", "matched", "verified", "wall s", "status"],
            rows, title=f"Conformance oracle — {self.params}, "
                        f"{len(self.cases)} cases",
        )]
        for result in self.results:
            if result.error:
                lines.append(f"  {result.path}: {result.error}")
        for divergence in self.divergences:
            lines.append(f"  {divergence}")
        if self.fault_spec is not None:
            fired = "fired" if self.fault_fired else "NEVER FIRED"
            lines.append(f"  injected fault {self.fault_spec}: {fired}")
            if self.cache_strike is not None:
                lines.append(f"  cache strike: {self.cache_strike}")
        return "\n".join(lines)


def localize_divergence(scheme: Sphincs, expected: bytes,
                        actual: bytes) -> str:
    """Name the first diverging component of two signature blobs.

    Components are compared in signing order, so the answer is the first
    *hop* at which the two computations parted ways: ``randomizer``,
    ``fors (tree k ...)``, ``wots (layer d)``, or ``merkle (layer d auth
    path)``.
    """
    if len(expected) != len(actual):
        return f"length ({len(actual)} bytes, expected {len(expected)})"
    try:
        rand_e, fors_e, ht_e = scheme.deserialize(expected)
        rand_a, fors_a, ht_a = scheme.deserialize(actual)
    except SignatureFormatError as exc:
        return f"format ({exc})"
    if rand_e != rand_a:
        return "randomizer"
    for tree, ((sec_e, path_e), (sec_a, path_a)) in enumerate(
            zip(fors_e, fors_a)):
        if sec_e != sec_a:
            return f"fors (tree {tree} revealed secret)"
        if path_e != path_a:
            return f"fors (tree {tree} auth path)"
    for layer, ((chains_e, path_e), (chains_a, path_a)) in enumerate(
            zip(ht_e, ht_a)):
        if chains_e != chains_a:
            return f"wots (layer {layer})"
        if path_e != path_a:
            return f"merkle (layer {layer} auth path)"
    return "none (byte-identical)"


class DifferentialOracle:
    """Run every signing path over one corpus and compare the bytes.

    Parameters
    ----------
    params:
        Parameter set under test.
    backends:
        Backend names to include; defaults to both of
        :data:`~repro.runtime.registry.BACKENDS` plus ``pooled``: the
        ``vectorized`` backend on a ``service_workers``-process worker
        pool.
    corpus:
        ``(case, message)`` pairs; defaults to :func:`message_corpus`.
    include_scheduler / include_service:
        Also push the corpus through the ``BatchScheduler`` layer (per
        backend) and the async ``SigningService`` (vectorized).  When
        ``pooled`` is in play, the service pass additionally runs on a
        ``service_workers``-process worker pool, proving the whole
        multi-core tier byte-identical.
    include_clients:
        Also drive the corpus through the :mod:`repro.api` facade on
        every transport: ``client:local`` (in-process scheduler),
        ``client:pooled`` (worker pool, when ``pooled`` is among the
        backends), ``client:tcp`` (an AsyncClient pinned to the v2 JSON
        wire), and ``client:tcp-v3`` (the same client over v3 binary
        frames with streamed sign-many) — both against a live server.
        Each path byte-compares against the reference and additionally
        round-trips a ``verify`` call through the same facade.
    include_ledger:
        Also push the corpus through the transparency-log pipeline
        (``ledger:audit``): append every message to a disk-backed
        :class:`~repro.ledger.service.LedgerService`, byte-compare the
        batch signatures embedded in the committed entries against the
        reference, check every receipt's inclusion proof client-side,
        and replay the log with :func:`repro.ledger.run_audit` in
        deterministic mode — each checkpoint signature must byte-match
        a reference re-sign of the same tree head.
    fault:
        Optional fault from :mod:`repro.testing.faults`; the oracle then
        demonstrates detection.  A :class:`BitFlipFault` is installed on
        the ``scalar`` backend's direct pass.
    """

    def __init__(self, params: SphincsParams | str = "128f",
                 backends: list[str] | None = None,
                 corpus: list[tuple[str, bytes]] | None = None,
                 seed: int = 0, smoke: bool = False,
                 include_scheduler: bool = True,
                 include_service: bool = True,
                 include_clients: bool = True,
                 include_ledger: bool = True,
                 service_workers: int = 2,
                 fault: BitFlipFault | CachedNodeFault | MemoFault
                 | VerifyFault | PlanFault | None = None):
        self.params = get_params(params) if isinstance(params, str) else params
        self.backends = (list(backends) if backends is not None
                         else sorted([*BACKENDS, "pooled"]))
        self.corpus = (corpus if corpus is not None
                       else message_corpus(seed=seed, smoke=smoke))
        self.include_scheduler = include_scheduler
        self.include_service = include_service
        self.include_clients = include_clients
        self.include_ledger = include_ledger
        self.service_workers = service_workers
        self.fault = fault
        # Set by each run(): the reference scheme and key, its signature
        # per corpus case, and the verify cases as ``(label, message,
        # signature, reference verdict)``.
        self._scheme: Sphincs | None = None
        self._keys: KeyPair | None = None
        self._expected: dict[str, bytes] = {}
        self._verify_cases: list[tuple[str, bytes, bytes, bool]] = []

    # ------------------------------------------------------------------
    def run(self) -> ConformanceReport:
        scheme = self._scheme = Sphincs(self.params, deterministic=True)
        keys = self._keys = scheme.keygen(seed=bytes(3 * self.params.n))

        reference = PathResult(path="reference")
        expected = self._expected = {}
        started = time.perf_counter()
        for case, message in self.corpus:
            signature = scheme.sign(message, keys)
            expected[case] = signature
            reference.count += 1
            reference.matched += 1
            if scheme.verify(message, signature, keys.public):
                reference.verified += 1
            else:
                reference.divergences.append(Divergence(
                    path="reference", case=case, stage="verify",
                    verify_failed=True,
                    detail="reference signature failed verification",
                ))
        # Each corruption after the signature it was made from: a verify
        # or layer memo keyed on less than the whole signature answers
        # for it here.
        cases = [(case, message, expected[case])
                 for case, message in self.corpus]
        if self.corpus:
            case, message = self.corpus[0]
            cases += [(f"{case}/{label}", message, blob) for label, blob
                      in signature_mutations(self.params, expected[case])]
            cases.append((f"{case}/wrong-message", message + b"!",
                          expected[case]))
        self._verify_cases = [
            (label, message, blob,
             scheme.verify(message, blob, keys.public))
            for label, message, blob in cases]
        reference.elapsed_s = time.perf_counter() - started

        results = [reference]
        fault_fired, cache_strike = False, None
        if isinstance(self.fault, (VerifyFault, PlanFault)):
            # Installed process-wide on the fast kernels: the verifier
            # (signing untouched; only paths that verify through it can
            # show it) or the signing plan's table lookup (vectorized,
            # pooled).  Every pooled path below starts its pool, and so
            # forks its workers, inside the block: a fused run looks up in
            # the worker, which has the fault only by inheriting it.
            with self.fault.install():
                results.extend(self._run_backend(name)
                               for name in self.backends)
                if self.include_clients:
                    results.append(self._run_client("client:local"))
            fault_fired = self.fault.fired
        elif isinstance(self.fault, MemoFault):
            # Installed process-wide on the replay memo.  First sight is
            # assembled fresh and clean: only a second pass can show it.
            with self.fault.install():
                results.extend(self._run_warm_backends())
                if self.include_service:  # pass two is ``engine.recall``
                    results.append(asyncio.run(self._run_service(passes=2)))
                if self.include_clients:
                    results.append(self._run_client("client:local",
                                                    passes=2))
            fault_fired = self.fault.fired
        elif isinstance(self.fault, CachedNodeFault):
            # Focused two-pass flow: warm pass, cache strike, a fresh
            # message across the strike.  The service/scheduler/client
            # tiers share the same backend code, so the cached-state
            # property is established once, where the cache lives.
            cached_results, cache_strike = self._run_cached_fault()
            results.extend(cached_results)
            fault_fired = self.fault.fired
        else:
            results.extend(self._run_all_paths())
            if self.fault is not None:
                fault_fired = self.fault.fired
        return ConformanceReport(
            params=self.params.name,
            cases=[case for case, _ in self.corpus],
            results=results,
            fault_spec=self.fault.spec if self.fault is not None else None,
            fault_fired=fault_fired,
            cache_strike=cache_strike,
        )

    def _run_all_paths(self) -> list[PathResult]:
        results = [
            self._run_backend(
                name, self.fault if name == "scalar" else None)
            for name in self.backends]
        if self.fault is None:
            results.extend(self._run_warm_backends())
        if self.include_scheduler:
            results.extend(self._run_scheduler(name)
                           for name in self.backends)
        pooled = "pooled" in self.backends
        if self.include_service:
            results.append(asyncio.run(self._run_service()))
            if pooled:
                # The multi-core execution tier must honor the same
                # byte-identical contract end to end: async service ->
                # engine -> signing-plan tasks on the worker pool.
                results.append(asyncio.run(
                    self._run_service(workers=self.service_workers)))
        if self.include_clients:
            # The unified facade must uphold the same contract through
            # every transport it abstracts over: in-process, both wire
            # generations (v2 JSON lines pinned explicitly, v3 binary
            # framing with its streamed sign-many), and the cluster tier
            # — where placement and failover must never change a byte.
            results.append(self._run_client("client:local"))
            if pooled:
                results.append(self._run_client(
                    "client:pooled", workers=self.service_workers))
            for label, options in (
                    ("client:tcp", {"version": 2}),
                    ("client:tcp-v3", {"version": 3}),
                    ("client:cluster", {"cluster": True}),
                    ("client:cluster-chaos", {"cluster": True,
                                              "chaos": True})):
                results.append(asyncio.run(
                    self._run_client_wire(label, **options)))
        if self.include_ledger and self.fault is None:
            results.append(asyncio.run(self._run_ledger()))
        return results

    def _run_warm_backends(self) -> list[PathResult]:
        """Both plan executors' *second* pass over the corpus: every
        signature comes out of the replay memo (no plan, and on the pool
        no task) and must still be the reference's bytes."""
        return [self._run_backend(name, label=f"backend:{name}+warm",
                                  passes=2)
                for name in ("vectorized", "pooled")
                if name in self.backends]

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _path(self, label: str):
        """One row of the report: times the block and files whatever it
        raises as the path's error — a finding about the path, not a
        crash of the run."""
        result = PathResult(path=label)
        started = time.perf_counter()
        try:
            yield result
        except ConformanceError:
            raise  # harness misconfiguration, not a conformance finding
        except Exception as exc:  # noqa: BLE001 — a path failing is a finding
            result.error = f"{type(exc).__name__}: {exc}"
        finally:
            result.elapsed_s = time.perf_counter() - started

    def _compare(self, result: PathResult, signatures: list,
                 corpus: list[tuple[str, bytes]] | None = None) -> None:
        """Byte-compare a path's *signatures* (in corpus order; ``None``
        where it produced nothing) against the reference's."""
        scheme, keys, expected = self._scheme, self._keys, self._expected
        corpus = self.corpus if corpus is None else corpus
        produced = list(signatures) + [None] * (len(corpus) - len(signatures))
        for (case, message), signature in zip(corpus, produced):
            result.count += 1
            if signature is None:
                result.divergences.append(Divergence(
                    path=result.path, case=case, stage="missing",
                    verify_failed=True, detail="path produced no signature",
                ))
                continue
            verifies = scheme.verify(message, signature, keys.public)
            if verifies:
                result.verified += 1
            if signature == expected[case]:
                result.matched += 1
                if not verifies:
                    result.divergences.append(Divergence(
                        path=result.path, case=case, stage="verify",
                        verify_failed=True,
                        detail="matching signature failed verification",
                    ))
            else:
                stage = localize_divergence(scheme, expected[case], signature)
                result.divergences.append(Divergence(
                    path=result.path, case=case, stage=stage,
                    verify_failed=not verifies,
                ))

    def _diff_verdicts(self, result: PathResult,
                       cases: list[tuple[str, bytes, bytes, bool]],
                       verdicts: list[bool]) -> None:
        """The verify stage: a path's *verdicts* over *cases* against the
        reference's.  Accepting what the reference rejects is the
        dangerous direction and reports as ``verify_failed=False``."""
        for (label, _, _, wanted), verdict in zip(cases, verdicts,
                                                  strict=True):
            if verdict != wanted:
                result.divergences.append(Divergence(
                    path=result.path, case=label, stage="verify",
                    verify_failed=not verdict,
                    detail=("accepted a signature the reference rejects"
                            if verdict else
                            "rejected a signature the reference accepts"),
                ))

    def _cases_within(self, budget: int | None = None
                    ) -> tuple[list[tuple[str, bytes, bytes, bool]],
                               list[bytes], list[bytes]]:
        """The verify cases a path can carry (messages within the
        transport's *budget*), plus their message and signature columns
        for one batched verify call."""
        cases = [case for case in self._verify_cases
                 if budget is None or len(case[1]) <= budget]
        return (cases, [message for _, message, _, _ in cases],
                [blob for _, _, blob, _ in cases])

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _executor(self, name: str):
        """``(backend name, constructor options)`` behind path name
        *name*: ``pooled`` is ``vectorized`` on a pool of
        ``service_workers``, forked here and stopped on the way out."""
        if name != "pooled":
            yield name, {}
            return
        with WorkerPool(self.service_workers) as pool:
            yield "vectorized", {"pool": pool}

    def _run_backend(self, name: str, fault: BitFlipFault | None = None,
                     label: str | None = None, passes: int = 1) -> PathResult:
        """Sign the corpus on backend *name* (*passes* times; the last
        pass is the one compared) and answer the verify cases."""
        with self._path(label or f"backend:{name}") as result, \
                self._executor(name) as (registered, options):
            backend = get_backend(registered, self.params,
                                  deterministic=True, **options)
            tap = (fault.install(backend.ctx) if fault is not None
                   else contextlib.nullcontext())
            messages = [message for _, message in self.corpus]
            with tap:
                for _ in range(passes):
                    signatures = backend.sign_batch(
                        messages, self._keys).signatures
            self._compare(result, signatures)
            cases, case_messages, blobs = self._cases_within()
            self._diff_verdicts(result, cases, backend.verify_batch(
                case_messages, blobs, self._keys.public))
        return result

    def _run_cached_fault(self) -> tuple[list[PathResult], str | None]:
        """Warm the layer cache, strike one pinned node, sign across it.

        Returns the warm-pass and faulted-pass results plus the strike's
        detail string (reported as the fault localization).  The warm
        pass must byte-match — otherwise the faulted pass would prove
        nothing about the cache.
        """
        fault, keys = self.fault, self._keys
        messages = [message for _, message in self.corpus]
        with self._path("backend:vectorized+warm") as warm:
            backend = get_backend("vectorized", self.params,
                                  deterministic=True)
            self._compare(warm, backend.sign_batch(messages, keys).signatures)
        if not warm.ok:
            # The clean warm pass is already wrong; a cache strike on
            # top of it would be meaningless.  fired stays False, so
            # the CLI reports the fault as never having fired.
            return [warm], None
        detail = None
        with self._path("backend:vectorized+cached-fault") as struck:
            # Strike the pinned subtree the probe's path crosses (built
            # here if the warm pass never walked it) and sign the probe:
            # the corpus again would be all memo hits, reading no subtree.
            case, probe = "cache-fault probe", fault.probe
            detail = fault.apply(backend._ops(keys),
                                 self._scheme.prepare(probe, keys))
            self._expected[case] = self._scheme.sign(probe, keys)
            self._compare(struck,
                          backend.sign_batch([probe], keys).signatures,
                          [(case, probe)])
            if fault.consistent and not struck.divergences:
                struck.divergences.append(Divergence(
                    path=struck.path, case=case,
                    stage="cache", verify_failed=False,
                    detail="consistent cached-node flip produced no "
                           "divergence — the strike missed the signing "
                           "path",
                ))
        return [warm, struck], detail

    def _run_scheduler(self, name: str) -> PathResult:
        with self._path(f"scheduler:{name}") as result, \
                self._executor(name) as (registered, options):
            scheduler = BatchScheduler(
                target_batch_size=max(2, len(self.corpus) // 2),
                backend=registered, deterministic=True,
                backend_options={registered: options})
            tickets = scheduler.run(
                [message for _, message in self.corpus],
                params=self.params.name, backend=registered)
            self._compare(result,
                          [scheduler.claim(ticket) for ticket in tickets])
        return result

    # ------------------------------------------------------------------
    def _client_keystore(self):
        """A keystore whose 'oracle' tenant key equals the reference key
        (same deterministic seed), so facade signatures byte-compare."""
        from ..service import Keystore

        keystore = Keystore()
        keystore.add_tenant("oracle", self.params.name)
        keystore.generate_key("oracle", "default",
                              seed=bytes(3 * self.params.n))
        return keystore

    def _service(self, corpus: list, **options):
        """A deterministic ``SigningService`` over the oracle tenant,
        batched so *corpus* spans more than one dispatch."""
        from ..service import SigningService

        return SigningService(
            self._client_keystore(),
            target_batch_size=max(2, len(corpus) // 2), max_wait_s=0.05,
            max_pending=max(64, 2 * len(corpus)), deterministic=True,
            **options)

    def _client_compare(self, result: PathResult,
                        corpus: list[tuple[str, bytes]], signed: list,
                        cases: list, verdicts: list) -> None:
        self._compare(result, [item.signature for item in signed], corpus)
        # The served-verification half of the contract: the facade's
        # verdicts over the verify cases must be the reference's.
        self._diff_verdicts(result, cases,
                            [verdict.valid for verdict in verdicts])

    def _run_client(self, label: str, workers: int | None = None,
                    passes: int = 1) -> PathResult:
        """The corpus through a ``LocalClient`` (*passes* times; the last
        pass is the one compared), then the verify cases."""
        from ..api import LocalClient

        with self._path(label) as result:
            with LocalClient(self._client_keystore(), deterministic=True,
                             workers=workers) as client:
                for _ in range(passes):
                    signed = client.sign_many(
                        "oracle", [message for _, message in self.corpus])
                cases, messages, blobs = self._cases_within()
                self._client_compare(
                    result, self.corpus, signed, cases,
                    client.verify_many("oracle", messages, blobs))
        return result

    async def _run_client_wire(self, label: str, version: int = 3,
                               cluster: bool = False,
                               chaos: bool = False) -> PathResult:
        """Facade -> live endpoint, byte-compared.

        The endpoint is one ``SigningServer`` spoken to at wire *version*,
        or (``cluster``) a router over two signing nodes.  With ``chaos``
        the node owning the "oracle" tenant is killed halfway through the
        corpus: the router must re-home the shard onto the surviving node
        and — because both nodes hold identically seeded keys and sign
        deterministically — the failover signatures must stay
        byte-identical too.
        """
        from ..api import AsyncClient, AsyncClusterClient
        from ..cluster import LocalCluster
        from ..service import SigningServer, protocol

        # The wire can only frame messages up to the per-mode message
        # bound (the full corpus includes a 1 MiB case); skipping
        # oversized cases is a stated transport bound, not a divergence.
        budget = (protocol.MAX_MESSAGE_BYTES_V3 if version >= 3
                  else protocol.MAX_MESSAGE_BYTES)
        corpus = [(case, message) for case, message in self.corpus
                  if len(message) <= budget]
        with self._path(label) as result:
            async with contextlib.AsyncExitStack() as stack:
                if cluster:
                    fleet = await LocalCluster(
                        [lambda: self._service(corpus)] * 2,
                        health_interval_s=0.05).start()
                    stack.push_async_callback(fleet.stop)
                    client = await AsyncClusterClient.connect(
                        port=fleet.port)
                else:
                    server = SigningServer(self._service(corpus), port=0)
                    stack.push_async_callback(server.stop)
                    await server.start()
                    client = await AsyncClient.connect(port=server.port,
                                                       version=version)
                stack.push_async_callback(client.close)
                messages = [message for _, message in corpus]
                half = max(1, len(messages) // 2) if chaos else len(messages)
                signed = list(await client.sign_many("oracle",
                                                     messages[:half]))
                if chaos:
                    # Kill the shard's current owner between batches: the
                    # second half must come back from the failover node.
                    await fleet.kill_node(fleet.owner("oracle"))
                    signed.extend(await client.sign_many("oracle",
                                                         messages[half:]))
                cases, case_messages, blobs = self._cases_within(budget)
                self._client_compare(
                    result, corpus, signed, cases,
                    await client.verify_many("oracle", case_messages, blobs))
        return result

    async def _run_service(self, workers: int = 0,
                           passes: int = 1) -> PathResult:
        with self._path(f"service:pooled[{workers}]" if workers
                        else "service:vectorized") as result:
            service = self._service(self.corpus, workers=workers)
            try:
                for _ in range(passes):  # the last pass is compared
                    outcomes = await asyncio.gather(*[
                        service.sign(message, "oracle")
                        for _, message in self.corpus])
                self._compare(result,
                              [outcome.signature for outcome in outcomes])
            finally:
                await service.drain()
                service.close()
        return result

    async def _run_ledger(self) -> PathResult:
        """Corpus -> transparency log -> differential audit.

        Three nets, in order: the batch signature embedded in each
        committed entry must byte-match the reference; every
        acknowledged receipt must yield an inclusion proof the
        client-side checker accepts (the pipeline's core invariant);
        and the deterministic replay audit over the raw on-disk bytes
        must re-sign every checkpoint body to the identical signature.
        """
        import tempfile
        from pathlib import Path

        from ..api import LocalClient, verify_inclusion
        from ..ledger import LedgerService, decode_entry, run_audit

        with self._path("ledger:audit") as result, \
                tempfile.TemporaryDirectory(
                    prefix="repro-oracle-ledger-") as tmp, \
                LocalClient(self._client_keystore(),
                            deterministic=True) as client:
            root = Path(tmp) / "log"
            ledger = LedgerService(
                client, tenant="oracle", root=root,
                batch_size=max(2, len(self.corpus) // 2))
            receipts = await ledger.append_many(
                [message for _, message in self.corpus])
            self._compare(result, [decode_entry(receipt.entry)[1]
                                   for receipt in receipts])
            for (case, _), receipt in zip(self.corpus, receipts):
                proof = ledger.prove(receipt.index, receipt.checkpoint.size)
                if not verify_inclusion(client, proof):
                    result.divergences.append(Divergence(
                        path=result.path, case=case, stage="inclusion",
                        verify_failed=True,
                        detail=f"acknowledged entry {receipt.index} "
                               "has no verifying inclusion proof"))
            await ledger.close()
            report = run_audit(root, client.keystore, tenant="oracle",
                               deterministic=True)
            if not report["ok"]:
                for problem in report["problems"]:
                    result.divergences.append(Divergence(
                        path=result.path, case="<audit>", stage="audit",
                        verify_failed=True, detail=problem))
            elif report["signatures_matched"] != report["checkpoints"]:
                result.divergences.append(Divergence(
                    path=result.path, case="<audit>", stage="audit",
                    verify_failed=False,
                    detail=f"only {report['signatures_matched']} of "
                           f"{report['checkpoints']} checkpoint "
                           "signatures matched the reference"))
        return result
