"""The in-process transport: a typed client over the batch runtime.

:class:`LocalClient` fronts a :class:`~repro.runtime.scheduler.BatchScheduler`
per ``(tenant, key)`` — tenant keys come from a
:class:`~repro.service.keystore.Keystore` (injected through the
scheduler's ``keys_provider`` hook), and any registered backend can
execute, including ``pooled`` for multi-core fan-out.  One ``sign_many``
call is one scheduler batch, so the local transport exposes exactly the
amortization the runtime was built for.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..obs.trace import current_trace, start_trace, use_trace
from ..runtime.fastops import FastVerifier
from ..runtime.scheduler import BatchScheduler, BatchStats
from ..service.keystore import Keystore, derive_seed
from .base import SigningClient
from .model import (ServiceInfo, SignRequest, SignResult, VerifyRequest,
                    VerifyResult)

__all__ = ["LocalClient"]

#: Queues never auto-dispatch: every facade call flushes explicitly, so
#: one ``sign_many`` call maps to exactly one scheduler batch.
_NEVER_AUTODISPATCH = 1 << 30


class LocalClient(SigningClient):
    """Sign in-process through the batch runtime.

    Parameters
    ----------
    keystore:
        Tenant/key registry; defaults to a fresh in-memory store
        (populate it with :meth:`add_tenant`).
    backend:
        Any registered runtime backend — ``vectorized`` (default),
        ``scalar``, ``modeled-gpu``, or ``pooled`` for the multi-core
        worker-pool tier.
    backend_options:
        Per-backend constructor kwargs, e.g.
        ``{"pooled": {"workers": 4}}``.
    transport_label:
        Result/telemetry label; defaults to ``"pooled"`` when the pooled
        backend executes, ``"local"`` otherwise.
    tracer:
        Optional :class:`repro.obs.trace.Tracer`.  Each facade call
        records a root ``client-request`` span and runs its scheduler
        batch inside that trace context, so the scheduler's ``sign`` and
        stage spans join the same trace.
    """

    def __init__(self, keystore: Keystore | None = None,
                 backend: str = "vectorized",
                 deterministic: bool = False,
                 backend_options: dict[str, dict] | None = None,
                 transport_label: str | None = None,
                 tracer=None):
        self.keystore = keystore if keystore is not None else Keystore()
        self.backend_name = backend
        self.deterministic = deterministic
        self.tracer = tracer
        self.backend_options = dict(backend_options or {})
        self.transport = transport_label or (
            "pooled" if backend == "pooled" else "local")
        self._schedulers: dict[tuple[str, str], BatchScheduler] = {}
        self._verifiers: dict[str, FastVerifier] = {}
        self._pool = None
        self._owns_pool = False
        if backend == "pooled":
            # One worker pool shared by every (tenant, key) scheduler —
            # without this, each tenant would spawn its own processes.
            options = dict(self.backend_options.get("pooled", {}))
            if options.get("pool") is None:
                from ..runtime.pool import WorkerPool

                options["pool"] = WorkerPool(
                    workers=options.pop("workers", 2))
                self._owns_pool = True
            self._pool = options["pool"]
            self.backend_options["pooled"] = options
        self._closed = False

    # ------------------------------------------------------------------
    # Tenant management convenience (local transport only: remote tenants
    # are provisioned server-side)
    # ------------------------------------------------------------------
    def add_tenant(self, tenant: str, params: str = "128f",
                   key: str = "default",
                   seed: bytes | None = None) -> None:
        """Register *tenant* and generate its named key if absent.

        With ``deterministic=True`` and no explicit seed, the key derives
        from ``"<tenant>/<key>"`` — the same convention the service CLI
        uses, so local and served deterministic tenants agree.
        """
        record = self.keystore.add_tenant(tenant, params, exist_ok=True)
        if key not in self.keystore.key_names(tenant):
            if seed is None and self.deterministic:
                from ..params import get_params

                seed = derive_seed(f"{tenant}/{key}",
                                   get_params(record.params).n)
            self.keystore.generate_key(tenant, key, seed=seed)

    # ------------------------------------------------------------------
    # Transport primitives
    # ------------------------------------------------------------------
    def _scheduler_for(self, tenant: str, key: str) -> BatchScheduler:
        entry = self._schedulers.get((tenant, key))
        if entry is None:
            keys, _ = self.keystore.resolve(tenant, key)
            entry = BatchScheduler(
                target_batch_size=_NEVER_AUTODISPATCH,
                backend=self.backend_name,
                deterministic=self.deterministic,
                backend_options=self.backend_options,
                keys_provider=lambda params_name, _keys=keys: _keys,
                tracer=self.tracer,
            )
            self._schedulers[(tenant, key)] = entry
        return entry

    def _result(self, request: SignRequest, signature: bytes,
                stats: BatchStats) -> SignResult:
        return SignResult(
            signature=signature, tenant=request.tenant, key=request.key,
            params=stats.params, backend=stats.backend,
            batch_size=stats.count, wait_ms=0.0,
            total_ms=round(stats.elapsed_s * 1000.0, 3),
            transport=self.transport,
        )

    def _sign(self, request: SignRequest) -> SignResult:
        return self._sign_many([request])[0]

    def _sign_many(self,
                   requests: Sequence[SignRequest]) -> list[SignResult]:
        # Group by (tenant, key): each group is one scheduler batch, and
        # results come back in request order.
        groups: dict[tuple[str, str], list[tuple[int, SignRequest]]] = {}
        for index, request in enumerate(requests):
            groups.setdefault((request.tenant, request.key), []).append(
                (index, request))
        results: list[SignResult | None] = [None] * len(requests)
        for (tenant, key), members in groups.items():
            _, params_name = self.keystore.resolve(tenant, key)
            scheduler = self._scheduler_for(tenant, key)
            if self.tracer is not None:
                # One trace per facade batch: the root client-request
                # span plus the scheduler's sign/stage spans underneath.
                ctx = current_trace() or start_trace()
                # Wall clock anchors the span; duration is monotonic so
                # an NTP step mid-batch cannot distort it.
                started = time.time()
                started_mono = time.perf_counter()
                with use_trace(ctx):
                    tickets = [scheduler.submit(request.message,
                                                params=params_name)
                               for _, request in members]
                    [stats] = scheduler.flush()
                self.tracer.record_span(
                    "client-request", trace=ctx, span_id=ctx.span_id,
                    start=started,
                    end=started + (time.perf_counter() - started_mono),
                    tenant=tenant, key=key, batch_size=len(members))
            else:
                tickets = [scheduler.submit(request.message,
                                            params=params_name)
                           for _, request in members]
                [stats] = scheduler.flush()
            for (index, request), ticket in zip(members, tickets):
                signature = scheduler.claim(ticket)
                assert signature is not None  # flushed above
                results[index] = self._result(request, signature, stats)
        return [result for result in results if result is not None]

    def _verify(self, request: VerifyRequest) -> VerifyResult:
        keys, params_name = self.keystore.resolve(request.tenant,
                                                  request.key)
        verifier = self._verifiers.get(params_name)
        if verifier is None:
            verifier = self._verifiers[params_name] = FastVerifier(params_name)
        [valid] = verifier.verify_batch([request.message],
                                        [request.signature], keys.public)
        return VerifyResult(valid=valid, tenant=request.tenant,
                            key=request.key, params=params_name,
                            transport=self.transport)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def info(self) -> ServiceInfo:
        workers = self._pool.workers if self._pool is not None else 0
        return ServiceInfo(
            transport=self.transport,
            server="in-process",
            protocol_version=2,
            verbs=("info", "keys", "sign", "sign-many", "verify",
                   "verify-many"),
            backend=self.backend_name,
            workers=workers,
            max_batch=None,  # no wire frame: one call, one batch, any size
            parameter_sets=tuple(sorted({
                self.keystore.params_for(name)
                for name in self.keystore.tenants()})),
        )

    def keys(self, tenant: str) -> tuple[str, ...]:
        return self.keystore.key_names(tenant)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._schedulers.clear()
        if self._pool is not None and self._owns_pool:
            self._pool.close()
