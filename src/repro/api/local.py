"""The in-process transport: a typed client over the batch runtime.

:class:`LocalClient` fronts a :class:`~repro.runtime.scheduler.BatchScheduler`
per ``(tenant, key)`` — tenant keys come from a
:class:`~repro.service.keystore.Keystore` (injected through the
scheduler's ``keys_provider`` hook), and any registered backend can
execute.  One ``sign_many`` call is one scheduler batch, so the local
transport exposes exactly the amortization the runtime was built for —
on every CPU the process may use: the default ``vectorized`` plan runs on
a worker pool the client owns (:func:`~repro.runtime.pool.auto_workers`)
until :meth:`LocalClient.close`.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..obs.trace import current_trace, start_trace, use_trace
from ..runtime.fastops import FastVerifier
from ..runtime.pool import auto_workers, plan_executor
from ..runtime.scheduler import BatchScheduler
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
        Any registered runtime backend — ``vectorized`` (default: one
        pinned worker process per allowed CPU from two up, in-process
        on one), ``scalar``, ``modeled-gpu``, or ``pooled`` for a
        worker pool of a fixed size.
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
        self.transport = transport_label or (
            "pooled" if backend == "pooled" else "local")
        self._schedulers: dict[tuple[str, str], BatchScheduler] = {}
        self._verifiers: dict[str, FastVerifier] = {}
        # One pool under every (tenant, key) scheduler, started here and
        # stopped by close(): a worker per allowed CPU for ``vectorized``
        # (none on one CPU), the size it was given for ``pooled``.
        options = dict((backend_options or {}).get(backend, {}))
        workers = (auto_workers() if backend == "vectorized"
                   else options.pop("workers", 2) if backend == "pooled"
                   else 0)
        self._engine, self.backend_options, self._pool = plan_executor(
            backend, workers, options)
        # A rotated or deleted key must stop signing here too.
        self.keystore.add_listener(self._on_key_event)

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
    def _on_key_event(self, event: str, tenant: str, key: str,
                      old_keys) -> None:
        """Keystore listener: the scheduler holds the retired key pair
        and, through its backend, that key's layer cache and replay memo
        — drop all of it; the next request resolves the new key."""
        self._schedulers.pop((tenant, key), None)

    def _scheduler_for(self, tenant: str, key: str) -> BatchScheduler:
        entry = self._schedulers.get((tenant, key))
        if entry is None:
            keys, _ = self.keystore.resolve(tenant, key)
            entry = BatchScheduler(
                target_batch_size=_NEVER_AUTODISPATCH,
                backend=self._engine,
                deterministic=self.deterministic,
                backend_options=self.backend_options,
                keys_provider=lambda params_name, _keys=keys: _keys,
                tracer=self.tracer,
            )
            self._schedulers[(tenant, key)] = entry
        return entry

    def _sign(self, request: SignRequest) -> SignResult:
        return self._sign_many([request])[0]

    def _sign_many(self,
                   requests: Sequence[SignRequest]) -> list[SignResult]:
        # The facade builds the list under one (tenant, key): one
        # scheduler batch, results in request order.
        tenant, key = requests[0].tenant, requests[0].key
        _, params_name = self.keystore.resolve(tenant, key)
        scheduler = self._scheduler_for(tenant, key)
        # One trace per facade batch: the root client-request span plus
        # the scheduler's sign/stage spans underneath.
        ctx = ((current_trace() or start_trace())
               if self.tracer is not None else current_trace())
        # Wall clock anchors the span; duration is monotonic so an NTP
        # step mid-batch cannot distort it.
        started, started_mono = time.time(), time.perf_counter()
        with use_trace(ctx):
            tickets = [scheduler.submit(request.message, params=params_name)
                       for request in requests]
            [stats] = scheduler.flush()
        if self.tracer is not None:
            self.tracer.record_span(
                "client-request", trace=ctx, span_id=ctx.span_id,
                start=started,
                end=started + (time.perf_counter() - started_mono),
                tenant=tenant, key=key, batch_size=len(requests))
        return [SignResult(
            signature=scheduler.claim(ticket), tenant=tenant, key=key,
            params=stats.params, backend=stats.backend,
            batch_size=stats.count, wait_ms=0.0,
            total_ms=round(stats.elapsed_s * 1000.0, 3),
            transport=self.transport) for ticket in tickets]

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
        self._schedulers.clear()
        if self._pool is not None:
            self._pool.close()
