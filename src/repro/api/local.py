"""The in-process transport: a typed client over the signing engine.

:class:`LocalClient` is the synchronous front of a
:class:`~repro.service.engine.SigningEngine` — the same engine the served
:class:`~repro.service.server.SigningService` signs through, minus
admission, batching and the wire.  Tenant keys come from a
:class:`~repro.service.keystore.Keystore`, and one ``sign_many`` call is
one batch of the vectorized signing plan, so the local transport exposes
exactly the amortization the runtime was built for — on every CPU the
process may use: the plan runs on a worker pool the engine owns
(:func:`~repro.runtime.pool.auto_workers`) until :meth:`LocalClient.close`.
"""

from __future__ import annotations

from typing import Sequence

from ..obs.trace import SpanClock, current_trace, start_trace
from ..params import get_params
from ..runtime.pool import auto_workers
from ..service.engine import SigningEngine, require_vectorized
from ..service.keystore import Keystore, derive_seed
from .base import SigningClient
from .model import (ServiceInfo, SignRequest, SignResult, VerifyRequest,
                    VerifyResult)

__all__ = ["LocalClient"]


class LocalClient(SigningClient):
    """Sign in-process through a signing engine of its own.

    Parameters
    ----------
    keystore:
        Tenant/key registry; defaults to a fresh in-memory store
        (populate it with :meth:`add_tenant`).
    backend:
        ``vectorized``, the one signer (any other name is a
        :class:`~repro.errors.BackendError`).  Each parameter set keeps
        one layer cache for all its keys, least recently used out
        (re-derived on next use).
    workers:
        Size of the worker pool the plan runs on (0: in this process).
        Default: one pinned worker per allowed CPU from two up, none on
        one.  A stated size labels results ``transport="pooled"``;
        otherwise ``"local"``.
    tracer:
        Optional :class:`repro.obs.trace.Tracer`.  Each facade call
        records a root ``client-request`` span with the batch's
        ``sign`` and stage spans underneath, in the same trace.
    """

    def __init__(self, keystore: Keystore | None = None,
                 backend: str = "vectorized",
                 deterministic: bool = False,
                 workers: int | None = None,
                 tracer=None):
        require_vectorized(backend)
        self.keystore = keystore if keystore is not None else Keystore()
        self.tracer = tracer
        self.transport = "pooled" if workers else "local"
        # The engine starts the pool here; close() stops it.
        self.engine = SigningEngine(
            self.keystore, deterministic=deterministic,
            workers=auto_workers() if workers is None else workers)

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
        if seed is None and self.engine.deterministic:
            seed = derive_seed(f"{tenant}/{key}",
                               get_params(record.params).n)
        self.keystore.generate_key(tenant, key, seed=seed, exist_ok=True)

    # ------------------------------------------------------------------
    # Transport primitives
    # ------------------------------------------------------------------
    def _sign_many(self,
                   requests: Sequence[SignRequest]) -> list[SignResult]:
        # The facade builds the list under one (tenant, key): one
        # backend batch, results in request order.
        tenant, key = requests[0].tenant, requests[0].key
        clock = SpanClock()
        result, _ = self.engine.sign_batch(
            tenant, key, [request.message for request in requests])
        if self.tracer is not None:
            # One trace per facade batch: the root client-request span
            # plus the batch's sign/stage spans underneath.
            ctx = current_trace() or start_trace()
            self.tracer.record_sign(
                ctx, ctx.span_id, clock.start, clock.end(),
                result.stage_seconds, backend=result.backend,
                params=result.params, batch_size=result.count)
            self.tracer.record_span(
                "client-request", trace=ctx, span_id=ctx.span_id,
                start=clock.start, end=clock.end(),
                tenant=tenant, key=key, batch_size=len(requests))
        return [SignResult(
            signature=signature, tenant=tenant, key=key,
            params=result.params, backend=result.backend,
            batch_size=result.count, wait_ms=0.0,
            total_ms=round(result.elapsed_s * 1000.0, 3),
            transport=self.transport) for signature in result.signatures]

    def _verify_many(self, requests: Sequence[VerifyRequest]
                     ) -> list[VerifyResult]:
        # As the served tier: the key resolves once, the pairs are one batch.
        tenant, key = requests[0].tenant, requests[0].key
        verdicts, params_name = self.engine.verify_batch(
            tenant, key, [request.message for request in requests],
            [request.signature for request in requests])
        return [VerifyResult(valid=valid, tenant=tenant, key=key,
                             params=params_name, transport=self.transport)
                for valid in verdicts]

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def info(self) -> ServiceInfo:
        pool = self.engine.pool
        return ServiceInfo(
            transport=self.transport,
            server="in-process",
            protocol_version=2,
            verbs=("info", "keys", "sign", "sign-many", "verify",
                   "verify-many"),
            backend="vectorized",
            workers=pool.workers if pool is not None else 0,
            max_batch=None,  # no wire frame: one call, one batch, any size
            parameter_sets=tuple(sorted({
                self.keystore.params_for(name)
                for name in self.keystore.tenants()})),
        )

    def keys(self, tenant: str) -> tuple[str, ...]:
        return self.keystore.key_names(tenant)

    def close(self) -> None:
        self.engine.close()
