"""``repro.service`` — the async signing service tier.

PR 1 made SPHINCS+ batch signing fast as a *library*; this package makes
it a *service*: individual requests arrive concurrently (over TCP or the
in-process API), queue per key, and sign one batch at a time,
earliest deadline first, and come back with per-request latency
accounting.  Batch size follows load: whatever queued behind the batch
in flight, up to ``target_batch_size``, signs as the next one.

Module map
----------
:mod:`.keystore`
    Multi-tenant key registry: named keys, one parameter set per tenant,
    atomic on-disk persistence (one JSON file per tenant, fanned into
    256 hash-bucket shard directories), an LRU bound on resident
    tenants, and per-tenant admission rate limiting.
:mod:`.batcher`
    :class:`DeadlineBatcher` — per-(tenant, key) queues and one drain
    task: one batch signs at a time, the queue with the earliest
    deadline next, and arrivals in one loop turn ride one batch.
:mod:`.engine`
    :class:`~.engine.SigningEngine` — keys, executor, backends, verifiers,
    cache invalidation: what the service and ``repro.api``'s local client use.
:mod:`.server`
    :class:`SigningService` (engine + batcher + admission control +
    telemetry, in-process ``await service.sign(...)`` API) and
    :class:`SigningServer` (the newline-delimited JSON TCP front end).
:mod:`.client`
    :class:`ServiceClient` — the pipelined wire transport: one typed
    ``call(op, **fields)`` whatever the connection speaks; many in-flight
    requests per connection, matched by request id.
:mod:`.protocol`
    The wire format, and the only module that knows which dialect a
    connection speaks after its mandatory ``hello``: one JSON object per
    line with base64 binary fields (v2) or binary frames (v3); stable
    error codes; version constants.
:mod:`.verbs`
    The verb registry the server dispatches through: one table of
    schema-validated handlers (adding a verb is one ``Verb(...)`` row,
    not another if/elif branch).
:mod:`.telemetry`
    Per-tenant counters, queue-depth peaks, batch-size histogram,
    p50/p95/p99 latency — as a JSON snapshot (the ``stats`` verb) and a
    rendered report.
:mod:`.loadgen`
    Poisson / bursty / ramp arrival traces and :class:`LoadGenerator`,
    which replays them against a live service and reports what the
    *client* observed.

CLI entry points: ``python -m repro serve-async`` runs a server;
``python -m repro loadtest`` drives one (self-hosting it if no
``--connect`` target is given).  Client code should prefer the typed
facade in :mod:`repro.api` over the wire-level :class:`ServiceClient`.
"""

from ..errors import (ConnectionLostError, KeystoreError, OverloadedError,
                      ProtocolError, ServiceError, UnknownVerbError,
                      UnsupportedVersionError)
from .batcher import DeadlineBatcher, PendingSign
from .client import ServiceClient
from .keystore import Keystore, TenantRecord, derive_seed
from .loadgen import (TRACES, LoadGenerator, LoadReport, bursty_trace,
                      make_trace, poisson_trace, ramp_trace)
from .server import SigningServer, SigningService, SignOutcome
from .telemetry import Telemetry, percentile, render_snapshot
from .verbs import ConnectionState, FieldSpec, Verb, VerbRegistry, \
    default_registry

__all__ = [
    "ConnectionState", "FieldSpec", "Verb", "VerbRegistry",
    "default_registry",
    "UnknownVerbError", "UnsupportedVersionError", "ConnectionLostError",
    "DeadlineBatcher", "PendingSign",
    "Keystore", "TenantRecord", "derive_seed",
    "SigningService", "SigningServer", "SignOutcome",
    "ServiceClient",
    "Telemetry", "percentile", "render_snapshot",
    "LoadGenerator", "LoadReport", "TRACES", "make_trace",
    "poisson_trace", "bursty_trace", "ramp_trace",
    "ServiceError", "KeystoreError", "OverloadedError", "ProtocolError",
]
