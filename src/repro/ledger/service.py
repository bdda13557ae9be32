"""The transparency-log pipeline: ingest, batch-sign, checkpoint, serve.

:class:`LedgerService` turns a stream of opaque event payloads into an
append-only, signed :class:`~repro.ledger.merkle.MerkleLog`:

1. **Ingest** — ``await ledger.append(payload)`` parks the event on the
   pending batch (the same deadline-batching idea as the signing
   service: first arrival starts a ``max_wait_ms`` window, a full batch
   seals immediately).
2. **Batch-sign** — the pending payloads go through the typed facade's
   ``sign_many`` in one call, on *any* transport (local, pooled, tcp,
   cluster), so the ledger exercises whatever tier it is pointed at.
3. **Checkpoint** — the batch's candidate tree head is signed (one
   ``sign`` call) *before* anything is committed; only then do the
   entries land on disk as one segment and the signed checkpoint as one
   checkpoint file, both fsync-then-rename.

The ordering is the crash-safety argument for the pipeline's core
invariant — **no accepted-but-unverifiable entries**: an append is
acknowledged only after its entries and a checkpoint covering them are
durable, so every acknowledged receipt can produce an inclusion proof
against a signed tree head; every failure before that point surfaces to
the caller as the typed error the signing tier raised.  A crash between
the segment write and the checkpoint write leaves an *unacknowledged*
tail, which reload truncates.

Serving rides the existing stack: ``ledger_registry()`` in
:mod:`repro.service.verbs` adds the ``log-append`` / ``log-proof`` /
``log-checkpoint`` verbs, and :class:`LedgerServer` below is a stock
:class:`~repro.service.server.SigningServer` carrying a ledger, so one
port serves both signing and the log (v2 JSON lines and v3 frames,
negotiated by ``hello`` exactly like every other verb).
"""

from __future__ import annotations

import asyncio
import base64
import json
import time
from dataclasses import dataclass
from pathlib import Path

from ..durable import write_durably
from ..errors import LedgerError, ProtocolError
from ..obs.trace import (SpanClock, Tracer, current_trace, start_trace,
                         use_trace)
from ..service.server import SigningServer, SigningService
from .merkle import EMPTY_ROOT, MerkleLog, leaf_hash

__all__ = ["AppendReceipt", "Checkpoint", "InclusionProof", "LedgerServer",
           "LedgerService", "checkpoint_body", "decode_entry",
           "encode_entry"]

#: Checkpoint files live here under the log root, one per sealed size.
CHECKPOINT_DIR = "checkpoints"
_INDEX_WIDTH = 12

#: Most pending appends one seal consumes (sign_many chunks internally,
#: so this bounds checkpoint cadence, not wire frames).
MAX_SEAL_BATCH = 64


def checkpoint_body(log_id: str, size: int, root: bytes,
                    prev_root: bytes) -> bytes:
    """The canonical byte string a signed tree head signs.

    Deterministic and self-describing (origin line first, one field per
    line), so the differential oracle can byte-compare a checkpoint
    signature against the reference scheme signing the same body.
    """
    return (f"repro-ledger-checkpoint/v1\n"
            f"origin:{log_id}\n"
            f"size:{size}\n"
            f"root:{root.hex()}\n"
            f"prev:{prev_root.hex()}\n").encode("utf-8")


def encode_entry(payload: bytes, signature: bytes) -> bytes:
    """One log entry blob: the event payload plus its batch signature.

    The signature is *inside* the leaf, so inclusion proofs cover it —
    a swapped signature changes the leaf hash and breaks the proof.
    """
    return len(payload).to_bytes(4, "big") + payload + signature


def decode_entry(blob: bytes) -> tuple[bytes, bytes]:
    """``entry blob -> (payload, signature)``; raises on truncation."""
    if len(blob) < 4:
        raise LedgerError(f"entry blob of {len(blob)} bytes has no header")
    length = int.from_bytes(blob[:4], "big")
    if len(blob) < 4 + length:
        raise LedgerError(
            f"entry blob truncated: payload wants {length} bytes, "
            f"{len(blob) - 4} present")
    return bytes(blob[4:4 + length]), bytes(blob[4 + length:])


@dataclass(frozen=True)
class Checkpoint:
    """One signed tree head: ``signature`` covers :attr:`body`."""

    log_id: str
    size: int
    root: bytes
    prev_root: bytes
    signature: bytes
    params: str
    tenant: str
    key: str

    @property
    def body(self) -> bytes:
        """The signed bytes, recomputed from the fields — a wire peer
        cannot decouple the signature from what it claims to cover."""
        return checkpoint_body(self.log_id, self.size, self.root,
                               self.prev_root)

    def as_dict(self) -> dict:
        return {
            "log_id": self.log_id, "size": self.size,
            "root": self.root.hex(), "prev_root": self.prev_root.hex(),
            "signature": base64.b64encode(self.signature).decode("ascii"),
            "params": self.params, "tenant": self.tenant, "key": self.key,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Checkpoint":
        try:
            return cls(
                log_id=data["log_id"], size=int(data["size"]),
                root=bytes.fromhex(data["root"]),
                prev_root=bytes.fromhex(data["prev_root"]),
                signature=base64.b64decode(data["signature"]),
                params=data["params"], tenant=data["tenant"],
                key=data["key"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed checkpoint: {exc}") from exc


def load_checkpoints(root: Path) -> list[Checkpoint]:
    """Every checkpoint sealed under the log at *root*, smallest first; a
    file that does not parse raises :class:`LedgerError` naming it."""
    checkpoints = []
    for path in sorted((root / CHECKPOINT_DIR).glob("*.json")):
        try:
            checkpoints.append(
                Checkpoint.from_dict(json.loads(path.read_text())))
        except (ValueError, ProtocolError) as exc:
            raise LedgerError(
                f"corrupt checkpoint {path.name}: {exc}") from exc
    return sorted(checkpoints, key=lambda c: c.size)


@dataclass(frozen=True)
class AppendReceipt:
    """What an acknowledged append proves: where the entry landed and
    the signed checkpoint that covers it."""

    index: int
    leaf_hash: bytes
    entry: bytes
    checkpoint: Checkpoint


@dataclass(frozen=True)
class InclusionProof:
    """One served inclusion proof, self-contained for verification."""

    index: int
    size: int
    entry: bytes
    path: tuple[bytes, ...]
    checkpoint: Checkpoint

    def as_dict(self) -> dict:
        return {
            "index": self.index, "size": self.size,
            "entry": base64.b64encode(self.entry).decode("ascii"),
            "leaf_hash": leaf_hash(self.entry).hex(),
            "path": [node.hex() for node in self.path],
            "checkpoint": self.checkpoint.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InclusionProof":
        try:
            return cls(
                index=int(data["index"]), size=int(data["size"]),
                entry=base64.b64decode(data["entry"]),
                path=tuple(bytes.fromhex(node) for node in data["path"]),
                checkpoint=Checkpoint.from_dict(data["checkpoint"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed inclusion proof: {exc}") from exc


class LedgerService:
    """Batch-signed transparency log over any ``repro.api`` client.

    Parameters
    ----------
    client:
        A typed signing client — the sync :class:`~repro.api.SigningClient`
        facade (local / pooled / tcp / cluster) or the asyncio
        ``AsyncClient``.  Sync clients run on a worker thread so signing
        never blocks the event loop.
    tenant / key:
        The log's signing identity; entries and checkpoints both sign
        under it, so ``verify`` against the same keystore checks both.
    root:
        Log directory (segments + checkpoints); ``None`` = memory-only.
    batch_size / max_wait_ms:
        Seal policy: a full pending batch seals immediately, a partial
        one when the oldest append has waited *max_wait_ms*.
    metrics / tracer:
        The unified registry (``repro_ledger_*`` counters/gauges) and
        span sink (``append`` / ``seal`` / ``prove`` spans; one trace id
        covers ingest → batch-sign → checkpoint for each seal).
    """

    def __init__(self, client, *, tenant: str = "ledger",
                 key: str = "default", root: str | Path | None = None,
                 log_id: str = "repro-ledger", batch_size: int = 8,
                 max_wait_ms: float = 25.0, metrics=None,
                 tracer: Tracer | None = None):
        if batch_size < 1:
            raise LedgerError(f"batch_size must be >= 1, got {batch_size}")
        self._client = client
        self.tenant = tenant
        self.key = key
        self.log_id = log_id
        self.batch_size = batch_size
        self.max_wait_ms = max_wait_ms
        self.root = Path(root) if root is not None else None
        self.tracer = tracer
        self._checkpoints: dict[int, Checkpoint] = {}
        self._head: Checkpoint | None = None
        if self.root is not None:
            (self.root / CHECKPOINT_DIR).mkdir(parents=True, exist_ok=True)
            for checkpoint in load_checkpoints(self.root):
                self._checkpoints[checkpoint.size] = checkpoint
                self._head = checkpoint
        self.log = MerkleLog(
            self.root,
            trusted_size=self._head.size if self._head is not None else 0)
        #: (payload, future, ambient trace, enqueue wall time) per append.
        self._pending: list = []
        self._sealer: asyncio.Task | None = None
        self._wake = asyncio.Event()
        self._closed = False
        if metrics is None:
            from ..obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics
        self._acked = metrics.counter(
            "repro_ledger_appends_total",
            "ledger appends by outcome", outcome="acked")
        self._failed = metrics.counter(
            "repro_ledger_appends_total",
            "ledger appends by outcome", outcome="failed")
        self._sealed = metrics.counter(
            "repro_ledger_checkpoints_total", "signed tree heads sealed")
        self._proofs = metrics.counter(
            "repro_ledger_proofs_total", "proofs served", kind="inclusion")
        self._consistency = metrics.counter(
            "repro_ledger_proofs_total", "proofs served",
            kind="consistency")
        self._entries_gauge = metrics.gauge(
            "repro_ledger_entries", "entries covered by the head checkpoint")
        self._entries_gauge.set(float(self.log.size))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def head(self) -> Checkpoint | None:
        """The latest signed checkpoint (``None`` before the first seal)."""
        return self._head

    def checkpoint_for(self, size: int) -> Checkpoint:
        checkpoint = self._checkpoints.get(size)
        if checkpoint is None:
            sealed = sorted(self._checkpoints)
            raise LedgerError(
                f"no sealed checkpoint at size {size} "
                f"(sealed sizes: {sealed if sealed else '<none>'})")
        return checkpoint

    def stats(self) -> dict:
        return {
            "log_id": self.log_id, "tenant": self.tenant, "key": self.key,
            "entries": self.log.size,
            "checkpoints": len(self._checkpoints),
            "head_size": self._head.size if self._head else 0,
            "head_root": self._head.root.hex() if self._head else None,
            "pending": len(self._pending),
        }

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    async def append(self, payload: bytes) -> AppendReceipt:
        """Ingest one event; resolves once a signed checkpoint covers it.

        Raises the typed signing-tier error (``OverloadedError``,
        ``NodeUnavailableError``, ...) when the batch could not seal —
        in that case nothing was committed and the event is not in the
        log.
        """
        if self._closed:
            raise LedgerError("ledger closed; appends are not accepted")
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise ProtocolError(
                f"payload must be bytes, got {type(payload).__name__}")
        future = asyncio.get_running_loop().create_future()
        ctx = current_trace()
        if ctx is None and self.tracer is not None:
            ctx = start_trace()
        self._pending.append((bytes(payload), future, ctx, time.time()))
        if len(self._pending) >= self.batch_size:
            self._wake.set()
        if self._sealer is None or self._sealer.done():
            self._sealer = asyncio.ensure_future(self._seal_loop())
        return await future

    async def append_many(self, payloads) -> list[AppendReceipt]:
        """Ingest a burst; entries share seal batches where possible."""
        return list(await asyncio.gather(
            *(self.append(payload) for payload in payloads)))

    async def drain(self) -> None:
        """Wait until every pending append has sealed or failed."""
        while self._sealer is not None and not self._sealer.done():
            self._wake.set()
            await asyncio.shield(self._sealer)

    async def close(self) -> None:
        await self.drain()
        self._closed = True

    # ------------------------------------------------------------------
    # Seal (batch-sign + checkpoint)
    # ------------------------------------------------------------------
    async def _seal_loop(self) -> None:
        while self._pending:
            if len(self._pending) < self.batch_size:
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(),
                                           self.max_wait_ms / 1000.0)
                except asyncio.TimeoutError:
                    pass
            batch, self._pending = (self._pending[:MAX_SEAL_BATCH],
                                    self._pending[MAX_SEAL_BATCH:])
            if batch:
                await self._seal(batch)

    async def _call(self, method, /, *args, **kwargs):
        """Run one client call: await asyncio clients, thread sync ones.

        ``asyncio.to_thread`` copies the contextvars context, so the
        ambient trace installed by the sealer reaches a sync client's
        own span recording.
        """
        if asyncio.iscoroutinefunction(method):
            return await method(*args, **kwargs)
        return await asyncio.to_thread(method, *args, **kwargs)

    async def _seal(self, batch: list) -> None:
        payloads = [payload for payload, _, _, _ in batch]
        ctx = next((ctx for _, _, ctx, _ in batch if ctx is not None), None)
        clock = SpanClock()
        try:
            with use_trace(ctx):
                results = await self._call(
                    self._client.sign_many, self.tenant, payloads,
                    key=self.key)
                entries = [encode_entry(payload, result.signature)
                           for payload, result in zip(payloads, results)]
                new_size, new_root = self.log.preview(entries)
                prev_root = (self._head.root if self._head is not None
                             else EMPTY_ROOT)
                body = checkpoint_body(self.log_id, new_size, new_root,
                                       prev_root)
                head_result = await self._call(
                    self._client.sign, self.tenant, body, key=self.key)
        except Exception as exc:  # noqa: BLE001 — typed errors fan out
            self._failed.inc(len(batch))
            for _, future, _, _ in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        # Commit: entries first (their own fsync'd segment), then the
        # checkpoint that covers them; a crash in between leaves an
        # unacknowledged tail that reload truncates.
        start = self.log.append(entries)
        checkpoint = Checkpoint(
            log_id=self.log_id, size=new_size, root=new_root,
            prev_root=prev_root, signature=head_result.signature,
            params=head_result.params, tenant=self.tenant, key=self.key)
        self._persist_checkpoint(checkpoint)
        self._checkpoints[new_size] = checkpoint
        self._head = checkpoint
        self._sealed.inc()
        self._acked.inc(len(batch))
        self._entries_gauge.set(float(new_size))
        ended = clock.end()
        if self.tracer is not None and ctx is not None:
            self.tracer.record_span(
                "seal", trace=ctx, span_id=ctx.span_id,
                start=clock.start, end=ended, tenant=self.tenant,
                batch_size=len(batch), size=new_size)
        for offset, (_, future, entry_ctx, enqueued) in enumerate(batch):
            if self.tracer is not None and (entry_ctx or ctx) is not None:
                span_ctx = entry_ctx if entry_ctx is not None else ctx
                self.tracer.record_span(
                    "append", trace=span_ctx, parent_id=span_ctx.span_id,
                    start=enqueued, end=ended, index=start + offset)
            if not future.done():
                future.set_result(AppendReceipt(
                    index=start + offset,
                    leaf_hash=leaf_hash(entries[offset]),
                    entry=entries[offset], checkpoint=checkpoint))

    # ------------------------------------------------------------------
    # Proofs
    # ------------------------------------------------------------------
    def prove(self, index: int, size: int | None = None) -> InclusionProof:
        """An inclusion proof for entry *index* against a sealed
        checkpoint (default: the head)."""
        if self._head is None:
            raise LedgerError("the log has no sealed checkpoint yet")
        size = self._head.size if size is None else size
        checkpoint = self.checkpoint_for(size)
        clock = SpanClock()
        proof = InclusionProof(
            index=index, size=size, entry=self.log.entry(index),
            path=tuple(self.log.inclusion_path(index, size)),
            checkpoint=checkpoint)
        self._proofs.inc()
        if self.tracer is not None:
            ctx = current_trace()
            if ctx is not None:
                self.tracer.record_span(
                    "prove", trace=ctx, parent_id=ctx.span_id,
                    start=clock.start, end=clock.end(), index=index,
                    size=size)
        return proof

    def consistency(self, since: int) -> tuple[Checkpoint, list[bytes]]:
        """The head checkpoint plus the proof it extends size *since*."""
        if self._head is None:
            raise LedgerError("the log has no sealed checkpoint yet")
        self.checkpoint_for(since)  # only sealed sizes are provable
        path = self.log.consistency_path(since, self._head.size)
        self._consistency.inc()
        return self._head, path

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _checkpoint_path(self, size: int) -> Path:
        assert self.root is not None
        return (self.root / CHECKPOINT_DIR
                / f"{size:0{_INDEX_WIDTH}d}.json")

    def _persist_checkpoint(self, checkpoint: Checkpoint) -> None:
        if self.root is None:
            return
        write_durably(self._checkpoint_path(checkpoint.size),
                      json.dumps(checkpoint.as_dict(), indent=2) + "\n",
                      0o644)


class LedgerServer(SigningServer):
    """One port serving both the signing verbs and the transparency log.

    A stock :class:`SigningServer` whose registry includes the ledger
    verbs; the verb handlers reach the log through :attr:`ledger`.
    """

    def __init__(self, service: SigningService, ledger: LedgerService,
                 host: str = "127.0.0.1", port: int = 7744):
        from ..service.verbs import ledger_registry

        super().__init__(service, host=host, port=port,
                         registry=ledger_registry())
        self.ledger = ledger
