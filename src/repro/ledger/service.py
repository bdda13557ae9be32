"""The transparency-log pipeline: ingest, batch-sign, checkpoint, serve.

:class:`LedgerService` turns a stream of opaque event payloads into an
append-only, signed :class:`~repro.ledger.merkle.MerkleLog`:

1. **Ingest** — ``await ledger.append(payload)`` queues the event on
   the signing service's :class:`~repro.service.batcher.DeadlineBatcher`,
   whose dispatch is the seal: one seal in flight, the next taking up to
   ``batch_size`` of what arrived meanwhile, and no timer.
2. **Batch-sign** — a worker thread sends the pending payloads through
   the typed facade's ``sign_many`` on *any* transport (local, pooled,
   tcp, cluster), so the ledger exercises whatever tier it points at.
3. **Checkpoint** — a second worker-thread job signs the candidate tree
   head, then writes the segment and the checkpoint (fsync-then-rename);
   only then does the loop extend the in-memory log and move the head.

The ordering is the crash-safety argument for the pipeline's core
invariant — **no accepted-but-unverifiable entries**: an append is
acknowledged only after its entries and a checkpoint covering them are
durable, so every acknowledged receipt can produce an inclusion proof
against a signed tree head.  A failure anywhere in the seal — signing,
the segment write or the checkpoint write — fails every append of that
seal with the error raised, and the next seal starts from the last
signed head.  A failed write, or a crash between the two, leaves an
*unacknowledged* tail on disk, which the next seal overwrites and
reload truncates.

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
import threading
from dataclasses import dataclass
from pathlib import Path

from ..durable import make_dirs, write_durably
from ..errors import LedgerError, ProtocolError
from ..obs.trace import (SpanClock, Tracer, current_trace, start_trace,
                         use_trace)
from ..service.batcher import DeadlineBatcher, PendingSign, QueueKey
from ..service.server import SigningServer, SigningService
from .merkle import EMPTY_ROOT, MerkleLog, leaf_hash

__all__ = ["AppendReceipt", "Checkpoint", "InclusionProof", "LedgerServer",
           "LedgerService", "checkpoint_body", "decode_entry",
           "encode_entry"]

#: Checkpoint files live here under the log root, one per sealed size.
CHECKPOINT_DIR = "checkpoints"
_INDEX_WIDTH = 12


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
        The sync :class:`~repro.api.SigningClient` facade (local / pooled
        / tcp / cluster), called from worker threads only.  An asyncio
        ``AsyncClient`` on the ledger's loop is hosted in that facade.
    tenant / key:
        The log's signing identity; entries and checkpoints both sign
        under it, so ``verify`` against the same keystore checks both.
    root:
        Log directory (segments + checkpoints); ``None`` = memory-only.
    batch_size:
        The most appends one seal takes.  Appends queue on a
        :class:`~repro.service.batcher.DeadlineBatcher`: a lone append
        to an idle ledger seals at once, appends arriving while a seal
        is in flight wait for the next one, and a longer queue seals in
        waves of *batch_size*.  A failure anywhere in a seal fails that
        seal's appends and commits none of them.
    metrics / tracer:
        The unified registry (``repro_ledger_*`` counters/gauges) and
        span sink (``append`` / ``seal`` / ``prove`` spans; one trace id
        covers ingest → batch-sign → checkpoint for each seal).
    """

    def __init__(self, client, *, tenant: str = "ledger",
                 key: str = "default", root: str | Path | None = None,
                 log_id: str = "repro-ledger", batch_size: int = 64,
                 metrics=None, tracer: Tracer | None = None):
        if batch_size < 1:
            raise LedgerError(f"batch_size must be >= 1, got {batch_size}")
        from ..api.tcp import AsyncClient, TcpClient

        if isinstance(client, AsyncClient):
            client = TcpClient(client, asyncio.get_running_loop(),
                               threading.current_thread())
        self._client = client
        self.tenant = tenant
        self.key = key
        self.log_id = log_id
        self.root = Path(root) if root is not None else None
        self.tracer = tracer
        self._checkpoints: dict[int, Checkpoint] = {}
        self._head: Checkpoint | None = None
        if self.root is not None:
            make_dirs(self.root / CHECKPOINT_DIR)
            for checkpoint in load_checkpoints(self.root):
                self._checkpoints[checkpoint.size] = checkpoint
                self._head = checkpoint
        self.log = MerkleLog(
            self.root,
            trusted_size=self._head.size if self._head is not None else 0)
        self._batcher = DeadlineBatcher(self._seal,
                                        target_batch_size=batch_size)
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
            "pending": self._batcher.pending,
        }

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    async def append(self, payload: bytes) -> AppendReceipt:
        """Ingest one event; resolves once a signed checkpoint covers it.

        Raises the error that stopped its seal — the typed signing-tier
        error (``OverloadedError``, ``NodeUnavailableError``, ...) or the
        failed segment or checkpoint write's ``OSError``; the event is
        then not in the log.
        """
        if self._batcher.closed:
            raise LedgerError("ledger closed; appends are not accepted")
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise ProtocolError(
                f"payload must be bytes, got {type(payload).__name__}")
        ctx = current_trace()
        if ctx is None and self.tracer is not None:
            ctx = start_trace()
        return await self._batcher.submit(self.tenant, self.key,
                                          bytes(payload), trace=ctx)

    async def append_many(self, payloads) -> list[AppendReceipt]:
        """Ingest a burst; entries share seal batches where possible."""
        return list(await asyncio.gather(
            *(self.append(payload) for payload in payloads)))

    async def close(self) -> None:
        """Seal what is queued or in flight, then refuse appends."""
        await self._batcher.flush()
        self._batcher.close()

    # ------------------------------------------------------------------
    # Seal (batch-sign + checkpoint)
    # ------------------------------------------------------------------
    async def _seal(self, queue_key: QueueKey,
                    batch: list[PendingSign]) -> None:
        """The batcher's dispatch: sign *batch*, then its checkpoint and
        both writes, on worker threads; extend the log on the loop last.
        Whatever raises is counted and re-raised, the batcher fails every
        append of the batch with it, and memory stays at the signed head."""
        tenant, key = queue_key  # the ledger's own (tenant, key)
        payloads = [request.message for request in batch]
        ctx = next((request.trace for request in batch
                    if request.trace is not None), None)
        clock = SpanClock()
        start = self.log.size
        try:
            # ``to_thread`` copies the context, so the seal's trace
            # reaches the client's own span recording.
            with use_trace(ctx):
                results = await asyncio.to_thread(
                    self._client.sign_many, tenant, payloads, key=key)
                entries = [encode_entry(payload, result.signature)
                           for payload, result in zip(payloads, results)]
                new_size, new_root = self.log.preview(entries)
                checkpoint = await asyncio.to_thread(
                    self._sign_and_write, start, entries, new_size,
                    new_root)
        except Exception:
            self._failed.inc(len(batch))
            raise
        self.log.extend(entries)
        self._checkpoints[new_size] = checkpoint
        self._head = checkpoint
        self._sealed.inc()
        self._acked.inc(len(batch))
        self._entries_gauge.set(float(new_size))
        ended = clock.end()
        if self.tracer is not None and ctx is not None:
            self.tracer.record_span(
                "seal", trace=ctx, span_id=ctx.span_id,
                start=clock.start, end=ended, tenant=tenant,
                batch_size=len(batch), size=new_size)
        for offset, request in enumerate(batch):
            if self.tracer is not None and request.trace is not None:
                self.tracer.record_span(
                    "append", trace=request.trace,
                    parent_id=request.trace.span_id,
                    start=request.enqueued_wall, end=ended,
                    index=start + offset)
            if not request.future.done():
                request.future.set_result(AppendReceipt(
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
    def _sign_and_write(self, start: int, entries: list[bytes], size: int,
                        root: bytes) -> Checkpoint:
        """The seal's worker-thread commit: sign the tree head over the
        log plus *entries*, then write the segment and the checkpoint
        covering it, each durably and in that order.  Nothing in memory
        changes; one seal is in flight, so the head it reads holds."""
        prev_root = (self._head.root if self._head is not None
                     else EMPTY_ROOT)
        head_result = self._client.sign(
            self.tenant, checkpoint_body(self.log_id, size, root, prev_root),
            key=self.key)
        checkpoint = Checkpoint(
            log_id=self.log_id, size=size, root=root, prev_root=prev_root,
            signature=head_result.signature, params=head_result.params,
            tenant=self.tenant, key=self.key)
        if self.root is not None:
            self.log.write_segment(start, entries)
            write_durably(
                self.root / CHECKPOINT_DIR / f"{size:0{_INDEX_WIDTH}d}.json",
                json.dumps(checkpoint.as_dict(), indent=2) + "\n", 0o644)
        return checkpoint


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
