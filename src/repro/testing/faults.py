"""Deterministic fault injection: the tweakable-hash layer (``thash`` /
``prf``), the layer cache (``cache:flip``), the replay memo
(``memo:flip``), the fast verifier (``verify:*``) and the signing plan
(``plan:*``).

The SPHINCS+ fault-attack literature (Genet et al., "Practical Fault
Injection Attacks on SPHINCS") shows that a *single* corrupted hash inside
the WOTS/FORS computation silently yields a signature over the wrong
intermediate value — the signer notices nothing, but the signature either
fails verification (the benign outcome this suite demands) or, in a
grafted-tree attack, becomes forgery material.  A conformance suite for a
signing service therefore has to prove the *detection* property: every
injected hash fault must surface as a verification failure or a structured
error, never as a silently-served wrong signature.

:class:`BitFlipFault` is the deterministic injector: it wraps one
:class:`~repro.hashes.thash.HashContext` instance and flips one bit of the
output of the N-th ``thash`` (or ``prf``) call.  Determinism — same call
index, same bit, same traffic — is what lets the oracle pin the resulting
divergence to a stage and lets CI replay the exact same fault on every
push.

:class:`CachedNodeFault` extends the threat model to the hypertree layer
cache: after a clean signing pass it corrupts one node *inside the pinned
subtree* that a fixed fresh message's path crosses
(:attr:`CachedNodeFault.probe`), and signing that message carries the
strike.  A naive flip leaves the auth path inconsistent with the root, so
verification fails — detectable.  The dangerous variant (``consistent``,
the default) also recomputes the flipped node's ancestors, producing a
subtree that is internally consistent but *wrong*: the signer happily
emits a signature that still **verifies**, yet differs byte-for-byte from
the reference — exactly the fault-attack class only a differential
oracle catches.

:class:`MemoFault` strikes the same cache's replay memo: every signature
enters it with one bit flipped.  A memo hit signs nothing, so the strike
can never cost a second WOTS signature under one key — but every replay
serves bytes that fail verification, and first sight is clean, so only a
path that signs its traffic twice can ring.

:class:`VerifyFault` strikes the other side of the contract: a fast
verifier that walks the whole signature and then never compares the root
it reached against the public key accepts every well-formed blob.  Signing
stays byte-identical, so only the oracle's verify stage — fast verdict
against reference verdict over corrupted signatures — can ring.
:class:`VerifyMemoFault` strikes the verifier's memo of accepted triples
instead: keyed without the signature, it answers for any blob presented
with a ``(key, message)`` it has accepted once — so the verify stage
checks each corrupted signature *after* its valid twin.
:class:`VerifyLayerMemoFault` does the same to the verifier's memo of
upper hypertree layers: keyed without a layer's signature bytes, it
answers for a signature corrupted in a memoized layer.

:class:`PlanFault` strikes the signing plan's chain-table lookup: a WOTS
signature read one table position too far.  The plan's own ``root ==
pk_root`` check cannot see it — the root comes from the subtree, not from
the chain values — so only the byte-compare and the verify round-trip ring.

Fault specs are parsed from strings so the CLI can take them directly::

    thash:bitflip            # defaults: call 7, bit 0
    thash:bitflip:120        # flip a bit of thash call #120
    thash:bitflip:120:5      # ... bit 5 of its output
    prf:bitflip:3            # flip the 4th PRF output instead
    cache:flip               # consistent flip in a cached subtree
    cache:flip:0:3           # ... level 0, bit 3
    cache:flip:0:0:benign    # naive flip (auth path breaks, verify fails)
    memo:flip                # every memoised signature has bit 0 flipped
    memo:flip:5              # ... bit 5
    verify:no-root-compare   # fast verifier drops its final root compare
    verify:memo-ignores-signature  # verify memo keyed on (key, message) only
    verify:layer-memo-ignores-signature  # layer memo keyed without its bytes
    plan:chain-table-off-by-one  # lookups read each chain one step too far
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..errors import ConformanceError
from ..hashes.thash import HashContext
from ..runtime import plan
from ..runtime.fastops import FastVerifier, node_slice, path_hops
from ..runtime.layercache import HypertreeLayerCache

__all__ = ["BitFlipFault", "CachedNodeFault", "MemoFault", "PlanFault",
           "VerifyFault", "VerifyLayerMemoFault", "VerifyMemoFault",
           "flip_bit", "parse_fault"]

_TARGETS = ("thash", "prf")


def flip_bit(data: bytes, bit: int) -> bytes:
    """Return *data* with absolute bit index *bit* flipped (MSB-first)."""
    if not 0 <= bit < 8 * len(data):
        raise ConformanceError(
            f"bit {bit} out of range for {len(data)}-byte value"
        )
    out = bytearray(data)
    out[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(out)


@dataclass
class _Fault:
    """What every fault carries — the counters the CLI prints — and the
    swap of one class or module attribute most are installed by."""

    #: How many times the faulty code ran (BitFlipFault: calls tapped).
    calls_seen: int = field(default=0, init=False)
    #: Whether the fault actually fired.
    fired: bool = field(default=False, init=False)

    def _ran(self) -> None:
        self.calls_seen += 1
        self.fired = True

    @contextmanager
    def _swapped(self, owner, name: str, replacement):
        original = owner.__dict__[name]
        setattr(owner, name, replacement)
        try:
            yield self
        finally:
            setattr(owner, name, original)


@dataclass
class BitFlipFault(_Fault):
    """Flip one bit of one hash-call output, deterministically.

    Parameters
    ----------
    target:
        ``"thash"`` or ``"prf"`` — which hash-context entry point to tap.
    call_index:
        Zero-based index of the tapped call, counted from installation.
        The default lands inside the very first FORS tree build on every
        parameter set, so the corrupted node provably feeds the signature.
    bit:
        Bit of the n-byte output to flip.
    """

    target: str = "thash"
    call_index: int = 7
    bit: int = 0

    def __post_init__(self) -> None:
        if self.target not in _TARGETS:
            raise ConformanceError(
                f"unknown fault target {self.target!r}; "
                f"known: {', '.join(_TARGETS)}"
            )
        if self.call_index < 0:
            raise ConformanceError(
                f"call_index must be >= 0, got {self.call_index}"
            )

    @property
    def spec(self) -> str:
        return f"{self.target}:bitflip:{self.call_index}:{self.bit}"

    @contextmanager
    def install(self, ctx: HashContext):
        """Tap *ctx* for the duration of the ``with`` block.

        The hook shadows the bound method with an instance attribute and
        deletes it on exit, so the context is bit-for-bit back to normal
        afterwards.  Counters (:attr:`calls_seen`, :attr:`fired`) reset on
        each installation.
        """
        if self.target in ctx.__dict__:
            raise ConformanceError(
                f"a fault is already installed on this context's "
                f"{self.target}"
            )
        self.calls_seen = 0
        self.fired = False
        original = getattr(ctx, self.target)

        def tapped(*args, **kwargs):
            out = original(*args, **kwargs)
            if self.calls_seen == self.call_index:
                out = flip_bit(out, self.bit)
                self.fired = True
            self.calls_seen += 1
            return out

        setattr(ctx, self.target, tapped)
        try:
            yield self
        finally:
            del ctx.__dict__[self.target]


@dataclass
class CachedNodeFault(_Fault):
    """Flip one bit of one node inside a cached hypertree subtree.

    Models a memory fault (rowhammer, cosmic ray, hostile DMA) hitting
    the layer cache.  Applied after a clean signing pass to the pinned
    subtree :attr:`probe`'s path crosses (built by the strike if that
    pass never walked it), then shown by signing the probe, which that
    pass did not sign (a replayed message is a memo hit and reads no
    subtree), so the divergence is provably the cached state and
    nothing else.

    Parameters
    ----------
    level:
        Subtree level of the corrupted node (0 = WOTS leaves).  The node
        chosen is the *sibling* on the probe's auth path, so the flip
        provably lands in emitted signature bytes.
    bit:
        Bit of the n-byte node value to flip.
    layer_from_top:
        How far below the top hypertree layer to strike (>= 1; the top
        tree's root is pinned in the public key, so corrupting it raises
        a root mismatch instead of diverging silently).
    consistent:
        When true (default), recompute the flipped node's ancestors so
        the subtree stays internally consistent — the resulting signature
        still *verifies* but is wrong (the attack class only the
        differential oracle catches).  When false, leave the ancestors
        stale: the auth path no longer reaches the root and verification
        fails (the benign, self-detecting outcome).
    """

    level: int = 0
    bit: int = 0
    layer_from_top: int = 1
    consistent: bool = True
    #: Entry point tapped — mirrors BitFlipFault for CLI diagnostics.
    target = "cache"
    #: The fresh message whose path the strike lands on.
    probe = b"cache-fault probe"

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ConformanceError(f"level must be >= 0, got {self.level}")
        if self.layer_from_top < 1:
            raise ConformanceError(
                "layer_from_top must be >= 1: the top tree's root is "
                "pinned in the public key, a flip there cannot diverge "
                "silently"
            )

    @property
    def spec(self) -> str:
        base = f"cache:flip:{self.level}:{self.bit}"
        return base if self.consistent else base + ":benign"

    def apply(self, ops, task) -> str:
        """Corrupt the cached subtree :attr:`probe`'s path crosses
        ``layer_from_top`` layers below the top.

        *ops* is the backend's :class:`~.runtime.fastops.FastOps` for the
        key, whose layer cache must pin that layer; *task* is the probe's
        ``prepare`` under the key.  Returns a human-readable detail
        string for the report.
        """
        params = ops.params
        th = params.tree_height
        layer = params.d - 1 - self.layer_from_top
        if layer < 0:
            raise ConformanceError(
                f"layer_from_top {self.layer_from_top} exceeds hypertree "
                f"depth d={params.d}"
            )
        if layer < ops.cache.pinned_floor:
            raise ConformanceError(
                f"layer {layer} of {params.name} is below the cache's "
                f"pinned layers (floor {ops.cache.pinned_floor}): there "
                "is no cached subtree to strike"
            )
        if self.level >= th:
            raise ConformanceError(
                f"level {self.level} out of range for tree_height {th}"
            )
        # The probe's hop at the struck layer, and the one above it whose
        # link signs the struck subtree's root.
        (_, tree, leaf), parent = path_hops(
            params, task.idx_tree, task.idx_leaf)[layer:layer + 2]
        # Build-or-fetch the cached subtree, corrupt a copy and put that
        # in its place — the next signing pass serves the corrupted one.
        n, leaves = params.n, params.tree_leaves
        nodes = bytearray(ops.subtree_nodes(layer, tree))
        sibling = (leaf >> self.level) ^ 1
        struck = node_slice(self.level, sibling, n, leaves)
        nodes[struck] = flip_bit(bytes(nodes[struck]), self.bit)
        if self.consistent:
            # Recompute the ancestors along the leaf's path so the tree
            # is self-consistent again (with a different root).
            for height in range(self.level + 1, th + 1):
                index = leaf >> height
                below = node_slice(height - 1, 2 * index, n, leaves).start
                nodes[node_slice(height, index, n, leaves)] = \
                    ops.tree_node_hash(
                        layer, tree, height, index,
                        bytes(nodes[below:below + n]),
                        bytes(nodes[below + n:below + 2 * n]))
            # The parent layer's cached WOTS link signs the *old* root;
            # replace it with one over the corrupted root (a fresh link
            # that verifies), as a signer without the stale one would.
            ops.cache.store_link(ops.seed, *parent, b"".join(
                ops.wots_sign(bytes(nodes[-n:]), *parent)))
        ops.cache.store_tree(ops.seed, layer, tree, bytes(nodes))
        self._ran()
        mode = ("ancestors recomputed, still verifies"
                if self.consistent else "auth path left stale")
        return (f"flipped bit {self.bit} of cached node "
                f"level {self.level} index {sibling} in subtree "
                f"(layer {layer}, tree {tree}); {mode}")


@dataclass
class VerifyFault(_Fault):
    """A :class:`~repro.runtime.fastops.FastVerifier` that drops the final
    ``root == pk_root`` compare: the length gates and the whole walk still
    run, then every blob that got that far is accepted.

    Installed on the class, so it reaches every tier that verifies through
    the fast kernel in this process (backends, ``LocalClient``, the
    service and its wire verbs) and leaves the reference walk alone.
    """

    #: Entry point tapped — mirrors BitFlipFault for CLI diagnostics.
    target = "verify"
    spec = "verify:no-root-compare"

    def install(self):
        """Swap the faulty ``verify_batch`` in for the ``with`` block."""
        original = FastVerifier.verify_batch

        def verify_batch(verifier, messages, signatures, public_key):
            original(verifier, messages, signatures, public_key)
            self._ran()
            params = verifier.params
            return [len(public_key) == params.pk_bytes
                    and len(signature) == params.sig_bytes
                    for signature in signatures]

        return self._swapped(FastVerifier, "verify_batch", verify_batch)


@dataclass
class VerifyMemoFault(VerifyFault):
    """A verifier whose memo of accepted triples is keyed without the
    signature: once a ``(key, message)`` has verified, every well-sized
    blob presented with it is "remembered" as valid.  First sight is
    walked in full, so only a corrupted signature checked after its valid
    twin can ring.
    """

    spec = "verify:memo-ignores-signature"
    #: The ``FastVerifier`` key function whose last argument is dropped.
    key_function = "_memo_key"

    def install(self):
        """Swap the signature-blind key in for the ``with`` block."""
        original = getattr(FastVerifier, self.key_function)

        def blind_key(*parts):
            self._ran()
            return original(*parts[:-1], b"")

        return self._swapped(FastVerifier, self.key_function,
                             staticmethod(blind_key))


@dataclass
class VerifyLayerMemoFault(VerifyMemoFault):
    """The same blindness in the verifier's memo of upper hypertree
    layers: keyed without a layer's signature bytes, a layer walked once
    in a valid signature answers for any bytes presented there.  Only a
    signature corrupted in a memoized layer (the top one on every set)
    and checked after its valid twin can ring.
    """

    spec = "verify:layer-memo-ignores-signature"
    key_function = "_layer_key"


@dataclass
class PlanFault(_Fault):
    """A :func:`~repro.runtime.plan.chain_values` that reads every chain
    one table position past its digit — the off-by-one a chain-table
    lookup invites.  Installed on the module, so it reaches every tier
    that signs through the plan in this process (vectorized, pooled, the
    clients over them) **and every worker pool forked inside the**
    ``with`` **block**: a fused run looks its layers up in the worker, so
    a pool started before :meth:`install` signs clean.  Workers count
    into a shared counter, folded into :attr:`calls_seen` / :attr:`fired`
    when the block ends.  Reference and scalar walks never touch a table.
    """

    #: Entry point tapped — mirrors BitFlipFault for CLI diagnostics.
    target = "plan"
    spec = "plan:chain-table-off-by-one"

    @contextmanager
    def install(self):
        """Swap the faulty lookup in for the ``with`` block."""
        original = plan.chain_values
        lookups = multiprocessing.Value("q", 0)  # inherited through fork

        def chain_values(table, digits, n, w):
            with lookups.get_lock():
                lookups.value += 1
            return original(table[n:] + table[:n], digits, n, w)

        try:
            with self._swapped(plan, "chain_values", chain_values):
                yield self
        finally:
            self.calls_seen += lookups.value
            self.fired = self.calls_seen > 0


@dataclass
class MemoFault(_Fault):
    """A replay memo whose entries each have bit *bit* flipped: corruption
    at rest in the one place a finished signature is kept.  Installed on
    the class, so it reaches every tier that signs through the plan in
    this process.  First sight is assembled fresh and is clean; the flip
    shows on replay, as a signature that fails verification.
    """

    bit: int = 0

    #: Entry point tapped — mirrors BitFlipFault for CLI diagnostics.
    target = "memo"

    def __post_init__(self) -> None:
        if self.bit < 0:
            raise ConformanceError(f"bit must be >= 0, got {self.bit}")

    @property
    def spec(self) -> str:
        return f"memo:flip:{self.bit}"

    def install(self):
        """Swap the corrupting ``remember`` in for the ``with`` block."""
        original = HypertreeLayerCache.remember

        def remember(cache, seed, digest, signature):
            self._ran()
            original(cache, seed, digest, flip_bit(signature, self.bit))

        return self._swapped(HypertreeLayerCache, "remember", remember)


def _int_fields(spec: str, fields: list[str], *names: str) -> dict[str, int]:
    """The optional trailing integer *fields* of *spec*, by name."""
    try:
        if len(fields) > len(names):
            raise ValueError("too many fields")
        return dict(zip(names, map(int, fields)))
    except ValueError as exc:
        raise ConformanceError(f"bad fault spec {spec!r}: {exc}") from exc


def parse_fault(spec: str) -> (BitFlipFault | CachedNodeFault | MemoFault
                               | VerifyFault | PlanFault):
    """Parse a fault spec: ``target:bitflip[:call_index[:bit]]`` for the
    hash taps, ``cache:flip[:level[:bit]][:benign]`` for the layer cache,
    ``memo:flip[:bit]`` for its replay memo,
    ``verify:no-root-compare`` / ``verify:memo-ignores-signature`` /
    ``verify:layer-memo-ignores-signature`` for the fast verifier,
    ``plan:chain-table-off-by-one`` for the signing plan's table lookups.
    """
    parts = spec.strip().split(":")
    for fault in (VerifyFault, VerifyMemoFault, VerifyLayerMemoFault,
                  PlanFault):
        if spec.strip() == fault.spec:
            return fault()
    if parts[:2] == ["cache", "flip"]:
        benign = parts[-1] == "benign"
        return CachedNodeFault(consistent=not benign, **_int_fields(
            spec, parts[2:-1] if benign else parts[2:], "level", "bit"))
    if parts[:2] == ["memo", "flip"]:
        return MemoFault(**_int_fields(spec, parts[2:], "bit"))
    if len(parts) < 2 or parts[1] != "bitflip":
        raise ConformanceError(
            f"unsupported fault spec {spec!r}; expected "
            "'thash:bitflip[:call_index[:bit]]', 'prf:bitflip[...]', "
            "'cache:flip[:level[:bit]][:benign]', 'memo:flip[:bit]', "
            f"{VerifyFault.spec!r}, {VerifyMemoFault.spec!r}, "
            f"{VerifyLayerMemoFault.spec!r}, or {PlanFault.spec!r}"
        )
    return BitFlipFault(target=parts[0], **_int_fields(
        spec, parts[2:], "call_index", "bit"))
