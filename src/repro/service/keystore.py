"""Sharded multi-tenant keystore: named keys, LRU cache, admission limits.

A tenant is a named customer of the signing service.  Each tenant is
pinned to one SPHINCS+ parameter set (all of its keys share it — that is
what lets the batcher group a tenant's traffic into one ``sign_batch``
call) and owns any number of named key pairs.

On-disk shard format
--------------------
Persistence is one JSON file per tenant, fanned out into shard
directories so a node serving millions of tenants never holds one
directory with millions of entries (and a cluster node can rsync or
mount just the shards it owns)::

    <root>/
      shards/
        1f/acme.json       {"tenant": "acme", "params": "SPHINCS+-128f",
                            "keys": {"default": {"sk_seed": <hex>, ...}}}
        9c/edge-fleet.json

The shard directory is the first byte of ``sha256(tenant)`` in hex —
the same hash family the cluster's :class:`~repro.cluster.ring.HashRing`
uses for placement, so co-owned tenants cluster on disk the way they
cluster on the ring.

Every save writes the whole tenant file to ``<name>.json.tmp``, fsyncs it
and then ``os.replace``\\ s it over the live file, so a crash mid-write can never
leave a torn keystore — readers see the old file or the new one, nothing
in between.  A :class:`Keystore` constructed without a root keeps
everything in memory (tests, demos, ephemeral services).

Opening a root validates every shard file.  Corrupt ones are
quarantined as ``<name>.json.corrupt`` and the constructor raises one
combined :class:`~repro.errors.KeystoreError` naming all of them.  A root
that still holds tenant files directly under it (``<root>/acme.json``,
the layout before shards) is refused with one error naming them: move
each to its shard path first, or the keystore would open without those
tenants.

LRU key cache and admission control
-----------------------------------
A disk-backed store keeps at most ``max_cached`` tenant records in
memory (``None`` = unbounded, the historical behavior); lookups load
evicted tenants back from their shard file on demand.  This is what
lets a cluster node point at a keystore holding every tenant while
resident memory tracks only the shards the ring homes on it.

``rate_limit`` arms a per-tenant token bucket (``rate_limit`` admissions
per second, bursting to ``rate_burst``); :meth:`admit` answers whether a
request may proceed and the signing service sheds with
:class:`~repro.errors.OverloadedError` when it says no.  Memory-only
stores never evict (a dropped record would be unrecoverable) but do
rate-limit.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..durable import make_dirs, write_durably
from ..errors import KeystoreError
from ..params import get_params
from ..sphincs.signer import KeyPair, Sphincs

__all__ = ["Keystore", "TenantRecord", "derive_seed", "shard_prefix"]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_KEY_FIELDS = ("sk_seed", "sk_prf", "pk_seed", "pk_root")

#: Subdirectory of the keystore root that holds the shard fan-out.
SHARD_DIR = "shards"


def shard_prefix(tenant: str) -> str:
    """The shard directory (two hex chars) a tenant's file lives under."""
    return hashlib.sha256(tenant.encode()).hexdigest()[:2]


def derive_seed(label: str, n: int) -> bytes:
    """A deterministic ``3n``-byte keygen seed derived from *label*.

    Used by deterministic services (demos, CI smoke runs) so a tenant's
    key is reproducible without storing seeds out of band.  Not for
    production keys — those come from ``os.urandom`` via ``seed=None``.
    """
    out = b""
    counter = 0
    while len(out) < 3 * n:
        out += hashlib.sha256(f"{label}#{counter}".encode()).digest()
        counter += 1
    return out[:3 * n]


@dataclass
class TenantRecord:
    """One tenant: its parameter set and named key pairs."""

    name: str
    params: str  # canonical name, e.g. "SPHINCS+-128f"
    keys: dict[str, KeyPair] = field(default_factory=dict)


class _TokenBucket:
    """Per-tenant admission budget: *rate* tokens/s, bursting to *burst*."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.stamp = now

    def take(self, now: float) -> bool:
        self.tokens = min(self.burst,
                          self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class Keystore:
    """Tenant and key registry with optional sharded on-disk persistence.

    Parameters
    ----------
    root:
        Keystore directory (``None`` = memory-only).  A root holding
        tenant files outside ``shards/`` is refused (see the module
        docstring).
    max_cached:
        Most tenant records held in memory at once for a disk-backed
        store; least-recently-used records are evicted and reloaded from
        their shard file on demand.  ``None`` (default) caches everything.
        Ignored without a root — a memory-only record has no disk copy
        to reload.
    rate_limit / rate_burst:
        Default per-tenant admission budget: *rate_limit* requests per
        second, bursting to *rate_burst* (default: ``max(1, rate_limit)``).
        ``None`` (default) admits everything.  Override a single tenant
        with :meth:`set_rate_limit`.
    clock:
        Monotonic time source for the buckets (injectable for tests).
    """

    def __init__(self, root: str | Path | None = None, *,
                 max_cached: int | None = None,
                 rate_limit: float | None = None,
                 rate_burst: float | None = None,
                 clock: Callable[[], float] = time.monotonic):
        if max_cached is not None and max_cached < 1:
            raise KeystoreError(
                f"max_cached must be >= 1 or None, got {max_cached}")
        if rate_limit is not None and rate_limit <= 0:
            raise KeystoreError(
                f"rate_limit must be > 0 or None, got {rate_limit}")
        self.root = Path(root) if root is not None else None
        self.max_cached = max_cached if self.root is not None else None
        self.rate_limit = rate_limit
        self.rate_burst = (rate_burst if rate_burst is not None
                           else (max(1.0, rate_limit)
                                 if rate_limit is not None else None))
        self._clock = clock
        self._buckets: dict[str, _TokenBucket] = {}
        self._overrides: dict[str, tuple[float, float] | None] = {}
        #: Loaded records, most-recently-used last (the eviction order).
        self._tenants: OrderedDict[str, TenantRecord] = OrderedDict()
        #: Every tenant on disk: name -> its shard file.
        self._index: dict[str, Path] = {}
        self._stats = {"hits": 0, "misses": 0, "loads": 0, "evictions": 0,
                       "rate_denials": 0}
        # Lookups come from the event loop and from the threads a signing
        # engine resolves on: no eviction between the LRU's get and move.
        self._lock = threading.RLock()
        if self.root is not None:
            make_dirs(self.root)
            self._open_root()

    # ------------------------------------------------------------------
    # Open
    # ------------------------------------------------------------------
    def _open_root(self) -> None:
        """Validate and index every tenant file; refuse a flat root.

        Quarantines *every* corrupt tenant file in one pass (not just
        the first), so a single reload after the error comes up cleanly
        with all healthy tenants no matter how many files were damaged.
        """
        flat = sorted(path.name for path in self.root.glob("*.json"))
        if flat:
            raise KeystoreError(
                f"{self.root} holds tenant files outside {SHARD_DIR}/: "
                f"{', '.join(flat)} — move each <name>.json to "
                f"{SHARD_DIR}/<first byte of sha256(name), hex>/<name>.json "
                "(Keystore.shard_path), then reload the keystore")
        failures = []
        for path in sorted(self.root.glob(f"{SHARD_DIR}/*/*.json")):
            try:
                record = self._load_tenant(path)
            except KeystoreError as exc:
                quarantined = self._quarantine(path)
                failures.append(f"{exc} (quarantined to "
                                f"{quarantined.name})")
                continue
            self._index[record.name] = path
            self._cache(record)
        if failures:
            raise KeystoreError(
                "; ".join(failures) + " — restore good copies or "
                "delete the quarantined files, then reload the keystore"
            )

    # ------------------------------------------------------------------
    # Tenant and key management
    # ------------------------------------------------------------------
    def add_tenant(self, name: str, params: str = "128f",
                   exist_ok: bool = False) -> TenantRecord:
        """Register tenant *name* on parameter set *params*."""
        if not _NAME_RE.match(name):
            raise KeystoreError(
                f"invalid tenant name {name!r}: use letters, digits, "
                "'.', '_', '-'"
            )
        params_name = get_params(params).name
        if name in self._tenants or name in self._index:
            if not exist_ok:
                raise KeystoreError(f"tenant {name!r} already exists")
            existing = self._record(name)
            if existing.params != params_name:
                raise KeystoreError(
                    f"tenant {name!r} is pinned to {existing.params}, "
                    f"not {params_name}"
                )
            return existing
        record = TenantRecord(name=name, params=params_name)
        self._cache(record)
        self._save(record)
        return record

    def generate_key(self, tenant: str, key_name: str = "default",
                     seed: bytes | None = None,
                     exist_ok: bool = False) -> KeyPair:
        """Generate (and persist) a named key pair for *tenant*."""
        record = self._record(tenant)
        if not _NAME_RE.match(key_name):
            raise KeystoreError(f"invalid key name {key_name!r}")
        if key_name in record.keys:
            if exist_ok:
                return record.keys[key_name]
            raise KeystoreError(
                f"key {key_name!r} already exists for tenant {tenant!r}"
            )
        keys = Sphincs(record.params).keygen(seed=seed)
        record.keys[key_name] = keys
        self._save(record)
        return keys

    def rotate_key(self, tenant: str, key_name: str) -> KeyPair:
        """Replace an existing named key with a freshly generated pair.

        The old pair is retired immediately: the next ``resolve`` returns
        the new one.  Nothing cached for the old pair can answer for the
        new one, because every layer-cache and memo key starts with the
        pair's seeds; the old entries age out of the cache by recency.
        """
        record = self._record(tenant)
        if key_name not in record.keys:
            known = ", ".join(sorted(record.keys)) or "<none>"
            raise KeystoreError(
                f"cannot rotate: tenant {tenant!r} has no key "
                f"{key_name!r} (keys: {known})"
            )
        new_keys = Sphincs(record.params).keygen()
        record.keys[key_name] = new_keys
        self._save(record)
        return new_keys

    def delete_tenant(self, name: str) -> None:
        """Remove a tenant, its keys, and its on-disk shard file (its
        keys' cache entries age out like those of a rotated key)."""
        self._record(name)  # an unknown tenant is a KeystoreError
        self._tenants.pop(name, None)
        path = self._index.pop(name, None)
        if path is not None:
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
        self._buckets.pop(name, None)
        self._overrides.pop(name, None)

    def resolve(self, tenant: str, key_name: str = "default"
                ) -> tuple[KeyPair, str]:
        """Look up ``(key pair, canonical params name)`` for a request."""
        record = self._record(tenant)
        keys = record.keys.get(key_name)
        if keys is None:
            known = ", ".join(sorted(record.keys)) or "<none>"
            raise KeystoreError(
                f"tenant {tenant!r} has no key {key_name!r} (keys: {known})"
            )
        return keys, record.params

    def tenants(self) -> tuple[str, ...]:
        return tuple(sorted(set(self._tenants) | set(self._index)))

    def key_names(self, tenant: str) -> tuple[str, ...]:
        return tuple(sorted(self._record(tenant).keys))

    def params_for(self, tenant: str) -> str:
        return self._record(tenant).params

    # ------------------------------------------------------------------
    # Admission rate limiting
    # ------------------------------------------------------------------
    def set_rate_limit(self, tenant: str, rate_limit: float | None,
                       rate_burst: float | None = None) -> None:
        """Override the store-wide admission budget for one tenant.

        ``rate_limit=None`` exempts the tenant from rate limiting even
        when the store has a default budget.  Takes effect on the
        tenant's next :meth:`admit` call.
        """
        self._record(tenant)  # raises for unknown tenants
        if rate_limit is None:
            self._overrides[tenant] = None
        else:
            if rate_limit <= 0:
                raise KeystoreError(
                    f"rate_limit must be > 0 or None, got {rate_limit}")
            self._overrides[tenant] = (
                rate_limit,
                rate_burst if rate_burst is not None
                else max(1.0, rate_limit))
        self._buckets.pop(tenant, None)

    def admit(self, tenant: str) -> bool:
        """Whether *tenant* may submit one more request right now.

        ``True`` consumes one token from the tenant's bucket.  Always
        ``True`` when neither the store default nor a per-tenant
        override configures a budget.  Unknown tenants are admitted —
        the keystore lookup that follows reports them properly.
        """
        if tenant in self._overrides:
            override = self._overrides[tenant]
            if override is None:
                return True
            rate, burst = override
        elif self.rate_limit is not None:
            rate, burst = self.rate_limit, self.rate_burst
        else:
            return True
        now = self._clock()
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = _TokenBucket(rate, burst, now)
        if bucket.take(now):
            return True
        self._stats["rate_denials"] += 1
        return False

    # ------------------------------------------------------------------
    # LRU cache
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        """Cache and admission counters plus the current residency."""
        return {**self._stats, "resident": len(self._tenants),
                "known": len(set(self._tenants) | set(self._index)),
                "max_cached": self.max_cached}

    def _cache(self, record: TenantRecord) -> None:
        with self._lock:
            self._tenants[record.name] = record
            self._tenants.move_to_end(record.name)
            if self.max_cached is not None:
                while len(self._tenants) > self.max_cached:
                    self._tenants.popitem(last=False)
                    self._stats["evictions"] += 1

    def _record(self, tenant: str) -> TenantRecord:
        with self._lock:
            record = self._tenants.get(tenant)
            if record is not None:
                self._stats["hits"] += 1
                self._tenants.move_to_end(tenant)
                return record
            path = self._index.get(tenant)
            if path is not None:
                self._stats["misses"] += 1
                self._stats["loads"] += 1
                record = self._load_tenant(path)
                self._cache(record)
                return record
        known = ", ".join(self.tenants()) or "<none>"
        raise KeystoreError(
            f"unknown tenant {tenant!r} (tenants: {known})"
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def shard_path(self, tenant: str) -> Path:
        """The sharded on-disk location of *tenant*'s file."""
        if self.root is None:
            raise KeystoreError("memory-only keystore has no shard paths")
        return (self.root / SHARD_DIR / shard_prefix(tenant)
                / f"{tenant}.json")

    def _save(self, record: TenantRecord) -> None:
        if self.root is None:
            return
        payload = {
            "tenant": record.name,
            "params": record.params,
            "keys": {
                key_name: {f: getattr(keys, f).hex() for f in _KEY_FIELDS}
                for key_name, keys in sorted(record.keys.items())
            },
        }
        path = self.shard_path(record.name)
        make_dirs(path.parent)
        # 0600: the file holds secret key material (sk_seed, sk_prf).
        write_durably(path, json.dumps(payload, indent=2) + "\n", 0o600)
        self._index[record.name] = path

    def _quarantine(self, path: Path) -> Path:
        """Move a corrupt tenant file aside as ``<name>.json.corrupt``.

        The quarantined file no longer matches the ``*.json`` load glob, so
        the *next* keystore construction comes up cleanly without the
        corrupt tenant instead of failing on every restart — while the
        bytes stay on disk for the operator to inspect or restore.
        """
        target = path.with_name(path.name + ".corrupt")
        os.replace(path, target)
        return target

    def _load_tenant(self, path: Path) -> TenantRecord:
        try:
            payload = json.loads(path.read_text())
            name = payload["tenant"]
            # The write-path name rules apply on load too: a tampered
            # payload must not smuggle in a name that escapes the root or
            # diverges from its file (a later _save would write elsewhere
            # and leave this record to resurrect as a duplicate).
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise KeystoreError(
                    f"{path.name}: invalid tenant name {name!r}"
                )
            if name != path.stem:
                raise KeystoreError(
                    f"{path.name}: names tenant {name!r}, expected "
                    f"{path.stem!r}"
                )
            params = get_params(payload["params"]).name
            n = get_params(params).n
            keys = {}
            for key_name, fields in payload["keys"].items():
                material = {f: bytes.fromhex(fields[f]) for f in _KEY_FIELDS}
                if any(len(v) != n for v in material.values()):
                    raise KeystoreError(
                        f"{path.name}: key {key_name!r} components must be "
                        f"{n} bytes for {params}"
                    )
                keys[key_name] = KeyPair(**material)
        except KeystoreError:
            raise
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise KeystoreError(
                f"corrupt keystore file {path.name}: {exc}"
            ) from exc
        return TenantRecord(name=name, params=params, keys=keys)
