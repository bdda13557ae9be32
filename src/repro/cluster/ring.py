"""Consistent hashing: the cluster router's placement function."""

from __future__ import annotations

import bisect
import hashlib

from ..errors import BackendError

__all__ = ["HashRing"]

#: Virtual points each slot contributes to the ring.
_REPLICAS = 64


class HashRing:
    """Consistent-hash ring over node slots.

    Each slot contributes ``_REPLICAS`` virtual points; a shard key maps to
    the first point clockwise from its own hash.  Slots are stable across
    restarts (a restarted node keeps its slot), so a key's placement
    survives crashes and the mapping never churns under load.
    """

    def __init__(self, slots: int):
        if slots < 1:
            raise BackendError(f"ring needs >= 1 slot, got {slots}")
        points = sorted((self._hash(f"slot-{slot}#{replica}"), slot)
                        for slot in range(slots)
                        for replica in range(_REPLICAS))
        self._points = [point for point, _ in points]
        self._owners = [slot for _, slot in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.sha256(key.encode()).digest()[:8], "big")

    def preference(self, shard_key: str) -> tuple[int, ...]:
        """Every slot in clockwise ring order from *shard_key*'s point.

        The first entry owns the key; the rest are the failover
        candidates in the order consistent hashing would visit them if
        earlier owners were removed from the ring.  A caller holding a
        liveness set (the cluster router) takes the first *live* entry,
        so a key re-homes deterministically when its owner goes down and
        returns to its primary the moment the owner comes back.
        """
        start = bisect.bisect_right(self._points, self._hash(shard_key))
        owners = self._owners  # each slot where it first occurs, clockwise
        return tuple(dict.fromkeys(owners[start:] + owners[:start]))
