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
        self.slots = slots
        points = []
        for slot in range(slots):
            for replica in range(_REPLICAS):
                points.append((self._hash(f"slot-{slot}#{replica}"), slot))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [slot for _, slot in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.sha256(key.encode()).digest()[:8], "big")

    def slot_for(self, shard_key: str) -> int:
        """The slot owning *shard_key*."""
        index = bisect.bisect_right(self._points, self._hash(shard_key))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def preference(self, shard_key: str) -> tuple[int, ...]:
        """Every slot in clockwise ring order from *shard_key*'s point.

        The first entry is :meth:`slot_for`; the rest are the failover
        candidates in the order consistent hashing would visit them if
        earlier owners were removed from the ring.  A caller holding a
        liveness set (the cluster router) takes the first *live* entry,
        so a key re-homes deterministically when its owner goes down and
        returns to its primary the moment the owner comes back.
        """
        start = bisect.bisect_right(self._points, self._hash(shard_key))
        order: list[int] = []
        seen: set[int] = set()
        for offset in range(len(self._owners)):
            slot = self._owners[(start + offset) % len(self._owners)]
            if slot not in seen:
                seen.add(slot)
                order.append(slot)
                if len(order) == self.slots:
                    break
        return tuple(order)
