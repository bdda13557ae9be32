"""Service telemetry: counters, batch-size histogram, latency percentiles.

One :class:`Telemetry` instance rides along with a signing service and
records everything its dashboard needs: per-tenant request counters
(submitted / signed / shed / failed), the batch-size histogram that shows
what the deadline-aware batcher actually dispatched, queue-depth peaks,
and reservoirs of end-to-end and queue-wait latencies from which p50/p95/
p99 are computed.

Everything is exposed two ways: :meth:`Telemetry.snapshot` returns a
JSON-safe dict (what the ``stats`` protocol verb ships over the wire) and
:func:`render_snapshot` renders any such dict — local or received from a
remote service — as the human-readable report the CLI prints.
"""

from __future__ import annotations

import copy
import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from ..obs.metrics import (BATCH_BUCKETS, LATENCY_BUCKETS_MS,
                           MetricsRegistry)

__all__ = ["SNAPSHOT_SCHEMA", "Telemetry", "TenantCounters", "percentile",
           "render_snapshot"]

#: Keep this many most-recent latency samples per reservoir.  Old samples
#: roll off so a long-lived service reports *current* tail latency, and the
#: snapshot stays bounded no matter how much traffic has passed through.
LATENCY_WINDOW = 4096

#: Version of the :meth:`Telemetry.snapshot` shape.  Bump whenever a
#: section is renamed, removed, or changes meaning, so dashboards and
#: ``compare_baselines.py`` can detect drift instead of misreading.
#: (1 = the pre-observability implicit shape; 2 adds this field itself
#: plus ``started_at``/``uptime_s``.)
SNAPSHOT_SCHEMA = 2


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile of *samples* (``p`` in 0..100); 0.0 if empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class TenantCounters:
    """Request accounting for one tenant."""

    submitted: int = 0
    signed: int = 0
    shed: int = 0
    failed: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"submitted": self.submitted, "signed": self.signed,
                "shed": self.shed, "failed": self.failed}


class Telemetry:
    """Accumulates service metrics; cheap to record, snapshot on demand.

    Recording is thread-safe: the service's event loop, the worker
    pool's collector thread, and benchmark harnesses may all record
    concurrently without losing increments.  Every counter dual-writes
    into the attached :class:`~repro.obs.metrics.MetricsRegistry` —
    *the* unified metric sink (the ``metrics`` verb and the Prometheus
    endpoint read it) — while the legacy ``snapshot()`` shape stays
    intact for the ``stats`` verb and dashboards.
    """

    def __init__(self, latency_window: int = LATENCY_WINDOW,
                 registry: MetricsRegistry | None = None):
        self.tenants: dict[str, TenantCounters] = {}
        self.batch_histogram: dict[int, int] = {}
        self.batches = 0
        self.peak_depth = 0
        self._lock = threading.Lock()
        self._total_ms: deque[float] = deque(maxlen=latency_window)
        self._wait_ms: deque[float] = deque(maxlen=latency_window)
        self._pool_provider: Callable[[], dict] | None = None
        self._cache_provider: Callable[[], dict] | None = None
        self._started_wall = time.time()
        self._started_mono = time.monotonic()
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        # The old provider-callback pattern, absorbed: providers become
        # scrape-time collectors feeding gauges, so the pool and cache
        # sections show up in /metrics without a second mechanism.
        self.registry.add_collector("pool", self._collect_pool)
        self.registry.add_collector("cache", self._collect_cache)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _tenant(self, tenant: str) -> TenantCounters:
        counters = self.tenants.get(tenant)
        if counters is None:
            counters = self.tenants[tenant] = TenantCounters()
        return counters

    def _count_request(self, tenant: str, outcome: str,
                       amount: int = 1) -> None:
        self.registry.counter(
            "repro_requests_total", "Requests by tenant and outcome",
            tenant=tenant, outcome=outcome).inc(amount)

    def record_submitted(self, tenant: str) -> None:
        with self._lock:
            self._tenant(tenant).submitted += 1
        self._count_request(tenant, "submitted")

    def record_shed(self, tenant: str) -> None:
        with self._lock:
            counters = self._tenant(tenant)
            counters.submitted += 1
            counters.shed += 1
        self._count_request(tenant, "submitted")
        self._count_request(tenant, "shed")

    def record_failed(self, tenant: str, count: int = 1) -> None:
        with self._lock:
            self._tenant(tenant).failed += count
        self._count_request(tenant, "failed", count)

    def record_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batch_histogram[size] = \
                self.batch_histogram.get(size, 0) + 1
        self.registry.counter("repro_batches_total",
                              "Batches dispatched").inc()
        self.registry.histogram("repro_batch_size",
                                "Dispatched batch sizes",
                                buckets=BATCH_BUCKETS).observe(size)

    def record_signed(self, tenant: str, total_ms: float,
                      wait_ms: float) -> None:
        with self._lock:
            self._tenant(tenant).signed += 1
            self._total_ms.append(total_ms)
            self._wait_ms.append(wait_ms)
        self._count_request(tenant, "signed")
        self.registry.histogram(
            "repro_request_latency_ms", "Enqueue-to-signature latency",
            buckets=LATENCY_BUCKETS_MS).observe(total_ms)
        self.registry.histogram(
            "repro_queue_wait_ms", "Enqueue-to-dispatch queue wait",
            buckets=LATENCY_BUCKETS_MS).observe(wait_ms)

    def observe_depth(self, depth: int) -> None:
        with self._lock:
            if depth > self.peak_depth:
                self.peak_depth = depth
        self.registry.gauge("repro_queue_depth",
                            "Outstanding requests at last submit"
                            ).set(depth)
        self.registry.gauge("repro_queue_depth_peak",
                            "Peak outstanding requests"
                            ).set(self.peak_depth)

    # ------------------------------------------------------------------
    # Scrape-time collectors (the registry half of the providers)
    # ------------------------------------------------------------------
    def _collect_pool(self, registry: MetricsRegistry) -> None:
        provider = self._pool_provider
        if provider is None:
            return
        pool = provider()
        for key in ("workers", "alive", "requeues", "respawns"):
            if key in pool:
                registry.gauge(f"repro_pool_{key}",
                               "Worker pool health").set(pool[key])
        for slot, worker in pool.get("per_worker", {}).items():
            for key in ("utilization", "in_flight", "tasks"):
                if key in worker:
                    registry.gauge(f"repro_worker_{key}",
                                   "Per-worker pool state",
                                   worker=str(slot)).set(worker[key])

    def _collect_cache(self, registry: MetricsRegistry) -> None:
        provider = self._cache_provider
        if provider is None:
            return
        cache = provider()
        for scope, stats in (cache or {}).get("scopes", {}).items():
            for key, value in stats.items():
                if isinstance(value, (int, float)):
                    registry.gauge(f"repro_cache_{key}",
                                   "Layer-cache counters by scope",
                                   scope=scope).set(value)

    def set_pool_provider(self, provider: Callable[[], dict] | None) -> None:
        """Attach a worker-pool stats source (``WorkerPool.stats``).
        When set, every snapshot carries a ``pool`` section with
        per-worker utilization, tasks in flight, and requeue/respawn
        counters — the execution tier's half of the service dashboard."""
        self._pool_provider = provider

    def set_cache_provider(self, provider: Callable[[], dict] | None) -> None:
        """Attach a layer-cache stats source (the signing service's
        aggregate over its backends).
        When set, every snapshot carries a ``cache`` section with
        hit/miss/evict/bytes counters per scope."""
        self._cache_provider = provider

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @staticmethod
    def _latency_summary(samples: deque[float]) -> dict[str, float]:
        values = list(samples)
        return {
            "count": len(values),
            "mean": round(sum(values) / len(values), 3) if values else 0.0,
            "p50": round(percentile(values, 50), 3),
            "p95": round(percentile(values, 95), 3),
            "p99": round(percentile(values, 99), 3),
            "max": round(max(values), 3) if values else 0.0,
        }

    @staticmethod
    def _provider_section(provider: Callable[[], dict]) -> dict | None:
        """One provider's snapshot section, defensively.

        A raising provider must not poison the whole ``stats`` verb —
        its scope reports ``{"error": ...}`` and every other section
        still ships.  The returned dict is deep-copied so a caller
        mutating the snapshot (dashboards decorate these dicts freely)
        can never corrupt the provider's shared live state.
        """
        try:
            section = provider()
        except Exception as exc:  # noqa: BLE001 — reported, not raised
            return {"error": f"{type(exc).__name__}: {exc}"}
        if not section:
            return None
        return copy.deepcopy(section)

    def snapshot(self) -> dict:
        """A JSON-safe dict of every metric (the ``stats`` verb payload)."""
        snapshot = self._base_snapshot()
        if self._pool_provider is not None:
            pool = self._provider_section(self._pool_provider)
            snapshot["pool"] = pool if pool is not None else {}
        if self._cache_provider is not None:
            cache = self._provider_section(self._cache_provider)
            if cache is not None:
                snapshot["cache"] = cache
        return snapshot

    def _base_snapshot(self) -> dict:
        with self._lock:
            return {
                "snapshot_schema": SNAPSHOT_SCHEMA,
                "started_at": round(self._started_wall, 3),
                "uptime_s": round(time.monotonic() - self._started_mono,
                                  3),
                "tenants": {name: counters.as_dict() for name, counters
                            in sorted(self.tenants.items())},
                "batches": {
                    "dispatched": self.batches,
                    # JSON object keys must be strings; sizes sort
                    # numerically again in render_snapshot.
                    "histogram": {str(size): count for size, count
                                  in sorted(self.batch_histogram.items())},
                },
                "queue": {"peak_depth": self.peak_depth},
                "latency_ms": {
                    "total": self._latency_summary(self._total_ms),
                    "wait": self._latency_summary(self._wait_ms),
                },
            }

    def report(self, title: str = "Signing service telemetry") -> str:
        return render_snapshot(self.snapshot(), title=title)


def render_snapshot(snapshot: dict, title: str = "Signing service telemetry") -> str:
    """Render a :meth:`Telemetry.snapshot` dict (local or remote) as text."""
    from ..analysis.reporting import format_table

    sections = [format_table(
        ["tenant", "submitted", "signed", "shed", "failed"],
        [[name, c.get("submitted", 0), c.get("signed", 0),
          c.get("shed", 0), c.get("failed", 0)]
         for name, c in snapshot.get("tenants", {}).items()],
        title=title,
    )]

    batches = snapshot.get("batches", {})
    histogram = batches.get("histogram", {})
    sections.append(format_table(
        ["batch size", "batches"],
        [[size, histogram[str(size)]]
         for size in sorted(int(k) for k in histogram)],
        title=f"Batch-size histogram ({batches.get('dispatched', 0)} "
              "batches dispatched)",
    ))

    latency = snapshot.get("latency_ms", {})
    sections.append(format_table(
        ["latency (ms)", "count", "mean", "p50", "p95", "p99", "max"],
        [[label, s.get("count", 0), s.get("mean", 0.0), s.get("p50", 0.0),
          s.get("p95", 0.0), s.get("p99", 0.0), s.get("max", 0.0)]
         for label, s in (("total", latency.get("total", {})),
                          ("queue wait", latency.get("wait", {})))],
        title="Latency percentiles",
    ))

    pool = snapshot.get("pool")
    if pool:
        per_worker = pool.get("per_worker", {})
        sections.append(format_table(
            ["worker", "alive", "cpu", "tasks", "busy s", "util",
             "in-flight", "requeues", "respawns"],
            [[slot, "yes" if w.get("alive") else "NO", w.get("cpu", "-"),
              w.get("tasks", 0), w.get("busy_s", 0.0),
              f"{100.0 * w.get('utilization', 0.0):.1f}%",
              w.get("in_flight", 0), w.get("requeues", 0),
              w.get("respawns", 0)]
             for slot, w in sorted(per_worker.items(),
                                   key=lambda item: int(item[0]))],
            title=(f"Worker pool ({pool.get('alive', 0)}/"
                   f"{pool.get('workers', 0)} alive, "
                   f"{pool.get('pending', 0)} tasks pending, "
                   f"{pool.get('requeues', 0)} requeues, "
                   f"{pool.get('respawns', 0)} respawns)"),
        ))

    cache = snapshot.get("cache")
    if cache:
        scopes = cache.get("scopes", {})
        budget = cache.get("budget_mb")
        sections.append(format_table(
            ["cache scope", "hits", "misses", "memo hits", "memo entries",
             "KiB", "pinned layers"],
            [[scope, c.get("hits", 0), c.get("misses", 0),
              c.get("memo_hits", 0), c.get("memo_entries", 0),
              round(c.get("bytes", 0) / 1024, 1),
              c.get("pinned_layers", 0)]
             for scope, c in sorted(scopes.items())],
            title="Hypertree layer caches"
            + (f" (budget {budget} MB/key)" if budget else ""),
        ))

    queue = snapshot.get("queue", {})
    depth = (f"queue depth: {queue['depth']} now, "
             if "depth" in queue else "queue depth: ")
    tail = f"{depth}{queue.get('peak_depth', 0)} peak"
    if "uptime_s" in snapshot:
        tail += f"; up {snapshot['uptime_s']} s"
    sections.append(tail)
    return "\n\n".join(sections)
