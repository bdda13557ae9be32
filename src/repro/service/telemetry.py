"""Service telemetry: the service tier's events, written once, viewed thrice.

One :class:`Telemetry` rides along with a signing service (or a cluster
router).  Its ``record_*`` / ``observe_depth`` entry points write each
event once, to a series of its :class:`~repro.obs.metrics.MetricsRegistry`
— per-tenant request counters (submitted / signed / shed / failed, and
shed by reason), exact batch sizes, the queue-depth high-water mark, and
end-to-end and queue-wait latency histograms that also retain their most
recent raw observations.  Nothing is kept beside the registry.

Those series are read three ways: :meth:`Telemetry.snapshot` computes the
JSON-safe dict the ``stats`` protocol verb ships, :func:`render_snapshot`
renders any such dict — local or received from a remote service — as the
report the CLI prints, and the ``metrics`` verb / ``GET /metrics`` scrape
the registry itself.
"""

from __future__ import annotations

import copy
import math
import time
from typing import Callable

from ..obs.metrics import BATCH_BUCKETS, Counter, MetricsRegistry

__all__ = ["SNAPSHOT_SCHEMA", "Telemetry", "percentile", "render_snapshot"]

#: Keep this many most-recent latency samples per histogram.  Old samples
#: roll off so a long-lived service reports *current* tail latency, and the
#: snapshot stays bounded no matter how much traffic has passed through.
LATENCY_WINDOW = 4096

#: Version of the :meth:`Telemetry.snapshot` shape.  Bump whenever a
#: section is renamed, removed, or changes meaning, so whatever parses
#: the ``stats`` payload can detect drift instead of misreading.
#: (1 = the pre-observability implicit shape; 2 adds this field itself
#: plus ``started_at``/``uptime_s``.)
SNAPSHOT_SCHEMA = 2

_OUTCOMES = ("submitted", "signed", "shed", "failed")


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile of *samples* (``p`` in 0..100); 0.0 if empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


#: How a section source's dict becomes gauges at scrape time.  One row per
#: family prefix: the section, where its values sit (``None``: the section
#: itself; else the key of a dict of rows and the label naming a row), the
#: prefix, the help text, and the keys exported (``None``: every number).
_GAUGES = (
    ("queue", None, "repro_queue", "Outstanding requests", ("depth",)),
    ("pool", None, "repro_pool", "Worker pool health",
     ("workers", "alive", "requeues", "respawns")),
    ("pool", ("per_worker", "worker"), "repro_worker",
     "Per-worker pool state", ("utilization", "in_flight", "tasks")),
    ("cache", ("scopes", "scope"), "repro_cache",
     "Layer-cache counters by scope", None),
    ("keystore", None, "repro_keystore",
     "Keystore cache and admission counters",
     ("hits", "misses", "loads", "evictions", "rate_denials", "resident")),
)


def _export(registry: MetricsRegistry, name: str, section: dict) -> None:
    """Set the gauges of section *name* from its source's dict."""
    for source, rows, prefix, help_, keys in _GAUGES:
        if source != name:
            continue
        tables = ([({}, section)] if rows is None else
                  [({rows[1]: str(row)}, values) for row, values
                   in (section or {}).get(rows[0], {}).items()])
        for labels, values in tables:
            for key in keys if keys is not None else values:
                if isinstance(values.get(key), (int, float)):
                    registry.gauge(f"{prefix}_{key}", help_,
                                   **labels).set(values[key])


class Telemetry:
    """The write API and the ``stats`` view over one registry.

    Holds the registry, the section sources and its start times — no
    counter, window or lock of its own.  Recording is thread-safe (every
    series updates under the registry's lock): the service's event
    loop, the worker pool's collector thread and benchmark harnesses
    may record concurrently without losing increments.  Series handles
    are resolved once and kept, by (tenant, outcome) and by batch size,
    so an event costs one lock acquisition per series it touches.
    """

    def __init__(self):
        self.registry = registry = MetricsRegistry()
        self._started_wall = time.time()
        self._started_mono = time.monotonic()
        self._sources: dict[str, Callable[[], dict]] = {}
        self._requests: dict[tuple[str, str], Counter] = {}
        self._batches: dict[int, Counter] = {}
        self._total_ms = registry.histogram(
            "repro_request_latency_ms", "Enqueue-to-signature latency",
            window=LATENCY_WINDOW)
        self._wait_ms = registry.histogram(
            "repro_queue_wait_ms", "Enqueue-to-dispatch queue wait",
            window=LATENCY_WINDOW)
        self._batch_size = registry.histogram(
            "repro_batch_size", "Dispatched batch sizes",
            buckets=BATCH_BUCKETS)
        self._peak = registry.gauge("repro_queue_depth_peak",
                                    "Peak outstanding requests")

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _count_request(self, tenant: str, outcome: str,
                       amount: int = 1) -> None:
        series = self._requests.get((tenant, outcome))
        if series is None:
            series = self._requests[tenant, outcome] = self.registry.counter(
                "repro_requests_total", "Requests by tenant and outcome",
                tenant=tenant, outcome=outcome)
        series.inc(amount)

    def record_submitted(self, tenant: str) -> None:
        self._count_request(tenant, "submitted")

    def record_shed(self, tenant: str, reason: str) -> None:
        """A request refused at the door; *reason* is ``rate-limit``
        (the tenant's admission budget) or ``queue-full`` (the
        ``max_pending`` watermark)."""
        self._count_request(tenant, "submitted")
        self._count_request(tenant, "shed")
        self.registry.counter("repro_shed_total",
                              "Requests shed, by tenant and reason",
                              tenant=tenant, reason=reason).inc()

    def record_failed(self, tenant: str, count: int = 1) -> None:
        self._count_request(tenant, "failed", count)

    def record_batch(self, size: int) -> None:
        series = self._batches.get(size)
        if series is None:
            series = self._batches[size] = self.registry.counter(
                "repro_batches_total", "Batches dispatched", size=str(size))
        series.inc()
        self._batch_size.observe(size)

    def record_signed(self, tenant: str, total_ms: float,
                      wait_ms: float) -> None:
        self._count_request(tenant, "signed")
        self._total_ms.observe(total_ms)
        self._wait_ms.observe(wait_ms)

    def observe_depth(self, depth: int) -> None:
        """Feed the high-water mark; the live depth is a section source
        (``queue``), read when somebody looks."""
        self._peak.set_max(depth)

    def add_source(self, name: str, source: Callable[[], dict]) -> None:
        """Register *source* as the *name* section (``queue``, ``pool``,
        ``cache`` or ``keystore``): state owned elsewhere, read on demand.

        One registration feeds both views: :meth:`snapshot` calls it for
        the ``pool`` / ``cache`` sections of the ``stats`` payload (a
        raising source reports ``{"error": ...}`` there), and every
        scrape calls it to set the section's gauges — see ``_GAUGES`` (a
        raising source counts in ``repro_collector_errors_total``).
        """
        self._sources[name] = source
        self.registry.add_collector(
            name, lambda registry: _export(registry, name, source()))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @staticmethod
    def _latency_summary(values: list[float]) -> dict[str, float]:
        return {
            "count": len(values),
            "mean": round(sum(values) / len(values), 3) if values else 0.0,
            "p50": round(percentile(values, 50), 3),
            "p95": round(percentile(values, 95), 3),
            "p99": round(percentile(values, 99), 3),
            "max": round(max(values), 3) if values else 0.0,
        }

    @staticmethod
    def _section(source: Callable[[], dict]) -> dict:
        """One source's snapshot section, defensively.

        A raising source must not poison the whole ``stats`` verb —
        its section reports ``{"error": ...}`` and every other section
        still ships.  The returned dict is deep-copied so a caller
        mutating the snapshot (dashboards decorate these dicts freely)
        can never corrupt the source's shared live state.
        """
        try:
            section = source()
        except Exception as exc:  # noqa: BLE001 — reported, not raised
            return {"error": f"{type(exc).__name__}: {exc}"}
        return copy.deepcopy(section) if section else {}

    def snapshot(self) -> dict:
        """A JSON-safe dict of every metric (the ``stats`` verb payload),
        computed from the registry's series."""
        tenants: dict[str, dict[str, int]] = {}
        for labels, series in self.registry.family("repro_requests_total"):
            tenants.setdefault(labels["tenant"], dict.fromkeys(_OUTCOMES, 0)
                               )[labels["outcome"]] = int(series.value)
        sizes = {int(labels["size"]): int(series.value) for labels, series
                 in self.registry.family("repro_batches_total")}
        snapshot = {
            "snapshot_schema": SNAPSHOT_SCHEMA,
            "started_at": round(self._started_wall, 3),
            "uptime_s": round(time.monotonic() - self._started_mono, 3),
            "tenants": dict(sorted(tenants.items())),
            "batches": {
                "dispatched": sum(sizes.values()),
                # JSON object keys must be strings; sizes sort
                # numerically again in render_snapshot.
                "histogram": {str(size): count
                              for size, count in sorted(sizes.items())},
            },
            "queue": {"peak_depth": int(self._peak.value)},
            "latency_ms": {
                "total": self._latency_summary(self._total_ms.recent()),
                "wait": self._latency_summary(self._wait_ms.recent()),
            },
        }
        for name in ("pool", "cache"):  # the sections schema 2 carries
            if name in self._sources:
                section = self._section(self._sources[name])
                # An empty cache section is left out; a pool that has
                # nothing to say is still a pool.
                if section or name == "pool":
                    snapshot[name] = section
        return snapshot


def render_snapshot(snapshot: dict, title: str = "Signing service telemetry") -> str:
    """Render a :meth:`Telemetry.snapshot` dict (local or remote) as text."""
    from ..analysis.reporting import format_table

    sections = [format_table(
        ["tenant", *_OUTCOMES],
        [[name, *(counts.get(outcome, 0) for outcome in _OUTCOMES)]
         for name, counts in snapshot.get("tenants", {}).items()],
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
            + (f" (budget {budget} MB/set)" if budget else ""),
        ))

    queue = snapshot.get("queue", {})
    depth = (f"queue depth: {queue['depth']} now, "
             if "depth" in queue else "queue depth: ")
    tail = f"{depth}{queue.get('peak_depth', 0)} peak"
    if "uptime_s" in snapshot:
        tail += f"; up {snapshot['uptime_s']} s"
    sections.append(tail)
    return "\n\n".join(sections)
