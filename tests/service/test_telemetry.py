"""Telemetry counters, percentiles, and snapshot rendering."""

import asyncio
import json
import threading
import time
from types import SimpleNamespace

from repro.obs import metrics
from repro.service import Telemetry, percentile, render_snapshot
from repro.service import telemetry as telemetry_module
from repro.service.telemetry import SNAPSHOT_SCHEMA


class TestPercentile:
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        assert percentile(samples, 50) == 50
        assert percentile(samples, 95) == 95
        assert percentile(samples, 99) == 99
        assert percentile(samples, 100) == 100

    def test_small_and_empty(self):
        assert percentile([], 99) == 0.0
        assert percentile([42.0], 50) == 42.0
        assert percentile([42.0], 99) == 42.0
        assert percentile([10.0, 20.0], 99) == 20.0


class TestTelemetry:
    def test_counters_and_histogram(self):
        telemetry = Telemetry()
        telemetry.record_submitted("acme")
        telemetry.record_signed("acme", total_ms=120.0, wait_ms=20.0)
        telemetry.record_shed("acme", "queue-full")
        telemetry.record_failed("edge")
        telemetry.record_batch(4)
        telemetry.record_batch(4)
        telemetry.record_batch(1)
        telemetry.observe_depth(3)
        telemetry.observe_depth(1)

        snapshot = telemetry.snapshot()
        assert snapshot["tenants"]["acme"] == {
            "submitted": 2, "signed": 1, "shed": 1, "failed": 0}
        assert snapshot["tenants"]["edge"]["failed"] == 1
        assert snapshot["batches"] == {
            "dispatched": 3, "histogram": {"1": 1, "4": 2}}
        assert snapshot["queue"]["peak_depth"] == 3
        assert snapshot["latency_ms"]["total"]["p50"] == 120.0
        assert snapshot["latency_ms"]["wait"]["max"] == 20.0

    def test_snapshot_is_json_safe(self):
        telemetry = Telemetry()
        telemetry.record_signed("t", 10.0, 1.0)
        telemetry.record_batch(2)
        round_tripped = json.loads(json.dumps(telemetry.snapshot()))
        assert round_tripped["batches"]["histogram"] == {"2": 1}

    def test_latency_window_rolls(self, monkeypatch):
        monkeypatch.setattr(telemetry_module, "LATENCY_WINDOW", 10)
        telemetry = Telemetry()
        for i in range(100):
            telemetry.record_signed("t", total_ms=float(i), wait_ms=0.0)
        summary = telemetry.snapshot()["latency_ms"]["total"]
        assert summary["count"] == 10
        assert summary["p50"] >= 90.0  # only the newest samples remain

    def test_render_snapshot_local_and_remote(self):
        telemetry = Telemetry()
        telemetry.record_signed("acme", 100.0, 5.0)
        telemetry.record_batch(1)
        snapshot = telemetry.snapshot()
        local = render_snapshot(snapshot, title="local view")
        assert "local view" in local and "acme" in local
        assert "p50" in local and "p95" in local and "p99" in local
        # The same snapshot after crossing the wire renders identically
        # (a fresh one would differ only in its live uptime_s reading).
        remote = json.loads(json.dumps(snapshot))
        assert render_snapshot(remote, title="local view") == local

    def test_render_empty_snapshot(self):
        assert "Batch-size histogram" in render_snapshot({})


class TestSnapshotShape:
    def test_schema_version_and_uptime(self):
        telemetry = Telemetry()
        snapshot = telemetry.snapshot()
        assert snapshot["snapshot_schema"] == SNAPSHOT_SCHEMA
        # started_at is rounded to the millisecond, so allow the round-up.
        assert abs(snapshot["started_at"] - time.time()) < 1.0
        assert snapshot["uptime_s"] >= 0.0
        time.sleep(0.01)
        assert telemetry.snapshot()["uptime_s"] > snapshot["uptime_s"]

    def test_raising_provider_reports_error_not_poison(self):
        """Regression: one bad provider must not kill the stats verb."""
        telemetry = Telemetry()
        telemetry.record_signed("acme", 10.0, 1.0)
        telemetry.add_source(
            "pool",
            lambda: (_ for _ in ()).throw(TypeError("stats hook broke")))
        telemetry.add_source("cache", lambda: {"scopes": {"s": {"hits": 1}}})
        snapshot = telemetry.snapshot()
        assert snapshot["pool"] == {
            "error": "TypeError: stats hook broke"}
        # The healthy provider and every base section still ship.
        assert snapshot["cache"]["scopes"]["s"]["hits"] == 1
        assert snapshot["tenants"]["acme"]["signed"] == 1
        json.dumps(snapshot)  # and the result is still JSON-safe
        # render_snapshot of the degraded shape must not raise either.
        assert "acme" in render_snapshot(snapshot)
        # The same registration counts the failure at the scrape.
        families = telemetry.registry.collect()
        [errors] = families["repro_collector_errors_total"]["series"]
        assert errors["labels"] == {"collector": "pool",
                                    "error": "TypeError"}
        [hits] = families["repro_cache_hits"]["series"]
        assert hits["value"] == 1.0

    def test_provider_sections_are_deep_copied(self):
        """A caller mutating the snapshot must not corrupt provider
        state shared with the live dispatcher."""
        live = {"workers": 2, "per_worker": {"0": {"signed": 5}}}
        telemetry = Telemetry()
        telemetry.add_source("pool", lambda: live)
        snapshot = telemetry.snapshot()
        snapshot["pool"]["per_worker"]["0"]["signed"] = 999
        snapshot["pool"]["workers"] = 0
        assert live == {"workers": 2, "per_worker": {"0": {"signed": 5}}}

    def test_empty_provider_sections(self):
        telemetry = Telemetry()
        telemetry.add_source("pool", lambda: {})
        telemetry.add_source("cache", lambda: {})
        snapshot = telemetry.snapshot()
        assert snapshot["pool"] == {}
        assert "cache" not in snapshot


class TestConcurrentRecording:
    def test_thread_and_event_loop_lose_no_increments(self, monkeypatch):
        """A worker-pool collector thread and the service's asyncio loop
        record into one Telemetry concurrently."""
        monkeypatch.setattr(telemetry_module, "LATENCY_WINDOW", 100_000)
        telemetry = Telemetry()

        def thread_half():
            for _ in range(2000):
                telemetry.record_submitted("acme")
                telemetry.record_signed("acme", 1.0, 0.5)
                telemetry.record_batch(4)

        async def loop_half():
            for _ in range(20):
                await asyncio.sleep(0)
                for _ in range(100):
                    telemetry.record_submitted("acme")
                    telemetry.record_signed("acme", 2.0, 1.0)
                    telemetry.record_batch(8)
                    telemetry.observe_depth(3)

        threads = [threading.Thread(target=thread_half) for _ in range(2)]
        for thread in threads:
            thread.start()
        asyncio.run(loop_half())
        for thread in threads:
            thread.join()

        snapshot = telemetry.snapshot()
        assert snapshot["tenants"]["acme"] == {
            "submitted": 6000, "signed": 6000, "shed": 0, "failed": 0}
        assert snapshot["batches"]["dispatched"] == 6000
        assert snapshot["batches"]["histogram"] == {"4": 4000, "8": 2000}
        assert snapshot["latency_ms"]["total"]["count"] == 6000
        # And the scrape reads the same series the snapshot was built on.
        families = telemetry.registry.collect()
        signed = [s["value"] for s
                  in families["repro_requests_total"]["series"]
                  if s["labels"].get("outcome") == "signed"]
        assert sum(signed) == 6000.0


class TestRegistryDualWrite:
    """The view and the scrape read the same series: there is one store."""

    def test_counters_land_in_the_unified_registry(self):
        telemetry = Telemetry()
        telemetry.record_submitted("acme")
        telemetry.record_shed("acme", "rate-limit")
        telemetry.record_failed("edge", 2)
        telemetry.record_batch(4)
        telemetry.observe_depth(7)
        families = telemetry.registry.collect()
        by_labels = {tuple(sorted(s["labels"].items())): s["value"]
                     for s in families["repro_requests_total"]["series"]}
        assert by_labels[("outcome", "submitted"), ("tenant", "acme")] == 2
        assert by_labels[("outcome", "shed"), ("tenant", "acme")] == 1
        assert by_labels[("outcome", "failed"), ("tenant", "edge")] == 2
        [batches] = families["repro_batches_total"]["series"]
        assert batches == {"labels": {"size": "4"}, "value": 1.0}
        [peak] = families["repro_queue_depth_peak"]["series"]
        assert peak["value"] == 7.0
        tenants = telemetry.snapshot()["tenants"]
        assert tenants["acme"] == {"submitted": 2, "signed": 0, "shed": 1,
                                   "failed": 0}
        assert tenants["edge"]["failed"] == 2

    def test_mutating_a_series_moves_both_views(self):
        """Nothing but the registry is touched, and the ``stats`` view
        and the scrape both move: neither has a copy of its own."""
        telemetry = Telemetry()
        telemetry.record_signed("acme", 10.0, 1.0)
        registry = telemetry.registry
        registry.counter("repro_requests_total", tenant="acme",
                         outcome="signed").inc(4)
        registry.counter("repro_requests_total", tenant="walk-in",
                         outcome="failed").inc()
        registry.counter("repro_batches_total", size="16").inc(3)
        registry.gauge("repro_queue_depth_peak").set(9)
        registry.histogram("repro_request_latency_ms").observe(30.0)
        snapshot = telemetry.snapshot()
        assert snapshot["tenants"]["acme"]["signed"] == 5
        assert snapshot["tenants"]["walk-in"] == {
            "submitted": 0, "signed": 0, "shed": 0, "failed": 1}
        assert snapshot["batches"] == {"dispatched": 3,
                                       "histogram": {"16": 3}}
        assert snapshot["queue"]["peak_depth"] == 9
        assert snapshot["latency_ms"]["total"]["count"] == 2
        assert snapshot["latency_ms"]["total"]["max"] == 30.0
        families = registry.collect()
        signed = [s["value"] for s
                  in families["repro_requests_total"]["series"]
                  if s["labels"] == {"tenant": "acme", "outcome": "signed"}]
        assert signed == [5.0]
        [latency] = families["repro_request_latency_ms"]["series"]
        assert latency["count"] == 2

    def test_shed_is_counted_by_reason(self):
        telemetry = Telemetry()
        telemetry.record_shed("acme", "rate-limit")
        telemetry.record_shed("acme", "rate-limit")
        telemetry.record_shed("acme", "queue-full")
        families = telemetry.registry.collect()
        by_reason = {s["labels"]["reason"]: s["value"]
                     for s in families["repro_shed_total"]["series"]}
        assert by_reason == {"rate-limit": 2.0, "queue-full": 1.0}
        # The totals stay where dashboards already read them.
        assert telemetry.snapshot()["tenants"]["acme"] == {
            "submitted": 3, "signed": 0, "shed": 3, "failed": 0}

    def test_pool_and_cache_providers_feed_scrape_gauges(self):
        telemetry = Telemetry()
        telemetry.add_source("pool", lambda: {
            "workers": 2, "alive": 2, "requeues": 0, "respawns": 1,
            "per_worker": {"0": {"utilization": 0.5, "tasks": 9}}})
        telemetry.add_source("cache", lambda: {
            "scopes": {"worker-0": {"hits": 11, "bytes": 2048}}})
        telemetry.add_source("keystore", lambda: {
            "hits": 5, "misses": 1, "loads": 1, "evictions": 0,
            "rate_denials": 3, "resident": 2, "known": 2,
            "max_cached": None})
        families = telemetry.registry.collect()
        [respawns] = families["repro_pool_respawns"]["series"]
        assert respawns["value"] == 1.0
        [tasks] = families["repro_worker_tasks"]["series"]
        assert tasks["labels"] == {"worker": "0"}
        assert tasks["value"] == 9.0
        [hits] = families["repro_cache_hits"]["series"]
        assert hits["labels"] == {"scope": "worker-0"}
        assert hits["value"] == 11.0
        [denials] = families["repro_keystore_rate_denials"]["series"]
        assert denials == {"labels": {}, "value": 3.0}
        assert sorted(name for name in families
                      if name.startswith("repro_keystore_")) == [
            "repro_keystore_evictions", "repro_keystore_hits",
            "repro_keystore_loads", "repro_keystore_misses",
            "repro_keystore_rate_denials", "repro_keystore_resident"]
        # Scrape-only: schema 2 of the stats payload has no such section.
        assert "keystore" not in telemetry.snapshot()


class TestRecordPathCost:
    def test_one_request_round_takes_at_most_eight_locks(self, monkeypatch):
        """The structure behind the record path's cost: one store, one
        lock, and series handles resolved once — not a lookup per event.
        (With a second store beside the registry this round took a lock
        20 times.)"""
        acquired = []

        class CountingLock:
            def __init__(self):
                self._lock = threading.Lock()

            def __enter__(self):
                acquired.append(1)
                return self._lock.__enter__()

            def __exit__(self, *exc):
                return self._lock.__exit__(*exc)

        # Every lock the metrics module creates from here on counts ...
        monkeypatch.setattr(metrics, "threading", SimpleNamespace(
            Lock=CountingLock, Thread=threading.Thread))
        # ... and the telemetry module has none of its own to create.
        import repro.service.telemetry as telemetry_module
        assert not hasattr(telemetry_module, "threading")
        telemetry = Telemetry()

        def one_request():
            telemetry.record_submitted("acme")
            telemetry.observe_depth(3)
            telemetry.record_batch(4)
            telemetry.record_signed("acme", 12.5, 0.5)

        one_request()  # first sight of the tenant resolves its handles
        assert acquired
        del acquired[:]
        one_request()
        assert len(acquired) <= 8, len(acquired)
        assert telemetry.snapshot()["tenants"]["acme"]["signed"] == 2
