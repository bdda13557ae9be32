"""``stats``, the rendered report and the scrape, pinned from the parent.

The literals below were captured from ``Telemetry`` as it stood when it
still kept every number twice (its own counters and windows, dual-written
into the registry): the event script in :func:`drive` was run against
that code and its ``snapshot()``, its ``render_snapshot`` text and its
Prometheus exposition were recorded.  They are the proof that making the
registry the only store moved nothing an operator reads — a renamed key,
a reordered table, an ``int`` turned ``float`` or a changed help string
fails here first.  What this change was allowed to move is spelled out in
``test_exposition_matches_the_parent`` and nowhere else.
"""

import json

from repro.service.telemetry import Telemetry, render_snapshot

POOL = {"workers": 2, "alive": 2, "pending": 1, "requeues": 3,
        "respawns": 1,
        "per_worker": {
            "0": {"alive": True, "cpu": 0, "tasks": 9, "busy_s": 1.5,
                  "utilization": 0.5, "in_flight": 1, "requeues": 2,
                  "respawns": 0},
            "1": {"alive": False, "cpu": 1, "tasks": 4, "busy_s": 0.25,
                  "utilization": 0.125, "in_flight": 0, "requeues": 1,
                  "respawns": 1}}}
CACHE = {"scopes": {"in-process 128f": {
                        "hits": 11, "misses": 4, "memo_hits": 7,
                        "memo_entries": 3, "bytes": 2048,
                        "pinned_layers": 3, "mode": "pinned"},
                    "verify 128f": {"memo_hits": 2, "memo_entries": 5}},
         "budget_mb": 2.0}


def boom():
    raise TypeError("stats hook broke")


def drive():
    """The fixed event script: ``(telemetry, degraded telemetry)``.

    Two tenants; 14 submitted, one shed for each reason, two failed,
    batches of 1/4/4/8, depths 1/5/3, twelve signatures with known
    latencies, a pool and a cache source — and, on a second instance
    (the parent had two source slots), a pool source that raises.
    """
    telemetry = Telemetry()
    telemetry.add_source("queue", lambda: {"depth": 3})
    telemetry.add_source("pool", lambda: POOL)
    telemetry.add_source("cache", lambda: CACHE)
    for _ in range(8):
        telemetry.record_submitted("acme")
    for _ in range(6):
        telemetry.record_submitted("edge")
    telemetry.record_shed("acme", "rate-limit")
    telemetry.record_shed("edge", "queue-full")
    telemetry.record_failed("edge", 2)
    for depth in (1, 5, 3):
        telemetry.observe_depth(depth)
    for size in (1, 4, 4, 8):
        telemetry.record_batch(size)
    for i in range(1, 13):
        telemetry.record_signed("acme" if i % 3 else "edge",
                                10.0 * i + 0.125, 0.5 * i)
    degraded = Telemetry()
    degraded.add_source("pool", boom)
    degraded.add_source("cache", lambda: CACHE)
    degraded.record_submitted("acme")
    degraded.record_signed("acme", 10.0, 1.0)
    return telemetry, degraded


def timeless(snapshot: dict) -> dict:
    return {key: value for key, value in snapshot.items()
            if key not in ("started_at", "uptime_s")}


PARENT_SNAPSHOT = {
    "snapshot_schema": 2,
    "tenants": {
        "acme": {"submitted": 9, "signed": 8, "shed": 1, "failed": 0},
        "edge": {"submitted": 7, "signed": 4, "shed": 1, "failed": 2}},
    "batches": {"dispatched": 4, "histogram": {"1": 1, "4": 2, "8": 1}},
    "queue": {"peak_depth": 5},
    "latency_ms": {
        "total": {"count": 12, "mean": 65.125, "p50": 60.125,
                  "p95": 120.125, "p99": 120.125, "max": 120.125},
        "wait": {"count": 12, "mean": 3.25, "p50": 3.0, "p95": 6.0,
                 "p99": 6.0, "max": 6.0}},
    "pool": POOL,
    "cache": CACHE,
}

PARENT_DEGRADED_SNAPSHOT = {
    "snapshot_schema": 2,
    "tenants": {
        "acme": {"submitted": 1, "signed": 1, "shed": 0, "failed": 0}},
    "batches": {"dispatched": 0, "histogram": {}},
    "queue": {"peak_depth": 0},
    "latency_ms": {
        "total": {"count": 1, "mean": 10.0, "p50": 10.0, "p95": 10.0,
                  "p99": 10.0, "max": 10.0},
        "wait": {"count": 1, "mean": 1.0, "p50": 1.0, "p95": 1.0,
                 "p99": 1.0, "max": 1.0}},
    "pool": {"error": "TypeError: stats hook broke"},
    "cache": CACHE,
}

PARENT_REPORT = """\
Parity
tenant  submitted  signed  shed  failed
------  ---------  ------  ----  ------
acme    9          8       1     0     
edge    7          4       1     2     

Batch-size histogram (4 batches dispatched)
batch size  batches
----------  -------
1           1      
4           2      
8           1      

Latency percentiles
latency (ms)  count  mean   p50    p95    p99    max  
------------  -----  -----  -----  -----  -----  -----
total         12     65.1   60.1   120.1  120.1  120.1
queue wait    12     3.250  3.000  6.000  6.000  6.000

Worker pool (2/2 alive, 1 tasks pending, 3 requeues, 1 respawns)
worker  alive  cpu  tasks  busy s  util   in-flight  requeues  respawns
------  -----  ---  -----  ------  -----  ---------  --------  --------
0       yes    0    9      1.500   50.0%  1          2         0       
1       NO     1    4      0.250   12.5%  0          1         1       

Hypertree layer caches (budget 2.0 MB/set)
cache scope      hits  misses  memo hits  memo entries  KiB    pinned layers
---------------  ----  ------  ---------  ------------  -----  -------------
in-process 128f  11    4       7          3             2.000  3            
verify 128f      0     0       2          5             0      0            

queue depth: 5 peak"""

PARENT_EXPOSITION = """\
# HELP repro_batch_size Dispatched batch sizes
# TYPE repro_batch_size histogram
repro_batch_size_bucket{le="1"} 1
repro_batch_size_bucket{le="2"} 1
repro_batch_size_bucket{le="4"} 3
repro_batch_size_bucket{le="8"} 4
repro_batch_size_bucket{le="16"} 4
repro_batch_size_bucket{le="32"} 4
repro_batch_size_bucket{le="64"} 4
repro_batch_size_bucket{le="128"} 4
repro_batch_size_bucket{le="+Inf"} 4
repro_batch_size_sum 17
repro_batch_size_count 4
# HELP repro_batches_total Batches dispatched
# TYPE repro_batches_total counter
repro_batches_total 4
# HELP repro_cache_bytes Layer-cache counters by scope
# TYPE repro_cache_bytes gauge
repro_cache_bytes{scope="in-process 128f"} 2048
# HELP repro_cache_hits Layer-cache counters by scope
# TYPE repro_cache_hits gauge
repro_cache_hits{scope="in-process 128f"} 11
# HELP repro_cache_memo_entries Layer-cache counters by scope
# TYPE repro_cache_memo_entries gauge
repro_cache_memo_entries{scope="in-process 128f"} 3
repro_cache_memo_entries{scope="verify 128f"} 5
# HELP repro_cache_memo_hits Layer-cache counters by scope
# TYPE repro_cache_memo_hits gauge
repro_cache_memo_hits{scope="in-process 128f"} 7
repro_cache_memo_hits{scope="verify 128f"} 2
# HELP repro_cache_misses Layer-cache counters by scope
# TYPE repro_cache_misses gauge
repro_cache_misses{scope="in-process 128f"} 4
# HELP repro_cache_pinned_layers Layer-cache counters by scope
# TYPE repro_cache_pinned_layers gauge
repro_cache_pinned_layers{scope="in-process 128f"} 3
# HELP repro_pool_alive Worker pool health
# TYPE repro_pool_alive gauge
repro_pool_alive 2
# HELP repro_pool_requeues Worker pool health
# TYPE repro_pool_requeues gauge
repro_pool_requeues 3
# HELP repro_pool_respawns Worker pool health
# TYPE repro_pool_respawns gauge
repro_pool_respawns 1
# HELP repro_pool_workers Worker pool health
# TYPE repro_pool_workers gauge
repro_pool_workers 2
# HELP repro_queue_depth Outstanding requests at last submit
# TYPE repro_queue_depth gauge
repro_queue_depth 3
# HELP repro_queue_depth_peak Peak outstanding requests
# TYPE repro_queue_depth_peak gauge
repro_queue_depth_peak 5
# HELP repro_queue_wait_ms Enqueue-to-dispatch queue wait
# TYPE repro_queue_wait_ms histogram
repro_queue_wait_ms_bucket{le="1"} 2
repro_queue_wait_ms_bucket{le="2.5"} 5
repro_queue_wait_ms_bucket{le="5"} 10
repro_queue_wait_ms_bucket{le="10"} 12
repro_queue_wait_ms_bucket{le="25"} 12
repro_queue_wait_ms_bucket{le="50"} 12
repro_queue_wait_ms_bucket{le="100"} 12
repro_queue_wait_ms_bucket{le="250"} 12
repro_queue_wait_ms_bucket{le="500"} 12
repro_queue_wait_ms_bucket{le="1000"} 12
repro_queue_wait_ms_bucket{le="2500"} 12
repro_queue_wait_ms_bucket{le="5000"} 12
repro_queue_wait_ms_bucket{le="+Inf"} 12
repro_queue_wait_ms_sum 39
repro_queue_wait_ms_count 12
# HELP repro_request_latency_ms Enqueue-to-signature latency
# TYPE repro_request_latency_ms histogram
repro_request_latency_ms_bucket{le="1"} 0
repro_request_latency_ms_bucket{le="2.5"} 0
repro_request_latency_ms_bucket{le="5"} 0
repro_request_latency_ms_bucket{le="10"} 0
repro_request_latency_ms_bucket{le="25"} 2
repro_request_latency_ms_bucket{le="50"} 4
repro_request_latency_ms_bucket{le="100"} 9
repro_request_latency_ms_bucket{le="250"} 12
repro_request_latency_ms_bucket{le="500"} 12
repro_request_latency_ms_bucket{le="1000"} 12
repro_request_latency_ms_bucket{le="2500"} 12
repro_request_latency_ms_bucket{le="5000"} 12
repro_request_latency_ms_bucket{le="+Inf"} 12
repro_request_latency_ms_sum 781.5
repro_request_latency_ms_count 12
# HELP repro_requests_total Requests by tenant and outcome
# TYPE repro_requests_total counter
repro_requests_total{outcome="failed",tenant="edge"} 2
repro_requests_total{outcome="shed",tenant="acme"} 1
repro_requests_total{outcome="shed",tenant="edge"} 1
repro_requests_total{outcome="signed",tenant="acme"} 8
repro_requests_total{outcome="signed",tenant="edge"} 4
repro_requests_total{outcome="submitted",tenant="acme"} 9
repro_requests_total{outcome="submitted",tenant="edge"} 7
# HELP repro_worker_in_flight Per-worker pool state
# TYPE repro_worker_in_flight gauge
repro_worker_in_flight{worker="0"} 1
repro_worker_in_flight{worker="1"} 0
# HELP repro_worker_tasks Per-worker pool state
# TYPE repro_worker_tasks gauge
repro_worker_tasks{worker="0"} 9
repro_worker_tasks{worker="1"} 4
# HELP repro_worker_utilization Per-worker pool state
# TYPE repro_worker_utilization gauge
repro_worker_utilization{worker="0"} 0.5
repro_worker_utilization{worker="1"} 0.125
"""

PARENT_DEGRADED_ERRORS = """\
# HELP repro_collector_errors_total Scrape-time collector failures
# TYPE repro_collector_errors_total counter
repro_collector_errors_total{collector="pool",error="TypeError"} 1
"""


def families_of(exposition: str) -> dict[str, str]:
    """Exposition text split into ``{family: its HELP/TYPE/sample lines}``."""
    families: dict[str, str] = {}
    for block in exposition.split("# HELP ")[1:]:
        families[block.split(" ", 1)[0]] = "# HELP " + block
    return families


class TestParentParity:
    def test_snapshot_matches_the_parent(self):
        telemetry, degraded = drive()
        snapshot = timeless(telemetry.snapshot())
        assert snapshot == PARENT_SNAPSHOT
        # Same key order and same int/float types too: the payload is
        # shipped as JSON, and 9 and 9.0 are different bytes there.
        assert json.dumps(snapshot) == json.dumps(PARENT_SNAPSHOT)
        shaken = timeless(degraded.snapshot())
        assert json.dumps(shaken) == json.dumps(PARENT_DEGRADED_SNAPSHOT)

    def test_rendered_report_matches_the_parent(self):
        telemetry, _ = drive()
        assert render_snapshot(timeless(telemetry.snapshot()),
                               title="Parity") == PARENT_REPORT

    def test_exposition_matches_the_parent(self):
        telemetry, degraded = drive()
        parent = families_of(PARENT_EXPOSITION)
        change = families_of(telemetry.registry.render_prometheus())
        # Allowed to move, 1 of 3: a new family says why a request was shed.
        assert change.pop("repro_shed_total") == (
            "# HELP repro_shed_total Requests shed, by tenant and reason\n"
            "# TYPE repro_shed_total counter\n"
            'repro_shed_total{reason="queue-full",tenant="edge"} 1\n'
            'repro_shed_total{reason="rate-limit",tenant="acme"} 1\n')
        # 2 of 3: batches are counted per exact size (the ``stats``
        # histogram is read from here); the family's sum is the old value.
        assert parent.pop("repro_batches_total").endswith(
            "repro_batches_total 4\n")
        assert change.pop("repro_batches_total") == (
            "# HELP repro_batches_total Batches dispatched\n"
            "# TYPE repro_batches_total counter\n"
            'repro_batches_total{size="1"} 1\n'
            'repro_batches_total{size="4"} 2\n'
            'repro_batches_total{size="8"} 1\n')
        # 3 of 3: the depth gauge is read live at the scrape, so its help
        # no longer says "at last submit".  Same name, type and value.
        assert parent.pop("repro_queue_depth") == (
            "# HELP repro_queue_depth Outstanding requests at last submit\n"
            "# TYPE repro_queue_depth gauge\nrepro_queue_depth 3\n")
        assert change.pop("repro_queue_depth") == (
            "# HELP repro_queue_depth Outstanding requests\n"
            "# TYPE repro_queue_depth gauge\nrepro_queue_depth 3\n")
        # Everything else, byte for byte.
        assert change == parent
        shaken = families_of(degraded.registry.render_prometheus())
        assert (shaken["repro_collector_errors_total"]
                == PARENT_DEGRADED_ERRORS)
        assert not any(name.startswith(("repro_pool_", "repro_worker_"))
                       for name in shaken)
