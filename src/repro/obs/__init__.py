"""Observability: tracing, metrics, and structured logging for the stack.

Three small, dependency-free subsystems, each usable on its own:

:mod:`.trace`
    Request tracing.  A :class:`~.trace.TraceContext` (trace id + span
    id) is created at the client facade, propagated by ``contextvars``
    where the call chain is synchronous and carried explicitly (wire
    field, batcher entry, worker message) where it is not, and every
    tier emits :class:`~.trace.Span` records into a shared
    :class:`~.trace.Tracer` — a bounded in-memory ring with an optional
    JSONL export.  ``repro trace`` renders the critical path.
:mod:`.metrics`
    A :class:`~.metrics.MetricsRegistry` of counters, gauges, and
    fixed-bucket histograms — the one store of every service-tier
    number; :class:`~repro.service.telemetry.Telemetry` writes to it
    and the ``stats`` verb is a view of it — with a Prometheus text
    exposition and an optional stdlib HTTP scrape endpoint.
:mod:`.log`
    JSON-lines structured logging with trace-id correlation, adopted at
    the service's accept/shed/crash/respawn points.

Everything is off by default and every hook sits behind an ``is None``
check, so the hot paths stay hook-free until an operator opts in.
"""

from .log import JsonLogger, configure_logging, get_logger
from .metrics import (MetricsRegistry, MetricsServer, parse_prometheus,
                      render_prometheus)
from .trace import (Span, TraceContext, Tracer, current_trace, load_spans,
                    new_span_id, new_trace_id, render_critical_path,
                    start_trace, use_trace)

__all__ = [
    "JsonLogger", "MetricsRegistry", "MetricsServer", "Span",
    "TraceContext", "Tracer", "configure_logging",
    "current_trace", "get_logger", "load_spans",
    "new_span_id", "new_trace_id", "parse_prometheus",
    "render_critical_path", "render_prometheus", "start_trace",
    "use_trace",
]
