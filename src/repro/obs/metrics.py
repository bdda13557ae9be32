"""The metrics registry: counters, gauges, histograms, scraping.

:class:`MetricsRegistry` is the one store of every service-tier number.
A number is written once, to a series here; what an operator reads are
views of those series: the ``stats`` verb and its rendered report
(:meth:`repro.service.telemetry.Telemetry.snapshot`, built on
:meth:`MetricsRegistry.family`), and the scrape below.  State owned
elsewhere (the pool, the caches, the queue) is read at scrape time by
*collectors*, never copied in on the hot path.

The scrape is exposed two ways:

* the ``metrics`` protocol verb returns :meth:`MetricsRegistry.collect`
  (JSON) or the Prometheus text exposition;
* ``--metrics-port`` starts a :class:`MetricsServer` — a stdlib
  ``http.server`` thread answering ``GET /metrics`` with the standard
  ``text/plain; version=0.0.4`` exposition, scrapeable by a stock
  Prometheus agent with zero dependencies on our side.

:func:`parse_prometheus` is the matching stdlib-only parser, used by the
CI smoke job (and tests) to prove the exposition round-trips.
"""

from __future__ import annotations

import json
import re
import threading
from bisect import bisect_left
from collections import deque
from itertools import accumulate
from typing import Callable, Iterable

__all__ = ["MetricsRegistry", "MetricsServer", "parse_prometheus",
           "render_prometheus"]

#: Default latency-histogram bucket bounds, in milliseconds.  Fixed at
#: registry construction so every scrape sees the same schema.
LATENCY_BUCKETS_MS = (1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                      500.0, 1000.0, 2500.0, 5000.0)

#: Batch sizes worth distinguishing (the service caps frames well below
#: the top bound; the +Inf bucket catches the rest).
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """One (name, label set) series.  All mutation under the registry's
    lock — see :class:`MetricsRegistry`."""

    kind = "counter"

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Gauge(Counter):
    kind = "gauge"

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def set_max(self, value: float) -> None:
        """Raise the gauge to *value*; a high-water mark never falls."""
        with self._lock:
            if value > self.value:
                self.value = float(value)


class Histogram:
    """Fixed buckets, plus — with ``window`` — the last *window* raw
    observations, so a view can report exact percentiles of recent
    traffic where the buckets only bound them."""

    kind = "histogram"

    def __init__(self, lock: threading.Lock,
                 buckets: Iterable[float] = LATENCY_BUCKETS_MS,
                 window: int = 0):
        self._lock = lock
        self.bounds = tuple(sorted(float(b) for b in buckets))
        self.counts = [0] * (len(self.bounds) + 1)  # +1 for +Inf
        self.total = 0.0
        self.count = 0
        self._recent: deque[float] = deque(maxlen=window)

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            self._recent.append(value)
            # First bucket whose bound is >= value; past them all, +Inf.
            self.counts[bisect_left(self.bounds, value)] += 1

    def recent(self) -> list[float]:
        """The retained window, oldest first (empty without one)."""
        with self._lock:
            return list(self._recent)


_Metric = Counter | Histogram


class MetricsRegistry:
    """Process-wide named metrics with labels, collectors, and exports.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create a series for a
    (name, labels) pair; the same call from two threads returns the same
    object.  *Collectors* are callables run at scrape time (each guarded
    — a raising collector is counted in ``repro_collector_errors_total``
    instead of poisoning the scrape), which is how the pool and cache
    stat providers feed gauges without a background thread.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._series: dict[tuple[str, tuple], _Metric] = {}
        self._help: dict[str, str] = {}
        self._kinds: dict[str, str] = {}
        self._collectors: list[tuple[str, Callable[["MetricsRegistry"],
                                                   None]]] = []

    # ------------------------------------------------------------------
    def _get(self, name: str, kind: str, factory, help_: str,
             labels: dict[str, str]) -> _Metric:
        key = (name, _label_key(labels))
        with self._lock:
            registered = self._kinds.get(name)
            if registered is not None and registered != kind:
                raise ValueError(
                    f"metric {name!r} is a {registered}, not a {kind}")
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = factory()
                self._kinds[name] = kind
                if help_ or name not in self._help:
                    self._help[name] = help_
            return series

    def counter(self, name: str, help: str = "",
                **labels: str) -> Counter:
        return self._get(name, "counter", lambda: Counter(self._lock),
                         help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(name, "gauge", lambda: Gauge(self._lock),
                         help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = LATENCY_BUCKETS_MS,
                  window: int = 0, **labels: str) -> Histogram:
        return self._get(name, "histogram",
                         lambda: Histogram(self._lock, buckets, window),
                         help, labels)

    def family(self, name: str) -> list[tuple[dict[str, str], _Metric]]:
        """Every series of family *name* as ``(labels, series)`` — what
        a view reads (collectors are not run; see :meth:`collect`)."""
        with self._lock:
            return [(dict(label_key), series) for (family, label_key),
                    series in self._series.items() if family == name]

    def add_collector(self, name: str,
                      collector: Callable[["MetricsRegistry"], None]
                      ) -> None:
        """Run *collector(registry)* at every scrape; errors are counted
        (``repro_collector_errors_total{collector=name}``), not raised."""
        with self._lock:
            self._collectors.append((name, collector))

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def collect(self) -> dict:
        """JSON-safe snapshot of every series (the ``metrics`` verb),
        taken after running the collectors."""
        with self._lock:
            collectors = list(self._collectors)
        for name, collector in collectors:
            try:
                collector(self)
            except Exception as exc:  # noqa: BLE001 — scrape must survive
                self.counter(
                    "repro_collector_errors_total",
                    "Scrape-time collector failures", collector=name,
                    error=type(exc).__name__).inc()
        with self._lock:
            families: dict[str, dict] = {}
            for (name, label_key), series in sorted(self._series.items()):
                family = families.setdefault(name, {
                    "type": series.kind,
                    "help": self._help.get(name, ""),
                    "series": [],
                })
                entry: dict = {"labels": dict(label_key)}
                if isinstance(series, Histogram):
                    entry["count"] = series.count
                    entry["sum"] = round(series.total, 6)
                    # Prometheus buckets are cumulative, +Inf last.
                    entry["buckets"] = dict(zip(
                        [f"{bound:g}" for bound in series.bounds] + ["+Inf"],
                        accumulate(series.counts)))
                else:
                    entry["value"] = round(series.value, 6)
                family["series"].append(entry)
            return families

    def render_prometheus(self) -> str:
        return render_prometheus(self.collect())


# ----------------------------------------------------------------------
# Prometheus text exposition (version 0.0.4) — emit and parse
# ----------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label(value)}"'
                     for key, value in sorted(labels.items()))
    return "{" + inner + "}"


def render_prometheus(families: dict) -> str:
    """Render a :meth:`MetricsRegistry.collect` dict as exposition text."""
    lines: list[str] = []
    for name, family in sorted(families.items()):
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        for entry in family["series"]:
            labels = entry.get("labels", {})
            if family["type"] == "histogram":
                for bound, cumulative in entry["buckets"].items():
                    lines.append(
                        f"{name}_bucket"
                        f"{_format_labels({**labels, 'le': bound})} "
                        f"{cumulative}")
                lines.append(f"{name}_sum{_format_labels(labels)} "
                             f"{entry['sum']:g}")
                lines.append(f"{name}_count{_format_labels(labels)} "
                             f"{entry['count']}")
            else:
                lines.append(f"{name}{_format_labels(labels)} "
                             f"{entry['value']:g}")
    return "\n".join(lines) + "\n"


#: One ``key="value"`` pair of a label set; the value may hold escapes.
_LABEL = re.compile(r'\s*(\w+)\s*="((?:[^"\\]|\\.)*)",?')


def parse_prometheus(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Parse exposition text back into ``{name: [(labels, value)]}``.

    A deliberately strict stdlib parser: any malformed sample line
    raises ``ValueError``.  Used by tests and the CI smoke job to prove
    the endpoint emits valid exposition format.
    """
    samples: dict[str, list[tuple[dict, float]]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        name, brace, blob = name_part.partition("{")
        if brace and not blob.endswith("}"):
            raise ValueError(f"line {lineno}: unterminated labels")
        if not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"line {lineno}: bad metric name {name!r}")
        labels: dict[str, str] = {}
        position, blob = 0, blob[:-1]
        while position < len(blob):
            pair = _LABEL.match(blob, position)
            if pair is None:
                raise ValueError(
                    f"line {lineno}: malformed label in {line!r}")
            labels[pair[1]] = re.sub(r"\\(.)", r"\1", pair[2])
            position = pair.end()
        try:
            value = float(value_part)
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: bad sample value {value_part!r}"
            ) from exc
        samples.setdefault(name, []).append((labels, value))
    if not samples:
        raise ValueError("no samples in exposition text")
    return samples


# ----------------------------------------------------------------------
# Scrape endpoint
# ----------------------------------------------------------------------
class MetricsServer:
    """``GET /metrics`` over stdlib ``http.server``, on a daemon thread.

    Port 0 picks a free port (read :attr:`port` after ``start()``).
    ``/metrics?format=json`` returns the :meth:`~MetricsRegistry.collect`
    dict instead of the text exposition.
    """

    def __init__(self, registry: MetricsRegistry,
                 host: str = "127.0.0.1", port: int = 0):
        self.registry = registry
        self.host = host
        self.port = port
        self._httpd = None
        self._thread: threading.Thread | None = None

    def start(self) -> "MetricsServer":
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        registry = self.registry

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 — http.server API
                path, _, query = self.path.partition("?")
                if path not in ("/metrics", "/"):
                    self.send_error(404)
                    return
                if "format=json" in query:
                    body = json.dumps(registry.collect()).encode()
                    content_type = "application/json"
                else:
                    body = registry.render_prometheus().encode()
                    content_type = "text/plain; version=0.0.4"
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:
                pass  # scrapes are routine; keep stderr quiet

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics",
            daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
