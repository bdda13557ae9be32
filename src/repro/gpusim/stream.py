"""Streams and the execution timeline.

The timeline is a small discrete-event simulator for *concurrent kernel
execution with launch-overhead accounting* — the level at which the paper's
batching story plays out (§III-F, Figure 12):

* Each ordinary stream launch costs host time
  (:attr:`Calibration.kernel_launch_us`), and the baseline's synchronous
  flow additionally pays a host gap between dependent kernels
  (:attr:`Calibration.host_sync_gap_us`) — that is the "idle time" row of
  paper Table II.
* Kernels whose dependences and stream order allow it run concurrently and
  share the GPU by *water-filling*: each kernel has a ``demand`` (the
  fraction of the machine it can use running alone, from its occupancy and
  grid size) and concurrent kernels split capacity proportionally, never
  receiving more than their demand.

Task-graph launches (:mod:`repro.gpusim.graph`) reuse this timeline but
replace per-kernel host costs with one graph launch plus a tiny per-node
residual, which is where the paper's two-orders-of-magnitude launch-latency
reduction comes from.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from ..errors import GpuModelError
from .calibration import Calibration, DEFAULT_CALIBRATION
from .device import DeviceSpec

__all__ = ["Stream", "LaunchRecord", "TimelineResult", "Timeline"]


@dataclass
class Stream:
    """An ordered launch queue (CUDA stream analog)."""

    name: str
    _last: "LaunchRecord | None" = None


@dataclass
class LaunchRecord:
    """One kernel instance on the timeline."""

    uid: int
    name: str
    stream: Stream
    work_s: float                 # run-alone execution time
    demand: float                 # fraction of the GPU it can use alone
    overhead_s: float             # host-side launch cost
    deps: tuple["LaunchRecord", ...] = ()
    start_after_s: float = 0.0    # host-sync stall between deps and start
    submit_time: float = math.nan
    start_time: float = math.nan
    end_time: float = math.nan

    @property
    def launch_latency_s(self) -> float:
        """Nsight-style launch latency: API call to kernel start."""
        return max(0.0, self.start_time - self.submit_time) + self.overhead_s


@dataclass
class TimelineResult:
    """Outcome of one timeline simulation."""

    records: list[LaunchRecord]
    makespan_s: float
    launch_overhead_s: float
    gpu_busy_s: float

    @property
    def gpu_idle_s(self) -> float:
        """Wall time during which no kernel was executing."""
        return self.makespan_s - self.gpu_busy_s

    @property
    def launch_latency_s(self) -> float:
        """Total Nsight-style launch latency (API call to kernel start,
        including queueing behind dependences) across all records."""
        return sum(rec.launch_latency_s for rec in self.records)

    @property
    def launch_latency_us(self) -> float:
        return self.launch_latency_s * 1e6


class Timeline:
    """Discrete-event execution timeline for one device."""

    def __init__(self, device: DeviceSpec,
                 calibration: Calibration = DEFAULT_CALIBRATION):
        self.device = device
        self.calibration = calibration
        self._records: list[LaunchRecord] = []
        self._uid = itertools.count()
        self._host_time = 0.0
        self._launch_overhead = 0.0

    # ------------------------------------------------------------------
    def stream(self, name: str) -> Stream:
        return Stream(name=name)

    def launch(
        self,
        stream: Stream,
        name: str,
        work_s: float,
        demand: float = 1.0,
        deps: tuple[LaunchRecord, ...] | list[LaunchRecord] = (),
        overhead_s: float | None = None,
        host_gap_s: float = 0.0,
        start_after_s: float = 0.0,
    ) -> LaunchRecord:
        """Enqueue a kernel on *stream*.

        ``host_gap_s`` models synchronous host work before this launch
        (stalling subsequent submissions); ``start_after_s`` adds a stall
        between the dependences completing and this kernel starting (the
        baseline's device-sync-and-relaunch gap, which shows up as GPU idle
        time); ``overhead_s`` defaults to the calibrated stream launch cost.
        """
        if not 0.0 < demand <= 1.0:
            raise GpuModelError(f"demand {demand} outside (0, 1]")
        if work_s < 0:
            raise GpuModelError(f"negative work {work_s}")
        overhead = (
            self.calibration.kernel_launch_us * 1e-6
            if overhead_s is None
            else overhead_s
        )
        self._host_time += host_gap_s + overhead
        self._launch_overhead += overhead
        record = LaunchRecord(
            uid=next(self._uid),
            name=name,
            stream=stream,
            work_s=work_s,
            demand=demand,
            overhead_s=overhead,
            deps=tuple(deps) + ((stream._last,) if stream._last else ()),
            start_after_s=start_after_s,
            submit_time=self._host_time,
        )
        stream._last = record
        self._records.append(record)
        return record

    # ------------------------------------------------------------------
    def run(self) -> TimelineResult:
        """Simulate and fill every record's start/end time."""
        pending = list(self._records)
        remaining: dict[int, float] = {r.uid: r.work_s for r in pending}
        active: list[LaunchRecord] = []
        done: set[int] = set()
        now = 0.0
        busy = 0.0

        def ready_time(rec: LaunchRecord) -> float:
            if any(d.uid not in done for d in rec.deps):
                return math.inf
            dep_end = max((d.end_time for d in rec.deps), default=0.0)
            return max(rec.submit_time, dep_end + rec.start_after_s)

        while pending or active:
            # Admit every kernel that is ready at `now`.
            newly = [r for r in pending if ready_time(r) <= now]
            for rec in newly:
                rec.start_time = now
                active.append(rec)
                pending.remove(rec)

            if not active:
                # Jump to the next admission time.
                next_ready = min(ready_time(r) for r in pending)
                if math.isinf(next_ready):
                    raise GpuModelError("timeline deadlock: circular dependences")
                now = next_ready
                continue

            shares = _water_fill([r.demand for r in active])
            # A kernel's progress rate is its machine share normalized by
            # what it can use running alone: share == demand -> full speed.
            rates = [
                share / rec.demand for share, rec in zip(shares, active)
            ]
            # Next event: a completion or a new kernel becoming ready.
            completions = [
                remaining[r.uid] / rate if rate > 0 else math.inf
                for r, rate in zip(active, rates)
            ]
            dt_complete = min(completions)
            future_ready = [
                t for t in (ready_time(r) for r in pending)
                if t > now and not math.isinf(t)
            ]
            dt_ready = min(future_ready) - now if future_ready else math.inf
            dt = min(dt_complete, dt_ready)
            if math.isinf(dt):
                raise GpuModelError("timeline stalled")

            for rec, rate in zip(active, rates):
                remaining[rec.uid] -= rate * dt
            busy += dt
            now += dt

            finished = [
                rec for rec in active if remaining[rec.uid] <= 1e-15
            ]
            for rec in finished:
                rec.end_time = now
                done.add(rec.uid)
                active.remove(rec)

        return TimelineResult(
            records=list(self._records),
            makespan_s=now,
            launch_overhead_s=self._launch_overhead,
            gpu_busy_s=busy,
        )


def _water_fill(demands: list[float]) -> list[float]:
    """Split unit capacity across kernels, capped by individual demand."""
    rates = [0.0] * len(demands)
    capacity = 1.0
    unsatisfied = list(range(len(demands)))
    while unsatisfied and capacity > 1e-12:
        fair = capacity / len(unsatisfied)
        capped = [i for i in unsatisfied if demands[i] - rates[i] <= fair]
        if not capped:
            for i in unsatisfied:
                rates[i] += fair
            capacity = 0.0
            break
        for i in capped:
            capacity -= demands[i] - rates[i]
            rates[i] = demands[i]
            unsatisfied.remove(i)
    return rates
