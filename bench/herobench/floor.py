"""The ``hashlib`` floor and the unit ``kh``.

One *hash* is one bare ``mid.copy(); update(54 bytes); digest()`` on a
``hashlib.sha256`` midstate — the cheapest form of the operation a
SPHINCS+ signature is made of.  A duration in ``kh`` is that duration
divided by the time of 1000 such hashes *on this machine at that
moment*.

The moment matters: on the shared two-core box this was built on, the
time of one hash moves between 0.45 and 0.90 µs within a second, so a
probe taken before or after a piece of work says little about the speed
the work itself ran at.  The floor is therefore sampled by a sidecar
process for the whole run — a 500-hash slice (about 0.3 ms of CPU) every
10 ms, timed in CPU time so that losing the core does not count — and a
timed interval is normalised by the mean of the samples that fall
inside it.
"""

from __future__ import annotations

import bisect
import hashlib
import mmap
import multiprocessing
import statistics
import time

SLICE_HASHES = 500
PERIOD_S = 0.010
#: Intervals shorter than the sampling period borrow neighbours.
PAD_S = 0.025
#: One call's latency is normalised by the floor of the half second
#: around it: a 20 ms call would otherwise see two samples, and samples
#: differ by half.
LATENCY_PAD_S = 0.25
#: ``setup_s`` is reported in seconds of a machine this fast (µs per hash).
REFERENCE_US = 0.5
_CAPACITY = 60_000  # ten minutes of samples


def hash_slice(hashes: int = SLICE_HASHES) -> float:
    """CPU µs per bare midstate hash, over one slice of *hashes*."""
    mid = hashlib.sha256(b"\x00" * 64)
    buf = b"\x01" * 54
    start = time.thread_time()
    for _ in range(hashes):
        h = mid.copy()
        h.update(buf)
        h.digest()
    return (time.thread_time() - start) / hashes * 1e6


def _sample_loop(cells) -> None:
    """*cells* is ``[count, times ..., values ...]``, shared with the bench."""
    for index in range(_CAPACITY):
        started = time.perf_counter()
        cells[1 + _CAPACITY + index] = hash_slice()
        cells[1 + index] = (started + time.perf_counter()) / 2
        cells[0] = index + 1
        time.sleep(PERIOD_S)


class FloorSampler:
    """The sidecar: start it first, stop it last, ask it in between."""

    def __init__(self) -> None:
        # Forked from the bench while it is still small and has no
        # threads, event loops or sockets to inherit, over anonymous
        # shared memory: a spawned sidecar with ``multiprocessing``'s
        # shared arrays would bring a resource tracker process that
        # outlives the run.
        self._shared = mmap.mmap(-1, 8 * (1 + 2 * _CAPACITY))
        self._cells = memoryview(self._shared).cast("d")
        self._proc = multiprocessing.get_context("fork").Process(
            target=_sample_loop, name="bench-floor", daemon=True,
            args=(self._cells,))
        self._ts: list[float] = []
        self._sums: list[float] = [0.0]

    def start(self) -> "FloorSampler":
        self._proc.start()
        deadline = time.perf_counter() + 10.0
        while self._cells[0] < 3:
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("floor sampler produced no samples")
            time.sleep(0.005)
        return self

    def stop(self) -> None:
        """End the sidecar and wait for it; the samples stay readable."""
        self._proc.terminate()
        self._proc.join(timeout=5.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()

    def _sync(self) -> None:
        have, count = len(self._ts), int(self._cells[0])
        if count > have:
            self._ts.extend(self._cells[1 + have:1 + count])
            total = self._sums[-1]
            for value in self._cells[1 + _CAPACITY + have:
                                     1 + _CAPACITY + count]:
                total += value
                self._sums.append(total)

    def mean_us(self, start: float, end: float,
                pad: float = PAD_S) -> float:
        """Mean floor (µs per hash) over ``[start, end]`` of
        ``time.perf_counter()``; the nearest samples when none fall in."""
        self._sync()
        lo = bisect.bisect_left(self._ts, start - pad)
        hi = bisect.bisect_right(self._ts, end + pad)
        if hi <= lo:
            lo = max(0, min(lo, len(self._ts)) - 2)
            hi = min(len(self._ts), lo + 4)
        return (self._sums[hi] - self._sums[lo]) / (hi - lo)

    def recent_us(self, span_s: float = 0.5) -> float:
        """The machine's speed just now, for pacing: the median of the
        last *span_s* of samples (of the last five, if the sampler was
        starved), because one slice that lost its core mid-way reads
        several times too slow and would stretch an arrival gap with it."""
        self._sync()
        lo = bisect.bisect_left(self._ts, time.perf_counter() - span_s)
        lo = max(min(lo, len(self._ts) - 5), 0)
        return statistics.median(
            self._sums[i + 1] - self._sums[i]
            for i in range(lo, len(self._ts)))

    def kh(self, start: float, end: float, pad: float = PAD_S) -> float:
        """The interval's length in thousands of floor hashes."""
        return (end - start) * 1e3 / self.mean_us(start, end, pad)

    def reference_s(self, start: float, end: float) -> float:
        """The interval's length in seconds of the reference machine."""
        return (end - start) * REFERENCE_US / self.mean_us(start, end)

    def samples(self, start: float, end: float) -> list[float]:
        self._sync()
        lo = bisect.bisect_left(self._ts, start)
        hi = bisect.bisect_right(self._ts, end)
        return [self._sums[i + 1] - self._sums[i] for i in range(lo, hi)]


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (NaN of no values); *values* need
    not be sorted."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

