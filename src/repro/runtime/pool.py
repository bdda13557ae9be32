"""The multi-core execution tier: plan tasks on pinned worker processes.

:class:`WorkerPool` keeps N long-lived worker processes that execute
:mod:`~repro.runtime.plan` tasks — a fused run of one message's layers,
one pinned XMSS subtree — and keep nothing between them: every task
names its parameter set and key seeds, and the layer cache stays with
whoever planned the batch.  A lone request's run comes cut into about
four tasks per worker, a batch's whole: ~17 KB back per 128f signature.

Tasks are handed out pull-style: a worker holds at most
``_MAX_OUTSTANDING`` (one running, one waiting in its pipe), and each
result it sends back buys it the next task in line.  Worker *i* of a pool
of two or more is pinned to the *i*-th CPU this process may run on
(``os.sched_getaffinity``):
unpinned, the kernel wakes both workers of a two-task burst on the
waker's CPU and does not migrate them within one signature, and the
second core buys nothing (see ``docs/architecture.md``).

The pool is crash-tolerant: the collector thread waits on every worker's
result pipe *and* process sentinel, so a death is seen at once; the dead
worker's outstanding tasks go back to the head of the line (bounded by
:data:`MAX_RETRIES` each), and its slot is respawned.  Only when a task
exhausts its retries does the caller see a typed
:class:`~repro.errors.WorkerCrashedError`.  Every pipe belongs to one
worker, so a worker dying mid-write can wedge only its own channel.
Workers ask the kernel to kill them when their parent goes
(``PR_SET_PDEATHSIG``; elsewhere they check ``getppid()`` whenever their
inbox has been quiet), so a SIGKILLed server leaks nothing.

:class:`~.vectorized.VectorizedBackend` runs its plan's tasks here when
it is given a pool: the same plan and stitch, so the same bytes; the
pool's size only decides where a run is cut.
"""

from __future__ import annotations

import atexit
import collections
import ctypes
import functools
import itertools
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Sequence

from ..errors import BackendError, WorkerCrashedError
from ..hashes.thash import HashContext
from ..obs.log import get_logger
from ..params import SphincsParams, get_params
from ..sphincs.signer import KeyPair
from .fastops import FastOps
from .plan import TaskRun, run_task

_log = get_logger("pool")

__all__ = ["WorkerPool", "WorkerStats", "auto_workers"]

#: How many times a task stranded by a dying worker goes back in line
#: before its caller gets :class:`~repro.errors.WorkerCrashedError`.
MAX_RETRIES = 2

#: Tasks a worker may hold: one running, one already in its pipe so the
#: next starts without a round trip through the coordinator.
_MAX_OUTSTANDING = 2

#: How often the collector retries a failed respawn, and how long a
#: worker without ``PR_SET_PDEATHSIG`` lets its inbox stay quiet before
#: checking that its parent is still there.
_RETRY_TICK_S = 0.05
_ORPHAN_CHECK_S = 0.25

#: Exit code workers use for injected crashes (tests, chaos drills), so a
#: drill is distinguishable from a real fault in the logs.
_CRASH_EXIT_CODE = 13

#: How long :meth:`WorkerPool.run` waits unless told otherwise.  Sized for
#: the slowest legitimate batch, not for crash detection — crashes surface
#: at once via the collector.
_RUN_TIMEOUT_S = 600.0


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _die_with_parent() -> bool:
    """Have the kernel SIGKILL this process when its parent goes (Linux
    ``PR_SET_PDEATHSIG``).  False where that is not available."""
    try:
        return ctypes.CDLL(None, use_errno=True).prctl(
            1, signal.SIGKILL, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _worker_main(worker_id: int, cpu: int | None, parent: int,
                 inbox, outbox) -> None:
    """Worker loop: run plan tasks, answer control messages.

    Top-level (not a closure) so it pickles under the spawn start method.
    The only thing kept between tasks is a memo of address templates and
    midstates per key seed — derived from the task, never signing state.
    """
    # The server's handlers and wakeup pipe were inherited through fork;
    # a worker takes SIGTERM plainly and leaves Ctrl-C to its parent.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    quiet_s = None if _die_with_parent() else _ORPHAN_CHECK_S
    if os.getppid() != parent:
        return  # the parent went before the request above took hold
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass  # the CPU left our set since the pool read it: float
    crash_armed = False

    @functools.lru_cache(maxsize=8)
    def ops_for(params_name: str, sk_seed: bytes, pk_seed: bytes) -> FastOps:
        return FastOps(HashContext(get_params(params_name)), sk_seed, pk_seed)

    while True:
        try:
            if not inbox.poll(quiet_s):
                if os.getppid() != parent:
                    return
                continue
            item = inbox.recv()
        except (EOFError, OSError):
            return
        if item is None:  # shutdown sentinel
            return
        kind = item[0]
        if kind == "ping":
            outbox.send(("pong", worker_id, item[1]))
        elif kind == "crash":
            # Fault-injection hook (tests, chaos drills): die now, or on
            # receipt of the next task — i.e. mid-plan.
            if item[1] == "now":
                os._exit(_CRASH_EXIT_CODE)
            crash_armed = True
        elif kind == "task":
            _, task_id, params_name, sk_seed, pk_seed, task = item
            if crash_armed:
                os._exit(_CRASH_EXIT_CODE)
            started_wall, started = time.time(), time.perf_counter()
            try:
                result = run_task(ops_for(params_name, sk_seed, pk_seed),
                                  task)
                outbox.send(("done", worker_id, task_id, result,
                             started_wall, time.perf_counter() - started))
            except Exception as exc:  # noqa: BLE001 — typed error, not a crash
                outbox.send(("error", worker_id, task_id,
                             f"{type(exc).__name__}: {exc}",
                             time.perf_counter() - started))


# ----------------------------------------------------------------------
# Parent-side bookkeeping
# ----------------------------------------------------------------------
@dataclass
class WorkerStats:
    """Parent-side accounting for one worker slot."""

    dispatched: int = 0   # tasks handed to this slot
    completed: int = 0    # tasks whose result came back
    failed: int = 0       # tasks that returned a typed error
    busy_s: float = 0.0   # worker-reported task time
    requeues: int = 0     # tasks moved OFF this slot after it died
    respawns: int = 0     # times this slot was restarted
    last_seen: float = 0.0  # monotonic time of the last message

    @property
    def in_flight(self) -> int:
        return self.dispatched - self.completed - self.failed


@dataclass
class _Run:
    """One :meth:`WorkerPool.run` call, until its last result arrives."""

    results: list
    remaining: int
    error: Exception | None = None
    requeues: int = 0
    ipc_bytes: int = 0  # pickled length of every result received
    workers: dict[int, dict] = field(default_factory=dict)


@dataclass
class _Task:
    task_id: int
    run: _Run
    index: int          # position in the run's task list
    payload: tuple      # (params name, sk_seed, pk_seed, plan task)
    retries: int = 0


class WorkerPool:
    """N pinned, long-lived task-executor processes.

    Parameters
    ----------
    workers:
        Pool size; from two up, worker *i* runs on the *i*-th allowed
        CPU (modulo the CPU count).
    """

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise BackendError(f"workers must be >= 1, got {workers}")
        import multiprocessing

        # fork over spawn/forkserver: workers inherit the warm parent
        # interpreter (no re-import, REPL/stdin-safe).  Respawns fork
        # from a process that has the collector thread running — safe
        # here because the children touch no parent locks: each pipe
        # pair is exclusive to one worker and everything a worker
        # imports is imported above.  Python 3.12+ still warns about
        # fork-from-threads on respawn; that is the documented cost of
        # crash recovery on the fork path.  A second pool in one process
        # forks beside the first one's collector thread in the same way
        # (a self-hosted ``serve-cluster``: node 1's beside node 0's).
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            self._mp = multiprocessing.get_context("spawn")
        self.workers = workers
        self.started_at = time.monotonic()
        # A lone worker has no sibling to be kept apart from, and N
        # one-worker pools on one box must not all sit on the first CPU.
        cpus = (sorted(os.sched_getaffinity(0))
                if workers > 1 and hasattr(os, "sched_getaffinity")
                else [None])
        self.cpus = [cpus[slot % len(cpus)] for slot in range(workers)]

        self._inboxes: list = [None] * workers    # we write, worker reads
        self._outboxes: list = [None] * workers   # worker writes, we read
        self._procs: list = [None] * workers
        self.stats_by_worker = [WorkerStats() for _ in range(workers)]
        self._task_ids = itertools.count()
        self._cond = threading.Condition()
        self._pending: collections.deque[_Task] = collections.deque()
        self._outstanding: list[dict[int, _Task]] = [
            {} for _ in range(workers)]
        self._pongs: dict[int, str] = {}           # slot -> last echoed token
        self._closing = False
        # close() writes here to get the collector out of its wait.
        self._wake_r, self._wake_w = self._mp.Pipe(duplex=False)
        for slot in range(workers):
            self._spawn(slot)
        self._collector = threading.Thread(
            target=self._collect_loop, name="pool-collector", daemon=True)
        self._collector.start()
        atexit.register(self.close)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, slot: int) -> None:
        inbox_r, inbox_w = self._mp.Pipe(duplex=False)
        outbox_r, outbox_w = self._mp.Pipe(duplex=False)
        proc = self._mp.Process(
            target=_worker_main,
            args=(slot, self.cpus[slot], os.getpid(), inbox_r, outbox_w),
            name=f"sign-worker-{slot}", daemon=True)
        try:
            proc.start()
        except BaseException:
            inbox_w.close()
            outbox_r.close()
            raise
        finally:
            # The worker's ends: held open here, a dead worker's result
            # pipe would never read as closed.
            inbox_r.close()
            outbox_w.close()
        self._inboxes[slot], self._outboxes[slot] = inbox_w, outbox_r
        self._procs[slot] = proc
        self.stats_by_worker[slot].last_seen = time.monotonic()

    def close(self) -> None:
        """Stop every worker and the collector; idempotent."""
        with self._cond:
            if self._closing:
                return
            self._closing = True
            # Fail anything still in flight rather than blocking forever.
            closed = BackendError("worker pool closed with tasks in flight")
            for task in [*self._pending, *(
                    task for held in self._outstanding
                    for task in held.values())]:
                task.run.error = task.run.error or closed
            self._pending.clear()
            self._cond.notify_all()
            for inbox in self._inboxes:
                self._send(inbox, None)
        self._wake_w.send(None)
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=2.0)
        if self._collector.is_alive():
            self._collector.join(timeout=2.0)
        for pipe in (*self._inboxes, *self._outboxes, self._wake_r,
                     self._wake_w):
            if pipe is not None:
                pipe.close()
        atexit.unregister(self.close)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Running tasks
    # ------------------------------------------------------------------
    @staticmethod
    def _send(inbox, message) -> bool:
        """Write to a worker's inbox; False when the worker is gone (its
        death is the collector's to handle)."""
        try:
            inbox.send(message)
            return True
        except (OSError, ValueError, AttributeError):
            return False

    def _pump(self) -> None:
        """Hand pending tasks to workers with room, one each in turn so a
        short plan spreads over every worker.  Must hold ``_cond``."""
        for room in range(_MAX_OUTSTANDING):
            for slot in range(self.workers):
                held = self._outstanding[slot]
                if (not self._pending or len(held) > room
                        or self._procs[slot] is None):
                    continue
                task = self._pending.popleft()
                held[task.task_id] = task
                self.stats_by_worker[slot].dispatched += 1
                # A failed write leaves the task held: the worker is dead
                # and recovery puts what it held back in line.
                self._send(self._inboxes[slot],
                           ("task", task.task_id, *task.payload))

    def run(self, params: SphincsParams | str, keys: KeyPair,
            tasks: Sequence[tuple],
            timeout: float | None = _RUN_TIMEOUT_S) -> TaskRun:
        """Run plan *tasks* under *keys* across the workers; blocks until
        every result is in (*timeout* seconds at most; ``None`` waits
        forever).  Safe to call from several threads.

        Raises :class:`~repro.errors.WorkerCrashedError` when a task
        exhausted its crash-retry budget, :class:`BackendError` for a
        worker-side error or timeout (the run's unstarted tasks are
        withdrawn, its late results dropped).
        """
        started = time.perf_counter()
        params_name = params if isinstance(params, str) else params.name
        run = _Run([None] * len(tasks), len(tasks))
        with self._cond:
            if self._closing:
                raise BackendError("worker pool is closed")
            for index, task in enumerate(tasks):
                self._pending.append(_Task(
                    next(self._task_ids), run, index,
                    (params_name, keys.sk_seed, keys.pk_seed, task)))
            self._pump()
            if not self._cond.wait_for(
                    lambda: not run.remaining or run.error is not None,
                    timeout):
                run.error = BackendError(
                    f"pool run of {len(tasks)} tasks timed out after "
                    f"{timeout}s")
            if run.error is not None:
                self._pending = collections.deque(
                    task for task in self._pending if task.run is not run)
                raise run.error
        return TaskRun(
            run.results, {"pool": time.perf_counter() - started},
            {"workers": len(run.workers), "requeues": run.requeues,
             "tasks": len(tasks), "ipc_bytes": run.ipc_bytes}, run.workers)

    # ------------------------------------------------------------------
    # Health, heartbeat, fault injection
    # ------------------------------------------------------------------
    def ping(self, timeout: float = 5.0) -> dict[int, bool]:
        """Heartbeat every worker; returns ``{slot: responded}``.

        A slot only counts as responsive when it echoed *this* ping's
        token — unrelated message traffic (results, a fresh respawn) is
        not proof the worker's loop is serving.
        """
        token = f"ping-{time.monotonic()}-{next(self._task_ids)}"

        def answered(slot: int) -> bool:
            return self._pongs.get(slot) == token

        with self._cond:
            for inbox in self._inboxes:
                self._send(inbox, ("ping", token))
            self._cond.wait_for(
                lambda: all(map(answered, range(self.workers))), timeout)
            return {slot: answered(slot) for slot in range(self.workers)}

    def inject_crash(self, worker: int, when: str = "next-job") -> None:
        """Fault-injection hook: kill a worker ``"now"`` or on its next
        task (i.e. mid-plan).  For tests and chaos drills — the recovery
        machinery treats the death exactly like a real crash."""
        if when not in ("now", "next-job"):
            raise BackendError(
                f"inject_crash wants 'now' or 'next-job', got {when!r}")
        if not 0 <= worker < self.workers:
            raise BackendError(
                f"worker slot {worker} out of range (pool has "
                f"{self.workers})")
        with self._cond:
            self._send(self._inboxes[worker], ("crash", when))

    def alive_workers(self) -> int:
        return sum(1 for proc in self._procs
                   if proc is not None and proc.is_alive())

    def stats(self) -> dict:
        """JSON-safe per-worker utilization/requeue snapshot."""
        now = time.monotonic()
        uptime = max(now - self.started_at, 1e-9)
        per_worker = {}
        for slot, stats in enumerate(self.stats_by_worker):
            proc = self._procs[slot]
            per_worker[str(slot)] = {
                "alive": bool(proc is not None and proc.is_alive()),
                "cpu": self.cpus[slot],
                "tasks": stats.completed,
                "failed": stats.failed,
                "busy_s": round(stats.busy_s, 4),
                "utilization": round(stats.busy_s / uptime, 4),
                "in_flight": stats.in_flight,
                "requeues": stats.requeues,
                "respawns": stats.respawns,
                "last_seen_s": round(now - stats.last_seen, 3),
            }
        return {
            "workers": self.workers,
            "alive": self.alive_workers(),
            "uptime_s": round(uptime, 3),
            "pending": len(self._pending),
            "requeues": sum(s.requeues for s in self.stats_by_worker),
            "respawns": sum(s.respawns for s in self.stats_by_worker),
            "per_worker": per_worker,
        }

    # ------------------------------------------------------------------
    # Collector thread
    # ------------------------------------------------------------------
    def _collect_loop(self) -> None:
        while not self._closing:
            # The collector is the pool's only recovery mechanism: it
            # must survive anything recovery itself throws (a respawn
            # hitting EAGAIN, a pipe racing close()).  An unexpected
            # error fails the runs in flight — callers unblock with a
            # typed error instead of hanging — and the loop keeps
            # serving; an unstaffed slot is retried every tick.
            try:
                with self._cond:
                    readers = {outbox: slot for slot, outbox
                               in enumerate(self._outboxes)
                               if self._procs[slot] is not None}
                    sentinels = {self._procs[slot].sentinel: slot
                                 for slot in readers.values()}
                    unstaffed = [slot for slot in range(self.workers)
                                 if self._procs[slot] is None]
                ready = connection.wait(
                    [*readers, *sentinels, self._wake_r],
                    timeout=_RETRY_TICK_S if unstaffed else None)
                if self._closing:
                    return
                dead = set(unstaffed)
                for item in ready:
                    if item in readers and not self._drain(item):
                        dead.add(readers[item])
                    elif item in sentinels:
                        dead.add(sentinels[item])
                for slot in sorted(dead):
                    self._recover(slot)
            except Exception as exc:  # noqa: BLE001 — must not die
                if self._closing:
                    return
                _log.error("collector-error",
                           error=f"{type(exc).__name__}: {exc}")
                with self._cond:
                    failed = BackendError(
                        f"pool collector failed while recovering: "
                        f"{type(exc).__name__}: {exc}")
                    for held in self._outstanding:
                        for task in held.values():
                            task.run.error = task.run.error or failed
                    self._cond.notify_all()
                time.sleep(_RETRY_TICK_S)

    def _drain(self, outbox) -> bool:
        """Handle every message waiting on *outbox*; False once the pipe
        is closed (its worker is gone)."""
        try:
            while outbox.poll():
                data = outbox.recv_bytes()
                self._handle_message(pickle.loads(data), len(data))
        except (EOFError, OSError, ValueError):
            return False
        return True

    def _handle_message(self, message: tuple, size: int) -> None:
        kind, worker_id = message[0], message[1]
        stats = self.stats_by_worker[worker_id]
        with self._cond:
            stats.last_seen = time.monotonic()
            if kind == "pong":
                self._pongs[worker_id] = message[2]
                self._cond.notify_all()
                return
            task = self._outstanding[worker_id].pop(message[2], None)
            if task is None:
                return  # requeued off this slot after it was declared dead
            run, busy_s = task.run, message[-1]
            stats.busy_s += busy_s
            if kind == "done":
                stats.completed += 1
                share = run.workers.setdefault(worker_id, {
                    "start": message[4], "tasks": 0, "busy_s": 0.0})
                share["end"] = message[4] + busy_s
                share["tasks"] += 1
                share["busy_s"] += busy_s
                run.results[task.index] = message[3]
                run.ipc_bytes += size
                run.remaining -= 1
            else:
                stats.failed += 1
                run.error = run.error or BackendError(
                    f"worker {worker_id} failed batch: {message[3]}")
            if not run.remaining or run.error is not None:
                self._cond.notify_all()
            self._pump()

    def _recover(self, slot: int) -> None:
        """A worker died (or its slot is unstaffed): respawn it and put
        the tasks it held back at the head of the line.

        Everything happens under ``_cond`` so a concurrent :meth:`run`
        can never write to a discarded pipe or see a task twice.
        """
        with self._cond:
            if self._closing:
                # close() landed while the collector was mid-iteration:
                # the "dead" worker is one it just told to exit, and a
                # replacement would never be told — it would outlive us.
                return
            proc = self._procs[slot]
            if proc is not None:
                # Salvage any results the worker delivered before dying.
                self._drain(self._outboxes[slot])
                proc.join(timeout=1.0)
                for pipe in (self._inboxes[slot], self._outboxes[slot]):
                    pipe.close()
                self._procs[slot] = None
            exitcode = proc.exitcode if proc is not None else None
            stats = self.stats_by_worker[slot]
            stranded = list(self._outstanding[slot].values())
            self._outstanding[slot].clear()
            for task in reversed(stranded):
                stats.dispatched -= 1
                if task.run.error is not None:
                    continue  # its caller already gave up
                stats.requeues += 1
                task.run.requeues += 1
                task.retries += 1
                if task.retries > MAX_RETRIES:
                    _log.error("worker-crash-exhausted", slot=slot,
                               exitcode=exitcode, task=task.task_id,
                               retries=task.retries)
                    task.run.error = WorkerCrashedError(
                        f"worker {slot} died (exit {exitcode}) and task "
                        f"{task.task_id} exhausted its "
                        f"{MAX_RETRIES} requeue(s)")
                else:
                    self._pending.appendleft(task)
            try:
                self._spawn(slot)
            except Exception as exc:  # noqa: BLE001 — transient (EAGAIN)
                # Leave the slot unstaffed; the collector retries next
                # tick.  Its tasks are in line for any live sibling.
                _log.warn("worker-respawn-failed", slot=slot,
                          error=f"{type(exc).__name__}: {exc}")
            else:
                stats.respawns += 1
                _log.warn("worker-respawn", slot=slot, exitcode=exitcode,
                          respawns=stats.respawns)
            self._pump()
            self._cond.notify_all()


def auto_workers() -> int:
    """The pool size for the CPUs this process may run on: one worker
    each where there are at least two, else none (a pool on one CPU is
    the same hashing plus the IPC, so the plan runs in-process)."""
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    return cpus if cpus >= 2 else 0
