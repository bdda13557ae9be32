"""Processes the benchmark starts and reads: CPU, memory, servers."""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> tuple[int, float, bool] | None:
    """``(parent pid, user+system CPU seconds, has ended)`` of a process
    that is running or has ended and not been waited for."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return (int(fields[1]), (int(fields[11]) + int(fields[12])) * _TICK_S,
            fields[0] in (b"Z", b"X"))


def descendants(root: int, ended: bool = False) -> list[int]:
    """Every running process below *root* (children, their children,
    ...); with *ended*, those that ended and were not yet waited for too."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat(int(entry))
            if stat is not None and (ended or not stat[2]):
                parents[int(entry)] = stat[0]
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        kids = [pid for pid, ppid in parents.items() if ppid == parent]
        found.extend(kids)
        frontier.extend(kids)
    return found


def adopt_orphans() -> None:
    """Make this process the parent of every process below it whose own
    parent ends (``PR_SET_CHILD_SUBREAPER``): a server's helper then
    cannot slip away to ``init`` — which, in a container, may never wait
    for it — and :func:`reap` can."""
    ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)


def reap(patience_s: float = 20.0) -> None:
    """Kill every process below this one and wait until each has ended;
    the last thing a run does, on every way out of it."""
    me, deadline = os.getpid(), time.monotonic() + patience_s
    while below := descendants(me, ended=True):
        for pid in below:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # ended and waited for since it was listed
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass  # none left, or not adopted yet
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {below} would not end")
        time.sleep(0.005)


def cpu_seconds(pids) -> float:
    """Summed user+system CPU of *pids* (10 ms ticks; gone ones read 0)."""
    return sum(stat[1] for stat in map(_stat, pids) if stat is not None)


def peak_rss_mb(pids) -> float:
    """Largest peak resident set (``VmHWM``) among the live *pids*."""
    peaks = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                peaks.extend(int(line.split()[1]) for line in handle
                             if line.startswith("VmHWM:"))
        except OSError:
            pass  # gone since it was listed
    return max(peaks) / 1024.0


class Server:
    """One ``python -m repro <args>`` subprocess listening on a free port."""

    def __init__(self, *args: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + env.get("PYTHONPATH", "").split(os.pathsep))
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / "server.log", "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args, "--port", "0"],
                env=env, stdout=subprocess.PIPE, stderr=log, text=True)
        try:
            # "... listening on 127.0.0.1:<port>" is the first line.
            line = self.proc.stdout.readline()
            self.port = int(line.rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.stop()
            raise RuntimeError(
                f"repro {args[0]} did not announce a port: {line!r}")
        self.pids = [self.proc.pid] + descendants(self.proc.pid)

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pids)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
