"""A served worker pool leaves no process behind, however the server ends.

``serve-async --workers 2`` is spawned in its own session, so every
process it starts — the pool's workers are forked before the port is
announced — can be found again by session id.  SIGTERM must shut the
server down like Ctrl-C (pool closed, exit 0); SIGKILL gives the server
no chance to, and the workers must notice on their own that their parent
is gone.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime.pool import auto_workers

SRC = Path(__file__).resolve().parents[2] / "src"

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="needs /proc to list a session")


def _session_members(session: int) -> list[int]:
    """Live (not zombie) processes whose session id is *session*."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended since it was listed
        if int(fields[3]) == session and fields[0] not in ("Z", "X"):
            members.append(int(entry))
    return members


def _serve(*flags: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve-async", "--port", "0",
         "--deterministic", *flags],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True)
    assert "listening on" in server.stdout.readline()
    return server


@pytest.mark.parametrize("how, exit_code", [(signal.SIGTERM, 0),
                                            (signal.SIGKILL, -signal.SIGKILL)])
def test_no_session_member_survives_the_server(how, exit_code):
    server = _serve("--workers", "2")
    try:
        # The workers exist by the time the port is announced.
        assert len(_session_members(server.pid)) == 3
        server.send_signal(how)
        assert server.wait(timeout=10) == exit_code
        time.sleep(1.0)
        assert _session_members(server.pid) == []
    finally:
        server.stdout.close()
        try:
            os.killpg(server.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        server.wait()


@pytest.mark.parametrize("flags, workers", [((), auto_workers()),
                                             (("--workers", "0"), 0)])
def test_each_self_hosted_cluster_node_signs_on_its_own_pool(flags, workers):
    """``serve-cluster --nodes 2`` takes serve-async's default per node:
    no ``--workers``, one worker per allowed CPU each (``--workers 0``
    keeps them in-process), every one gone after SIGTERM."""
    from repro.api import TcpClient

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve-cluster", "--nodes", "2",
         "--port", "0", "--deterministic", *flags],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True)
    try:
        assert "listening on" in server.stdout.readline()
        nodes = server.stdout.readline().split("ports ")[1].split(";")[0]
        for port in map(int, nodes.split(", ")):
            with TcpClient.connect(port=port) as node:
                assert node.stats()["config"]["workers"] == workers
        assert len(_session_members(server.pid)) == 1 + 2 * workers
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=10) == 0
        time.sleep(1.0)
        assert _session_members(server.pid) == []
    finally:
        server.stdout.close()
        try:
            os.killpg(server.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        server.wait()


def test_pool_size_follows_the_cpus_the_server_may_use(monkeypatch):
    """No ``--workers`` (and ``LocalClient("vectorized")``): one worker
    per allowed CPU from two up, and on a single CPU no pool at all —
    processes there would only add IPC."""
    for cpus, workers in (({0}, 0), ({0, 1}, 2), ({2, 3, 5, 7}, 4)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c,
                            raising=False)
        assert auto_workers() == workers


_RECV_LOOP = """
import resource, socket
{prepare}
ours, theirs = socket.socketpair()
def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for calls in (200, 1000):  # settle, then measure
    before = faults()
    for _ in range(calls):
        ours.sendall(b"x" * 4096)
        theirs.recv(256 * 1024)  # what an asyncio transport reads with
print((faults() - before) / calls)
"""


def test_a_served_read_buffer_costs_no_page_fault():
    """``_pin_heap_thresholds`` is what ``serve-async`` / ``serve-cluster``
    run first: after it, asyncio's 256 KiB ``recv`` buffer comes off a heap
    that is neither mmapped per call nor trimmed, whatever the heap held
    before (a fresh interpreter without it read 3 faults per call where
    this was written; not asserted, it is the allocator's to change)."""
    import ctypes

    if not hasattr(ctypes.CDLL(None), "gnu_get_libc_version"):
        pytest.skip("the thresholds are glibc's")

    def per_call(prepare: str) -> float:
        done = subprocess.run(
            [sys.executable, "-c", _RECV_LOOP.format(prepare=prepare)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), text=True,
            capture_output=True, timeout=60, check=True)
        return float(done.stdout)

    assert per_call("from repro.__main__ import _pin_heap_thresholds\n"
                    "_pin_heap_thresholds()") < 0.05
