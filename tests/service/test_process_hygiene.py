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


_REPLAYS = """
import asyncio, resource
from repro.api import AsyncClient
from repro.params import get_params
from repro.service import Keystore, SigningServer, SigningService, derive_seed

async def main():
    keystore = Keystore()
    keystore.add_tenant("t", "128f")
    keystore.generate_key("t", "default",
                          seed=derive_seed("t/default", get_params("128f").n))
    server = SigningServer(SigningService(keystore, deterministic=True))
    await server.start()
    client = await AsyncClient.connect(port=server.port, version={version})
    for calls in (200, 1000):  # settle, then measure
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(calls):
            await client.sign("t", bytes(4096))
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    await client.close()
    await server.stop()
    print((after - before) / calls)

asyncio.run(main())
"""


@pytest.mark.parametrize("version", [3, 2])
def test_a_served_replay_costs_no_page_fault(version):
    """Server and client read into buffers of their own, so a replayed
    request allocates no read buffer on either end: in a fresh
    interpreter, whatever its heap holds, it costs no page fault.  (The
    stream transport before them read each request into a fresh 256 KiB
    ``bytes``; unpinned, that cost 9-10 minor faults per replay on a
    2-vCPU box at one of two checkout path lengths, which set the heap's
    history.)"""
    done = subprocess.run(
        [sys.executable, "-c", _REPLAYS.format(version=version)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), text=True,
        capture_output=True, timeout=120, check=True)
    assert float(done.stdout) < 0.05
