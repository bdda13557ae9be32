"""``LocalClient`` picks its executor from the CPUs it may run on.

``LocalClient("vectorized")`` runs the signing plan on one pinned worker
per allowed CPU where there are two or more, and in this process on one.
Whichever it picks, the bytes are the reference's; the workers are the
client's own — alive from construction, gone a second after ``close()``.
(That a rotated key stops signing is the engine's promise:
``tests/service/test_signing_engine.py`` checks it through both fronts.)
"""

import hashlib
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.api import LocalClient
from repro.testing.kat import KAT_SETS, load_kat

SRC = Path(__file__).resolve().parents[2] / "src"


def allow_cpus(monkeypatch, count):
    """Let ``os.sched_getaffinity`` answer *count* CPUs (a worker whose
    CPU is not really ours fails to pin and floats, as the pool allows)."""
    cpus = set(range(count))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)


def live_children():
    """Pids whose parent is this process and that have not ended."""
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == os.getpid() and fields[0] not in (b"Z", b"X"):
            found.add(int(entry))
    return found


@pytest.mark.parametrize("params_name", KAT_SETS)
def test_both_executors_sign_the_reference_bytes(params_name, monkeypatch):
    """Against the pinned vectors — ``Sphincs(deterministic=True).sign``'s
    bytes (``test_kat.py``, ``test_plan.py``) without its seconds per
    ``s``-set signature."""
    vector = load_kat(params_name)
    seed = bytes.fromhex(vector["seed_hex"])
    pinned = vector["messages"][1]
    message = bytes.fromhex(pinned["message_hex"])
    for cpus, workers in ((1, 0), (2, 2)):
        allow_cpus(monkeypatch, cpus)
        with LocalClient(deterministic=True) as client:
            client.add_tenant("kat", params_name, seed=seed)
            assert client.info().workers == workers
            result = client.sign("kat", message)
            assert (hashlib.sha256(result.signature).hexdigest()
                    == pinned["signature_sha256"])
            assert result.transport == "local"
            assert client.verify("kat", message, result.signature).valid


def test_one_allowed_cpu_signs_in_process():
    """Restricted to one CPU for real: no pool, no child process."""
    script = textwrap.dedent("""
        import multiprocessing, os
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        from repro.api import LocalClient
        with LocalClient(deterministic=True) as client:
            client.add_tenant("solo")
            assert client.info().workers == 0, client.info()
            signed = client.sign("solo", b"one core")
            assert client.verify("solo", b"one core", signed.signature).valid
            assert multiprocessing.active_children() == []
            children = open(f"/proc/self/task/{os.getpid()}/children").read()
            assert children.split() == [], children
        print("in-process")
    """)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "in-process"


def test_close_leaves_no_worker_behind(monkeypatch):
    """The benchmark's rule: whatever a client started is gone one second
    after ``close()`` — build, sign, close, three times in a row."""
    allow_cpus(monkeypatch, 2)
    before = live_children()
    for attempt in range(3):
        client = LocalClient(deterministic=True)
        client.add_tenant("acme")
        workers = live_children() - before
        assert len(workers) == client.info().workers == 2
        client.sign("acme", b"round %d" % attempt)
        client.close()
        time.sleep(1.0)
        assert live_children() - before == set(), f"leak, round {attempt}"
