"""Checks on the benchmark itself; run with ``python -m pytest bench -q``.

``bench/`` is outside the repo's ``testpaths``, so the tier-1 suite
neither collects nor pays for these.  They run the real command at
``--smoke`` size.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = [sys.executable, str(BENCH / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SMOKE_LIMIT_S = 40.0


def bench(*arguments, cwd=ROOT, command=RUN):
    """Run *command* in a session of its own; nothing of that session —
    not even a process that ended and was not waited for — may be left
    the moment the command returns."""
    started = time.monotonic()
    child = subprocess.Popen([*command, *arguments], cwd=cwd, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             start_new_session=True)
    try:
        child.stdout, child.stderr = child.communicate(timeout=300)
    finally:
        child.kill()
    elapsed = time.monotonic() - started
    assert not session_members(child.pid), "a process outlived the command"
    return child, elapsed


def session_members(session: int) -> list[str]:
    members = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # not a process, or gone
        if int(stat.rsplit(")", 1)[1].split()[3]) == session:
            members.append(stat)
    return members


def tracked_state() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    return subprocess.run(
        ["git", "status", "--porcelain", "--", ".", ":!bench"],
        cwd=ROOT, text=True, capture_output=True, check=True).stdout


def result_of(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.fixture
def scratch():
    """A directory of the test's own, inside the untracked ``out/``."""
    (BENCH / "out").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=BENCH / "out", prefix="test-"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def smoke():
    before = tracked_state()
    done, elapsed = bench("--smoke", "--trace", "1")
    printed = {}
    for line in done.stdout.splitlines():
        fields = line.split("#")[0].split()
        if len(fields) == 4 and not line.startswith("#"):
            printed[fields[0], fields[1]] = (float(fields[2]), fields[3])
    return {"done": done, "elapsed": elapsed, "printed": printed,
            "untouched": before == tracked_state()}


def test_smoke_passes_quickly_and_touches_nothing_tracked(smoke):
    assert smoke["done"].returncode == 0, smoke["done"].stdout[-2000:] \
        + smoke["done"].stderr[-2000:]
    assert smoke["elapsed"] < SMOKE_LIMIT_S
    assert smoke["untouched"], "a tracked path outside bench/ changed"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(smoke, workload):
    for metric in SPEC["end_to_end"]:
        value, unit = smoke["printed"][workload, metric["name"]]
        assert unit == metric["unit"]
        assert value > 0
    assert smoke["printed"][workload, "failed_share"] == (0.0, "share")


def test_every_per_layer_metric_is_printed_with_its_unit(smoke):
    units = {}
    for (_, name), (_, unit) in smoke["printed"].items():
        units.setdefault(name, set()).add(unit)
    for metric in SPEC["per_layer"]:
        assert units.get(metric["name"]) == {metric["unit"]}, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_writes_spans_and_reaps_every_process(smoke, workload):
    spans = [json.loads(line) for line in
             (BENCH / "out" / f"trace-{workload}.jsonl").read_text()
             .splitlines()]
    assert spans
    assert {"id", "parent", "name", "request", "start", "end",
            "self_s"} <= spans[0].keys()
    ids = {span["id"] for span in spans}
    assert all(span["parent"] in ids or span["parent"] == 0
               for span in spans)
    record = json.loads(
        (BENCH / "out" / f"run-{workload}-trace.json").read_text())
    if workload != "ledger_mixed":  # the in-process tier starts none
        assert record["spawned"]
    assert not [pid for pid in record["spawned"] if alive(pid)]


@pytest.mark.parametrize("trace", (0, 1))
def test_one_workload_ends_with_the_promised_result_line(trace):
    done, _ = bench("--workload", "ledger_mixed", "--seed", "7",
                    "--seconds", "2", "--smoke", "--trace", str(trace))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = result_of(done)
    assert result.keys() == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"].keys() == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_a_corrupted_signature_raises_failed_share_and_the_exit_code():
    done, _ = bench("--workload", "batch_fresh", "--seed", "7",
                    "--seconds", "2", "--smoke", "--corrupt")
    assert done.returncode == 1
    result = result_of(done)
    assert result["correct"] is False and result["failed"] >= 1
    share = [line for line in done.stdout.splitlines()
             if line.startswith("batch_fresh failed_share")]
    assert float(share[0].split()[2]) > 0
    assert "does-not-verify" in share[0]


def test_refuses_to_run_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH, scratch / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done, _ = bench("--workload", "batch_fresh", "--seed", "1",
                    "--seconds", "1", "--trace", "0", cwd=scratch,
                    command=[sys.executable, "bench/run.py"])
    assert done.returncode not in (0, None)
    assert not done.stdout.strip()


def test_compare_rings_its_alarm():
    done, _ = bench("--self-check",
                    command=[sys.executable, str(BENCH / "compare.py")])
    assert done.returncode == 0, done.stdout


def test_a_run_where_every_operation_fails_still_prints_its_result(
        monkeypatch):
    """The case the tool most needs to report must not end in a
    traceback: nothing was signed, so nothing is left to time."""
    monkeypatch.syspath_prepend(str(BENCH))
    from herobench.floor import quantile
    from herobench.workloads import Window

    assert math.isnan(quantile([], 0.5))
    window = Window(segments=[(0.0, 1.0, 0.5, 0)], latencies=[], sent=16,
                    limit_kh=1.0, lags=[0.0])
    metrics = window.end_to_end(floor=None)
    assert math.isnan(metrics["cpu_cost_kh"][0])
    assert math.isnan(metrics["latency_p50_kh"][0])
    assert metrics["within_limit_share"] == (0.0, "share")


def test_compare_takes_a_share_as_absolute_and_survives_a_zero(
        monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from compare import change_between

    assert change_between(0.5, 0.49, "share") == pytest.approx(-0.01)
    assert change_between(100.0, 120.0, "kh") == pytest.approx(0.20)
    assert change_between(0.0, 3.0, "kh") == math.inf
    assert change_between(0.0, 0.0, "kh") == 0.0


def test_compare_wants_sets_of_three(scratch):
    metrics = {metric["name"]: {"value": 1.0, "unit": metric["unit"]}
               for metric in SPEC["end_to_end"]}
    small = {"seed": 1, "runs": [
        {"workload": name, "failed": 0, "metrics": metrics}
        for name in WORKLOADS]}
    path = scratch / "small.json"
    path.write_text(json.dumps(small))
    done, _ = bench(str(path), str(path),
                    command=[sys.executable, str(BENCH / "compare.py")])
    assert done.returncode == 1
    assert "needs 3 runs" in done.stdout
