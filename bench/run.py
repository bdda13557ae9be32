#!/usr/bin/env python3
"""The repo's benchmark: ``python bench/run.py [--workload NAME] [--seed N]
[--seconds S] [--trace [0|1]] [--smoke] [--runs N]``.

Without ``--workload`` every workload runs in a fresh interpreter (and,
with ``--trace``, the layer ladder in another), each metric is printed as
``workload metric value unit``, and the set of runs is written under
``bench/out/``.  With ``--workload`` this process runs that one workload
(and, traced, the ladder) and ends its output with one JSON object: the
form ``BENCHMARK.json`` names.  ``bench/README.md`` defines every word
used here.
"""

import time

_BOOTED = time.perf_counter()

import argparse  # noqa: E402 — the clock above starts first
import asyncio  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from herobench import procs  # noqa: E402
from herobench.floor import REFERENCE_US, FloorSampler  # noqa: E402
from herobench.spans import Recorder  # noqa: E402

DEFAULT_SEED = 20260930
SMOKE_SECONDS = 2.0
LADDER = "ladder"


def parse(argv=None) -> argparse.Namespace:
    with open(procs.REPO_ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help=f"timed window per workload (default "
                             f"{spec['run_seconds']}; {SMOKE_SECONDS:g} "
                             f"with --smoke)")
    # The issue's command line says ``--trace``, the driver's ``--trace 1``.
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="record spans and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the size: one set-up, two-second "
                             "windows, the ladder on two messages")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat every workload this many times "
                             "(compare.py wants sets of at least three)")
    # How this script calls itself: one workload without the ladder, or
    # the ladder alone, in a fresh interpreter.
    parser.add_argument("--part", choices=workloads + [LADDER],
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true",
                        help=argparse.SUPPRESS)  # test_bench.py's alarm
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke \
            else float(spec["run_seconds"])
    args.spec = spec
    return args


# ----------------------------------------------------------------------
# One workload, the ladder, or both, in this process
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace) -> int:
    if not (procs.SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure at {procs.SRC_DIR}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(procs.SRC_DIR))
    from herobench.checks import Checker
    from herobench.ladder import ladder
    from herobench.workloads import WORKLOADS, Run

    # ``--workload X`` is the form BENCHMARK.json promises: traced, it
    # reports every per-layer metric, so it climbs the ladder too.
    label = args.part or args.workload
    workload = None if label == LADDER else label
    climbs = args.trace and args.part in (None, LADDER)

    procs.OUT_DIR.mkdir(exist_ok=True)
    floor = FloorSampler().start()
    # The sampler: ours, not the program's, so never counted among its
    # workers nor as leaked.
    sidecars = frozenset(procs.descendants(os.getpid()))
    end_to_end: dict[str, tuple] = {}
    layers: dict[str, tuple] = {}
    try:
        # Every module a workload needs, so imports count as set-up once
        # and not inside the first of the repeated set-ups.
        import repro.api  # noqa: F401
        import repro.ledger  # noqa: F401
        import repro.runtime.pool  # noqa: F401
        import repro.runtime.vectorized  # noqa: F401

        run = Run(seed=args.seed, seconds=args.seconds, smoke=args.smoke,
                  floor=floor, sidecars=sidecars,
                  recorder=Recorder(bool(args.trace)),
                  checker=Checker(args.seed, corrupt=args.corrupt))
        booted = floor.reference_s(_BOOTED, time.perf_counter())
        if workload:
            window = asyncio.run(WORKLOADS[workload](run))
            run.checker.finish()
            end_to_end["setup_s"] = (
                booted + statistics.median(run.setups), "s")
            end_to_end.update(window.end_to_end(floor))
            end_to_end["peak_rss_mb"] = (run.rss_mb, "MB")
            if args.trace:
                layers.update(run.recorder.layer_metrics(floor))
                layers.update(window.context(floor))
                layers["bench.trace_overhead_ratio"] = (
                    _trace_overhead(run, window), "ratio")
                run.recorder.write(
                    procs.OUT_DIR / f"trace-{workload}.jsonl", floor)
        if climbs:
            layers.update(ladder(run))
            run.checker.finish()
        # The program was told to stop everything it started; what still
        # runs a second later is counted, and main() ends it.
        patience = time.perf_counter() + 1.0
        while run.children() and time.perf_counter() < patience:
            time.sleep(0.01)
        for _ in run.children():
            run.checker.fail("leaked-process")
    finally:
        floor.stop()

    checker = run.checker
    floor_us = floor.mean_us(_BOOTED, time.perf_counter())
    for name, (value, unit) in end_to_end.items():
        _print_metric(label, name, value, unit, floor_us)
    print(f"{label} failed_share "
          f"{checker.failed / max(checker.attempted, 1):.6f} share"
          f"  # {checker.failed} of {checker.attempted} operations"
          + "".join(f"; {count} {reason}"
                    for reason, count in checker.reasons.items()))
    for name in sorted(layers):
        _print_metric(label, name, *layers[name], floor_us)

    reported = layers if args.trace else end_to_end
    if args.part is None:  # exactly the metrics BENCHMARK.json names
        declared = args.spec["per_layer" if args.trace else "end_to_end"]
        reported = {metric["name"]: reported[metric["name"]]
                    for metric in declared}
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        # A metric is NaN when every operation failed: null, in JSON.
        "metrics": {name: {"value": None if math.isnan(value) else value,
                           "unit": unit}
                    for name, (value, unit) in reported.items()},
    }
    record = dict(result, workload=label, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  reasons=dict(checker.reasons), floor_us=floor_us,
                  spawned=run.spawned)
    suffix = "-trace" if args.trace else ""
    with open(procs.OUT_DIR / f"run-{label}{suffix}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _trace_overhead(run, window) -> float:
    """CPU the span recorder cost, as a share of the system's CPU: the
    per-span cost timed here on spans of the same shape, times the spans
    the window recorded.  (Tracing on and off differ by far less than two
    runs of either differ, so a difference of two runs cannot show it.)"""
    probe, rounds = Recorder(True), 2000
    start = time.thread_time()
    for request in range(rounds):
        with probe.span("bench.probe", request=request):
            pass
    per_span = (time.thread_time() - start) / rounds
    system_cpu = sum(cpu for _, _, cpu, _ in window.segments)
    return len(run.recorder.spans) * per_span / system_cpu


def _print_metric(label, name, value, unit, floor_us) -> None:
    line = f"{label} {name} {value:.6g} {unit}"
    if unit == "kh":
        line += f"  # {value * floor_us:.3f} ms at {floor_us:.4f} us/hash"
    elif name == "setup_s":
        line += (f"  # at {REFERENCE_US} us/hash; "
                 f"{value * floor_us / REFERENCE_US:.3f} s at this run's "
                 f"{floor_us:.4f}")
    print(line)


# ----------------------------------------------------------------------
# Every workload, each in a fresh interpreter
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    parts = [w["name"] for w in args.spec["workloads"]]
    if args.trace:
        parts.append(LADDER)
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    if args.smoke:
        common.append("--smoke")
    suffix = "-trace" if args.trace else ""
    runs, status = [], 0
    for _ in range(args.runs):
        for part in parts:
            record = procs.OUT_DIR / f"run-{part}{suffix}.json"
            record.unlink(missing_ok=True)
            status = _child(["--part", part] + common) or status
            if record.exists():  # it ran to its end
                runs.append(json.loads(record.read_text()))
    # Named by the second, so that a second set does not replace the first.
    out = procs.OUT_DIR / (f"set-seed{args.seed}{suffix}-"
                           f"{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(out, "w") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "smoke": args.smoke, "runs": runs},
                  handle, indent=1)
    print(f"# {len(runs)} runs -> {out}")
    return status


def _child(arguments: list[str]) -> int:
    """Run this script again; pass its lines through, all but the result
    line (the record it wrote under ``bench/out/`` says the same and
    more)."""
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__)] + arguments,
        stdout=subprocess.PIPE, text=True)
    try:
        for line in child.stdout:
            if not line.startswith("{"):
                print(line, end="", flush=True)
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def main(argv=None) -> int:
    args = parse(argv)
    procs.adopt_orphans()
    try:
        if args.workload or args.part:
            return run_one(args)
        return run_all(args)
    finally:
        procs.reap()  # nothing this command started outlives it


if __name__ == "__main__":
    sys.exit(main())
