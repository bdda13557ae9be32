#!/usr/bin/env python3
"""Do two sets of benchmark runs agree?  ``python bench/compare.py A.json
B.json``.

A *set* is what ``bench/run.py --runs N`` writes: at least three runs of
every workload at one seed.  A metric's set value is its median over the
runs.  Two sets agree when every end-to-end metric of every workload
differs by no more than the bound ``BENCHMARK.json`` gives it — a share
of A's median; for a metric that is itself a share, an absolute
difference — and, when both sets are traced and share a seed, every
exact counter is equal.  Otherwise the command names each metric that
disagrees and exits 1.

``--summary SET.json ...`` prints each set's medians, quartiles and
sample counts (with ``--json``, in the form ``bench/baseline.json``
keeps); ``--self-check`` proves the alarm rings.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_RUNS = 3
#: What ``--self-check`` injects.  Every end-to-end metric must see it,
#: except ``setup_s``, whose bound the contract makes the largest.
REGRESSION = 0.20
#: Per-layer metrics that count work instead of timing it: equal seeds
#: must give equal values, to the last digit.
EXACT = (
    "hashes.calls_per_sig",
    "service.protocol.v2_bytes_per_sig",
    "service.protocol.v3_bytes_per_sig",
    "runtime.layercache.fresh_hit_ratio",
    "runtime.layercache.replay_hit_ratio",
    "gpusim.graph_kops_128f",
    "repo.src_lines",
)


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def summarise(runs: dict) -> dict:
    """``{workload: {metric: {median, q1, q3, n, unit}}}`` of one set."""
    values: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    for run in runs["runs"]:
        per_metric = values.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            if metric["value"] is not None:  # null: nothing left to time
                per_metric.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
    summary: dict[str, dict] = {}
    for workload, per_metric in values.items():
        summary[workload] = {}
        for name, series in per_metric.items():
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
            else:
                q1 = q3 = series[0]
            summary[workload][name] = {
                "median": statistics.median(series), "q1": q1, "q3": q3,
                "n": len(series), "unit": units[name]}
    return summary


def change_between(left: float, right: float, unit: str) -> float:
    """How far *right* is from *left*: the difference itself for a share,
    otherwise the difference as a share of *left* (from a *left* of 0,
    any move is infinitely far)."""
    difference = right - left
    if unit == "share" or not difference:
        return difference
    return difference / left if left else math.copysign(math.inf, difference)


def compare(first: dict, second: dict, spec: dict) -> list[str]:
    """Every disagreement between two sets, as one line each."""
    problems = []
    for label, runs in (("A", first), ("B", second)):
        failed = sum(run["failed"] for run in runs["runs"])
        if failed:
            problems.append(f"set {label}: {failed} operations failed")
    a, b = summarise(first), summarise(second)
    end_to_end = {metric["name"]: metric for metric in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a or workload not in b:
            problems.append(f"{workload}: missing from a set")
            continue
        for name, metric in end_to_end.items():
            if name not in a[workload] or name not in b[workload]:
                continue  # a traced set carries no end-to-end metrics
            left, right = a[workload][name], b[workload][name]
            if min(left["n"], right["n"]) < MIN_RUNS:
                problems.append(
                    f"{workload} {name}: a set needs {MIN_RUNS} runs, "
                    f"these have {left['n']} and {right['n']}")
                continue
            change = change_between(left["median"], right["median"],
                                    metric["unit"])
            if abs(change) > metric["bound"]:
                lower_is_better = metric["better"] == "lower"
                verdict = "worse" if (change > 0) == lower_is_better \
                    else "better"
                problems.append(
                    f"{workload} {name}: B is {verdict} than A by "
                    f"{abs(change):.1%} (bound {metric['bound']:.0%}): "
                    f"{left['median']:.6g} -> {right['median']:.6g} "
                    f"{metric['unit']}")
    if first.get("seed") == second.get("seed"):
        for workload in a.keys() & b.keys():
            for name in EXACT:
                if name in a[workload] and name in b[workload]:
                    left = a[workload][name]["median"]
                    right = b[workload][name]["median"]
                    if left != right:
                        problems.append(
                            f"{workload} {name}: exact counter differs at "
                            f"equal seed: {left!r} != {right!r}")
    return problems


def print_summary(runs: dict) -> None:
    for workload, metrics in summarise(runs).items():
        for name, row in metrics.items():
            print(f"{workload} {name} {row['median']:.6g} {row['unit']}"
                  f"  # q1 {row['q1']:.6g} q3 {row['q3']:.6g} n {row['n']}")


def baseline(paths: list[str], loaded: list[dict]) -> dict:
    """The sets as ``bench/baseline.json`` records them."""
    return {"sets": [
        {"file": Path(path).name, "seed": runs.get("seed"),
         "seconds": runs.get("seconds"), "trace": runs.get("trace"),
         "floor_us": statistics.median(
             run["floor_us"] for run in runs["runs"]),
         "metrics": summarise(runs)}
        for path, runs in zip(paths, loaded)]}


def self_check(spec: dict) -> list[str]:
    """The alarm must ring: identical sets agree; a regression of
    exactly ``REGRESSION`` in any one end-to-end metric, a moved exact
    counter or a failed operation does not.  ``setup_s`` alone may be
    blind to it (the contract gives it the largest bound) and is pushed
    ``REGRESSION`` past its own bound instead; any other metric whose
    bound cannot see ``REGRESSION`` fails the check."""
    runs = []
    for workload in spec["workloads"]:
        for repeat in range(MIN_RUNS):
            metrics = {m["name"]: {"value": 1.0 if m["unit"] == "share"
                                   else 100.0 + repeat, "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            metrics.update({name: {"value": 7.0, "unit": "count"}
                            for name in EXACT})
            runs.append({"workload": workload["name"], "failed": 0,
                         "metrics": metrics})
    base = {"seed": 1, "runs": runs}
    failures = []
    if compare(base, copy.deepcopy(base), spec):
        failures.append("identical sets were reported as different")
    victim = spec["workloads"][-1]["name"]
    for metric in spec["end_to_end"]:
        worse = copy.deepcopy(base)
        injected = REGRESSION
        if metric["name"] == "setup_s" and metric["bound"] >= REGRESSION:
            injected += metric["bound"]
        factor = 1 + injected if metric["better"] == "lower" \
            else 1 - injected
        for run in worse["runs"]:
            if run["workload"] == victim:
                run["metrics"][metric["name"]]["value"] *= factor
        rung = [line for line in compare(base, worse, spec)
                if line.startswith(f"{victim} {metric['name']}:")
                and "worse" in line]
        if len(rung) != 1:
            failures.append(
                f"a {injected:.0%} regression of {metric['name']} (bound "
                f"{metric['bound']:.0%}) went unnoticed")
    moved = copy.deepcopy(base)
    moved["runs"][0]["metrics"][EXACT[0]]["value"] += 1
    moved["runs"][1]["metrics"][EXACT[0]]["value"] += 1
    if not any(EXACT[0] in line for line in compare(base, moved, spec)):
        failures.append(f"a moved {EXACT[0]} went unnoticed")
    broken = copy.deepcopy(base)
    broken["runs"][0]["failed"] = 1
    if not any("failed" in line for line in compare(base, broken, spec)):
        failures.append("a failed operation went unnoticed")
    zeroed = copy.deepcopy(base)  # every request missed, nothing signed
    for run in zeroed["runs"]:
        if run["workload"] == victim:
            for metric in spec["end_to_end"]:
                run["metrics"][metric["name"]]["value"] = 0.0
    for first, second in ((base, zeroed), (zeroed, base)):
        if len(compare(first, second, spec)) != len(spec["end_to_end"]):
            failures.append("a fall to 0, or a rise from it, went unnoticed")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="*", metavar="SET.json")
    parser.add_argument("--summary", action="store_true",
                        help="print each set's medians and quartiles")
    parser.add_argument("--json", action="store_true",
                        help="with --summary: one JSON document")
    parser.add_argument("--self-check", action="store_true",
                        help="inject regressions; fail unless each is "
                             "reported")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.self_check:
        failures = self_check(spec)
        for line in failures:
            print(f"self-check: {line}")
        print("self-check:", "FAILED" if failures else
              f"ok, {len(spec['end_to_end']) + 3} alarms rang")
        return 1 if failures else 0
    loaded = []
    for path in args.sets:
        with open(path) as handle:
            loaded.append(json.load(handle))
    if args.summary:
        if args.json:
            print(json.dumps(baseline(args.sets, loaded), indent=1))
        else:
            for runs in loaded:
                print_summary(runs)
        return 0
    if len(loaded) != 2:
        parser.error("give two sets to compare, or --summary and some")
    problems = compare(loaded[0], loaded[1], spec)
    for line in problems:
        print(line)
    print(f"{args.sets[0]} and {args.sets[1]}",
          "DISAGREE" if problems else "agree")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
