"""Command line of the end-to-end benchmark.

One workload (what the driver of ``BENCHMARK.json`` asks for) is
measured in this process and reported as one JSON object on the last
line.  Several workloads, or none named, each run in a child process
of their own, so ``peak_rss_mb`` is per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = Path(__file__).resolve().parent / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(entry["name"] for entry in BENCHMARK["workloads"])
_CHILD_TIMEOUT = 180.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS, metavar="NAME",
        help=f"workload to run (repeatable; default: all of {', '.join(WORKLOADS)})",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument(
        "--seconds", type=float, default=float(BENCHMARK["run_seconds"]),
        help="length of one workload's measurement window",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: report the per-layer metrics from a traced run instead",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply order, worker and request counts (smoke tests only; "
        "results at a scale other than 1 are not comparable)",
    )
    parser.add_argument(
        "--selfcheck", type=int, nargs="?", const=3, default=0, metavar="N",
        help="run two independent sets of N passes (default 3), each pass on "
        "another seed, and compare them against each metric's own bound",
    )
    parser.add_argument("--json", metavar="PATH", help="also write the summary here")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def run_one(name: str, args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from .measure import measure_direct
    from .serve_load import measure_served
    from .workloads import SERVED

    trace = bool(args.trace)
    if name == SERVED:
        outcome = measure_served(args.seed, args.seconds, args.scale, trace)
    else:
        outcome = measure_direct(name, args.seed, args.seconds, args.scale, trace)
    metrics: dict[str, dict[str, Any]] = {}
    if outcome.metrics:
        declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
        values = outcome.layers if trace else outcome.metrics
        for entry in declared:
            metric = entry["name"]
            # The server is another process: only the served workload
            # has serve.* numbers, the direct ones report none.
            value = values.get(metric, 0.0) if metric.startswith("serve.") else values[metric]
            metrics[metric] = {"value": value, "unit": entry["unit"]}
            print(f"{name}/{metric} {value:.6g} {entry['unit']}")
    label = "" if args.scale == 1.0 else f" [scale {args.scale}: not comparable]"
    for note in outcome.notes:
        print(f"# {name}: {note}{label}")
    print(
        f"{name}/error_rate {outcome.failed / max(outcome.attempted, 1):.6g} ratio "
        f"({outcome.failed} of {outcome.attempted} operations)"
    )
    for problem in outcome.problems:
        print(f"!! {name}: {problem}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": max(outcome.attempted, 1),
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.correct else 1


# ----------------------------------------------------------------------
# several workloads, one child process each
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, trace: int, args: argparse.Namespace) -> dict[str, Any]:
    """Run one workload in a child; echo its report, return its JSON line."""
    command = [
        sys.executable, str(SCRIPT), "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--scale", str(args.scale), "--trace", str(trace),
    ]
    failure = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    try:
        child = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=_CHILD_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        print(f"!! {name}: no result within {_CHILD_TIMEOUT:.0f} s")
        return failure
    lines = child.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"!! {name}: exit code {child.returncode}, no result\n{child.stderr}")
        return failure
    sys.stdout.flush()
    return result


def run_pass(names: list[str], seed: int, args: argparse.Namespace) -> dict[str, Any]:
    """Every named workload once; ``workload -> {correct, end_to_end, per_layer}``."""
    results: dict[str, Any] = {}
    for name in names:
        untraced = run_child(name, seed, 0, args)
        entry = {"correct": untraced["correct"], "end_to_end": untraced["metrics"]}
        if args.trace:
            traced = run_child(name, seed, 1, args)
            entry["correct"] = entry["correct"] and traced["correct"]
            entry["per_layer"] = traced["metrics"]
        results[name] = entry
    return results


def run_all(names: list[str], args: argparse.Namespace) -> int:
    results = run_pass(names, args.seed, args)
    correct = all(entry["correct"] for entry in results.values())
    print("all correctness checks passed" if correct else "!! a correctness check FAILED")
    write_summary(args, {"results": results, "correct": correct})
    return 0 if correct else 1


def write_summary(args: argparse.Namespace, body: dict[str, Any]) -> None:
    if args.json:
        summary = {"seed": args.seed, "scale": args.scale, "seconds": args.seconds,
                   **body, "claim": None}
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# --selfcheck: do two sets of runs of the same code agree?
# ----------------------------------------------------------------------
def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def selfcheck(names: list[str], args: argparse.Namespace) -> int:
    """Two alternating sets of ``N`` passes; every pass on another seed.

    For each ``workload/metric`` prints both medians, each set's spread,
    the gap between the medians and ``ok`` or ``NOISY`` against the
    metric's own bound (the spread of ``setup_s`` is shown, not judged).
    """
    passes = max(args.selfcheck, 2)
    sets: list[list[dict[str, Any]]] = [[], []]
    for index in range(passes):
        for which in (0, 1):
            sets[which].append(run_pass(names, args.seed + which * passes + index, args))
    correct = all(entry["correct"] for done in sets for each in done for entry in each.values())
    noisy = 0
    report: dict[str, Any] = {}
    print(f"{'workload/metric':<36}{'median A':>13}{'median B':>13}"
          f"{'spread A':>10}{'spread B':>10}{'gap':>9}{'bound':>8}")
    for name in names:
        for metric in BENCHMARK["end_to_end"]:
            values = [
                [each[name]["end_to_end"][metric["name"]]["value"] for each in done]
                for done in sets
                if all(metric["name"] in each[name]["end_to_end"] for each in done)
            ]
            if len(values) < 2:
                continue
            medians = [statistics.median(each) for each in values]
            spreads = [spread(each) for each in values]
            gap = abs(medians[1] - medians[0]) / abs(medians[0])
            steady = metric["name"] == "setup_s" or max(spreads) <= metric["bound"]
            verdict = "ok" if steady and gap <= metric["bound"] else "NOISY"
            noisy += verdict != "ok"
            key = f"{name}/{metric['name']}"
            report[key] = {"medians": medians, "spreads": spreads, "gap": gap,
                           "bound": metric["bound"], "verdict": verdict}
            print(f"{key:<36}{medians[0]:>13.6g}{medians[1]:>13.6g}{spreads[0]:>10.4f}"
                  f"{spreads[1]:>10.4f}{gap:>9.4f}{metric['bound']:>8.2g}  {verdict}")
    print(f"selfcheck: {noisy} NOISY, correctness {'ok' if correct else 'FAILED'}")
    write_summary(args, {"selfcheck": report, "correct": correct})
    return 0 if correct and not noisy else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    names = list(dict.fromkeys(args.workload or WORKLOADS))
    if args.selfcheck:
        return selfcheck(names, args)
    if args.workload and len(names) == 1:
        return run_one(names[0], args)
    return run_all(names, args)
