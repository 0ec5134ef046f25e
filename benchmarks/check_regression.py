#!/usr/bin/env python3
"""CI benchmark-regression gate over ``BENCH_dispatch.json`` trajectories.

Compares a freshly measured dispatch-benchmark trajectory against the
committed baseline and fails (exit code 1) when the hot path got
meaningfully slower:

* **Ratio regressions** — every recorded speedup *ratio* (per-backend
  many-to-one speedup, the CH cold point-to-point speedup, the
  spatial-index speedup) must not degrade by more than ``--tolerance``
  (default 30%) versus the baseline.  Ratios divide out absolute
  machine speed, so a faster or slower runner does not trip the gate —
  only a change in the *shape* of the performance does.
* **Acceptance flips** — every bar in the trajectory's ``acceptance``
  section (value, threshold, met, applicable) that the baseline met
  while applicable must still be met by an applicable candidate.
  A bar that is not applicable on either side (e.g. the csr-kernel
  bar without numpy) is reported, not failed.

The report keeps the three outcomes visibly distinct: ``ok:`` lines are
comparisons that ran and passed, ``skip:`` lines are comparisons that
could not meaningfully run on this machine (with the reason), and
``FAIL:`` lines are genuine regressions — so a build where half the
bars silently skipped can never masquerade as one where they passed.

Usage::

    python benchmarks/check_regression.py BASELINE CANDIDATE [--tolerance 0.3]

The script is dependency-free on purpose: the gate must be able to
judge a trajectory even when the library itself is broken.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_TOLERANCE = 0.30


def _load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read trajectory {path!r}: {exc}")


def _fmt(value) -> str:
    """Format a possibly-missing numeric field without crashing the gate."""
    if isinstance(value, (int, float)):
        return f"{value:.2f}"
    return repr(value)


def collect_ratios(trajectory: dict) -> dict[str, float]:
    """Named speedup ratios recorded in a trajectory.

    Only ratios are collected — absolute seconds depend on machine
    speed and would make the gate flake across runner generations.
    """
    ratios: dict[str, float] = {}
    for entry in trajectory.get("backends", []):
        name = entry.get("backend", "?")
        if "speedup" in entry:
            ratios[f"backend.{name}.many_to_one_speedup"] = entry["speedup"]
    ch = trajectory.get("ch", {})
    if "cold_p2p_speedup_vs_lazy" in ch:
        ratios["ch.cold_p2p_speedup_vs_lazy"] = ch["cold_p2p_speedup_vs_lazy"]
    spatial = trajectory.get("spatial_index", {})
    if "speedup" in spatial:
        ratios["spatial_index.speedup"] = spatial["speedup"]
    ch_cache = trajectory.get("ch_cache", {})
    if "speedup" in ch_cache:
        ratios["ch_cache.warm_construction_speedup"] = ch_cache["speedup"]
    csr = trajectory.get("csr_kernel", {})
    if "speedup" in csr and csr.get("applicable", True):
        # Without numpy both timings exercised the dict path and the
        # recorded 0.0 "ratio" carries no information; leaving it out
        # here routes the comparison to a skip, not a failure.
        ratios["csr_kernel.many_to_one_sweep_speedup"] = csr["speedup"]
    coarsen = trajectory.get("coarsen", {})
    if "speedup" in coarsen and coarsen.get("applicable", True):
        # When the direct full-graph contraction was skipped for time
        # (the default outside REPRO_BENCH_COARSEN_FULL=1 runs) the
        # recorded 0.0 "ratio" carries no information; leaving it out
        # routes the comparison to a skip, not a failure.
        ratios["coarsen.readiness_speedup"] = coarsen["speedup"]
    return ratios


def compare(
    baseline: dict, candidate: dict, tolerance: float
) -> tuple[list[str], list[str], list[str]]:
    """Return ``(failures, skips, notes)`` of candidate vs baseline.

    ``failures`` are genuine regressions; ``skips`` are comparisons
    that could not meaningfully run on this machine (bar not
    applicable) with the reason; ``notes`` are comparisons that ran and
    passed.
    """
    failures: list[str] = []
    skips: list[str] = []
    notes: list[str] = []

    base_ratios = collect_ratios(baseline)
    cand_ratios = collect_ratios(candidate)
    for name, base_value in sorted(base_ratios.items()):
        cand_value = cand_ratios.get(name)
        if cand_value is None:
            if name.startswith("csr_kernel.") and not candidate.get(
                "csr_kernel", {}
            ).get("applicable", True):
                skips.append(
                    f"{name}: csr kernel not applicable on candidate "
                    f"(numpy unavailable)"
                )
                continue
            if name.startswith("coarsen.") and not candidate.get(
                "coarsen", {}
            ).get("applicable", True):
                skips.append(
                    f"{name}: direct full-graph contraction skipped on "
                    f"candidate (REPRO_BENCH_COARSEN_FULL not set)"
                )
                continue
            failures.append(f"{name}: missing from candidate trajectory")
            continue
        floor = base_value * (1.0 - tolerance)
        if cand_value < floor:
            failures.append(
                f"{name}: {cand_value:.2f} degraded more than "
                f"{tolerance:.0%} below baseline {base_value:.2f} "
                f"(floor {floor:.2f})"
            )
        else:
            notes.append(
                f"{name}: {cand_value:.2f} vs baseline {base_value:.2f} ok"
            )

    base_acceptance = baseline.get("acceptance", {})
    cand_acceptance = candidate.get("acceptance", {})
    for name, base_block in sorted(base_acceptance.items()):
        cand_block = cand_acceptance.get(name)
        if cand_block is None:
            failures.append(f"acceptance.{name}: missing from candidate")
            continue
        base_ok = bool(base_block.get("met")) and base_block.get(
            "applicable", True
        )
        cand_applicable = cand_block.get("applicable", True)
        if not cand_applicable:
            skips.append(
                f"acceptance.{name}: not applicable on this machine "
                f"(value {cand_block.get('value')})"
            )
            continue
        if not cand_block.get("met"):
            if base_ok:
                failures.append(
                    f"acceptance.{name}: FLIPPED — baseline met the "
                    f"{base_block.get('threshold')} bar at "
                    f"{_fmt(base_block.get('value'))}, candidate measured "
                    f"{_fmt(cand_block.get('value'))}"
                )
            else:
                # The baseline machine never held this bar (e.g. no
                # numpy for the csr-kernel bar), so there is no flip
                # to detect.  The absolute bar itself is asserted by
                # the benchmark suite that produced the candidate
                # trajectory — failing here too would double-report
                # the same measurement; warn loudly instead.
                skips.append(
                    f"acceptance.{name}: WARNING — applicable here but "
                    f"below the {cand_block.get('threshold')} bar "
                    f"(measured {_fmt(cand_block.get('value'))}; baseline "
                    f"machine could not measure it). The benchmark "
                    f"suite's own assertion enforces this bar."
                )
        else:
            notes.append(
                f"acceptance.{name}: still met "
                f"({_fmt(cand_block.get('value'))} >= "
                f"{cand_block.get('threshold')})"
            )
    return failures, skips, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_dispatch.json")
    parser.add_argument("candidate", help="freshly measured trajectory")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional ratio degradation (default 0.30)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must lie in [0, 1)")
    baseline = _load(args.baseline)
    candidate = _load(args.candidate)
    failures, skips, notes = compare(baseline, candidate, args.tolerance)
    for note in notes:
        print(f"  ok: {note}")
    for skip in skips:
        print(f"  skip: {skip}")
    summary = (
        f"{len(notes)} passed, {len(skips)} skipped, {len(failures)} failed"
    )
    if failures:
        print(
            f"\nBENCHMARK REGRESSION GATE FAILED ({summary}):",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"\nbenchmark regression gate passed ({summary})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
