"""The benchmark regression gate's three-way ok/skip/fail classification.

``benchmarks/check_regression.py`` is deliberately dependency-free and
lives outside the package, so these tests load it by path.  What they
pin down is the reporting contract: a comparison that cannot run on
this machine (bar not applicable, csr kernel missing because the
candidate had no numpy) is a *skip* with a reason,
never a silent pass and never a spurious failure — and the summary
counts all three buckets so a half-skipped build is visible.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def _trajectory(
    *,
    csr_speedup: float | None = 4.5,
    csr_applicable: bool = True,
    bar_value: float = 4.5,
    bar_met: bool = True,
    bar_applicable: bool = True,
) -> dict:
    data = {
        "backends": [{"backend": "ch", "speedup": 20.0}],
        "acceptance": {
            "csr_many_to_one_speedup": {
                "value": bar_value,
                "threshold": 3.0,
                "met": bar_met,
                "applicable": bar_applicable,
            }
        },
    }
    if csr_speedup is not None or not csr_applicable:
        data["csr_kernel"] = {
            "speedup": csr_speedup if csr_speedup is not None else 0.0,
            "applicable": csr_applicable,
        }
    return data


def test_identical_trajectories_all_pass():
    base = _trajectory()
    failures, skips, notes = check_regression.compare(base, _trajectory(), 0.3)
    assert failures == []
    assert skips == []
    assert len(notes) == 3  # ch ratio, csr ratio, bar


def test_degraded_ratio_fails():
    failures, _, _ = check_regression.compare(
        _trajectory(), _trajectory(csr_speedup=2.0), 0.3
    )
    assert any("csr_kernel" in failure for failure in failures)


def test_candidate_without_numpy_skips_the_csr_comparison():
    candidate = _trajectory(
        csr_speedup=0.0,
        csr_applicable=False,
        bar_value=0.0,
        bar_met=False,
        bar_applicable=False,
    )
    failures, skips, notes = check_regression.compare(
        _trajectory(), candidate, 0.3
    )
    assert failures == []
    assert any("numpy unavailable" in skip for skip in skips)
    assert any("not applicable" in skip for skip in skips)
    assert all("csr" not in note for note in notes)


def test_candidate_without_direct_contraction_skips_the_coarsen_ratio():
    """A fresh run that skipped the direct CH side must skip, not fail.

    The committed baseline carries the full >=100k-node measurement
    (applicable, met); default CI runs skip the tens-of-minutes direct
    contraction and record ``applicable: false`` — the gate must route
    both the ratio and the acceptance bar to skips with reasons.
    """
    baseline = _trajectory()
    baseline["coarsen"] = {"speedup": 40.0, "applicable": True}
    baseline["acceptance"]["coarsen_readiness_speedup"] = {
        "value": 40.0,
        "threshold": 10.0,
        "met": True,
        "applicable": True,
    }
    candidate = _trajectory()
    candidate["coarsen"] = {"speedup": 0.0, "applicable": False}
    candidate["acceptance"]["coarsen_readiness_speedup"] = {
        "value": 0.0,
        "threshold": 10.0,
        "met": False,
        "applicable": False,
    }
    failures, skips, notes = check_regression.compare(baseline, candidate, 0.3)
    assert failures == []
    assert any("REPRO_BENCH_COARSEN_FULL" in skip for skip in skips)
    assert any("coarsen_readiness_speedup" in skip for skip in skips)
    assert all("coarsen" not in note for note in notes)


def test_degraded_coarsen_ratio_fails_when_both_sides_measured():
    baseline = _trajectory()
    baseline["coarsen"] = {"speedup": 40.0, "applicable": True}
    candidate = _trajectory()
    candidate["coarsen"] = {"speedup": 12.0, "applicable": True}
    failures, _, _ = check_regression.compare(baseline, candidate, 0.3)
    assert any("coarsen.readiness_speedup" in failure for failure in failures)


def test_acceptance_flip_fails():
    failures, _, _ = check_regression.compare(
        _trajectory(), _trajectory(bar_value=1.0, bar_met=False), 0.3
    )
    assert any("FLIPPED" in failure for failure in failures)


def test_bar_baseline_never_held_warns_instead_of_failing():
    baseline = _trajectory(bar_value=0.0, bar_met=False, bar_applicable=False)
    candidate = _trajectory(bar_value=1.0, bar_met=False)
    failures, skips, _ = check_regression.compare(baseline, candidate, 0.3)
    assert failures == []
    assert any("WARNING" in skip for skip in skips)


@pytest.mark.parametrize(
    "mutate, expected_exit",
    [(lambda t: t, 0), (lambda t: t["backends"][0].update(speedup=5.0) or t, 1)],
)
def test_main_exit_codes_and_summary(tmp_path, capsys, mutate, expected_exit):
    base_path = tmp_path / "base.json"
    cand_path = tmp_path / "cand.json"
    base_path.write_text(json.dumps(_trajectory()))
    cand_path.write_text(json.dumps(mutate(_trajectory())))
    exit_code = check_regression.main([str(base_path), str(cand_path)])
    assert exit_code == expected_exit
    captured = capsys.readouterr()
    output = captured.out + captured.err
    assert "passed," in output and "skipped," in output and "failed" in output


def test_committed_baseline_names_only_registered_backends():
    """A baseline ratio "missing from candidate" fails the gate, so a
    deleted backend must leave ``BENCH_dispatch.json`` in the same change."""
    from repro.network.oracle import available_backends

    committed = json.loads((_SCRIPT.parents[1] / "BENCH_dispatch.json").read_text())
    named = {entry["backend"] for entry in committed["backends"]}
    named.update(committed["scenario"]["backends"])
    assert named <= set(available_backends())
