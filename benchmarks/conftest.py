"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artefacts
(Figures 3-6 plus the appendix ablations) as a text table printed to the
captured output, and times one representative sweep cell with
pytest-benchmark so regressions in algorithm cost show up over time.

The workloads are scaled down from Table III (see
``repro.experiments.config``) so the full harness completes in minutes;
`--benchmark-only` runs print the same tables the paper plots.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.api import ScenarioSpec  # noqa: E402


#: Algorithms compared in every figure benchmark.  The full set of the
#: paper is used; NonSharing is added as the sanity floor.
BENCH_ALGORITHMS = (
    "WATTER-expect",
    "WATTER-online",
    "WATTER-timeout",
    "GDP",
    "GAS",
    "NonSharing",
)

#: The WATTER-only subset used by the appendix ablations.
WATTER_ALGORITHMS = ("WATTER-expect", "WATTER-online", "WATTER-timeout")


def bench_spec(dataset: str, **overrides) -> ScenarioSpec:
    """A benchmark-sized scenario: Table III shapes, reduced counts."""
    base = dict(num_orders=120, num_workers=24, horizon=1800.0, grid_size=8)
    base.update(overrides)
    return ScenarioSpec(dataset=dataset, **base)


@pytest.fixture(scope="session")
def bench_datasets():
    """Datasets covered by the figure benchmarks (all three of the paper)."""
    return ("NYC", "CDC", "XIA")
