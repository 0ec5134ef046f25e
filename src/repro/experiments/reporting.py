"""Plain-text reporting of sweep and comparison results.

The paper presents its evaluation as line plots (Figures 3-6).  The
reproduction prints the same data as text tables: one table per metric,
one column per swept parameter value, one row per algorithm.  The
benchmark harness calls these formatters so the regenerated "figures"
appear directly in the benchmark output.
"""

from __future__ import annotations

from typing import Sequence, TYPE_CHECKING

from ..simulation.metrics import SimulationMetrics

if TYPE_CHECKING:  # pragma: no cover
    from ..api import SweepPoint

#: metric attribute -> human-readable column header
METRIC_LABELS = {
    "total_extra_time": "Extra Time (s)",
    "unified_cost": "Unified Cost",
    "service_rate": "Service Rate",
    "running_time_per_order": "Running Time (s/order)",
}


def render_aligned_table(title: str, rows: Sequence[Sequence[str]]) -> str:
    """Render pre-formatted rows (header first) as an aligned text table.

    The single text-table renderer shared by every formatter in the
    experiments package (sweeps, comparisons, oracle stats).
    """
    widths = [
        max(len(row[index]) for row in rows) for index in range(len(rows[0]))
    ]
    lines = [title, "-" * len(title)]
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def _format_value(metric: str, value: float) -> str:
    if metric == "service_rate":
        return f"{value:.3f}"
    if metric == "running_time_per_order":
        return f"{value:.2e}"
    return f"{value:.1f}"


def series(points: Sequence["SweepPoint"], algorithm: str, metric: str) -> list[float]:
    """One plotted line: ``metric`` of ``algorithm`` at every sweep point."""
    return [
        getattr(run.metrics, metric)
        for point in points
        for run in point.results
        if run.metrics.algorithm == algorithm
    ]


def format_sweep_table(
    points: Sequence["SweepPoint"],
    metric: str,
    title: str | None = None,
) -> str:
    """Render one metric of a sweep as an aligned text table."""
    if metric not in METRIC_LABELS:
        raise KeyError(
            f"unknown metric {metric!r}; expected one of {sorted(METRIC_LABELS)}"
        )
    first = points[0]
    header = title or (
        f"{METRIC_LABELS[metric]} vs {first.parameter} "
        f"({first.results[0].spec.dataset})"
    )
    rows = [["algorithm"] + [f"{float(point.value):g}" for point in points]]
    for run in first.results:
        algorithm = run.metrics.algorithm
        line = series(points, algorithm, metric)
        rows.append([algorithm] + [_format_value(metric, value) for value in line])
    return render_aligned_table(header, rows)


def format_full_sweep_report(points: Sequence["SweepPoint"]) -> str:
    """All four paper metrics of one sweep, stacked."""
    sections = [
        format_sweep_table(points, metric) for metric in METRIC_LABELS
    ]
    return "\n\n".join(sections)


def format_oracle_stats_table(
    metrics_list: Sequence[SimulationMetrics],
    title: str = "Distance-oracle cache statistics",
) -> str:
    """Render per-run oracle counters; empty string when none were recorded."""
    rows_source = [m for m in metrics_list if m.oracle_stats]
    if not rows_source:
        return ""

    def _get(m: SimulationMetrics, key: str, default: float = 0.0):
        stats = m.oracle_stats  # type: ignore[union-attr]
        if key in stats:
            return stats[key]
        # Backend extras are namespaced ("ch.bucket_scans") in the
        # versioned stats schema; accept the bare counter name here so
        # the table works for whichever backend produced the run.
        backend = stats.get("backend")
        if backend is not None:
            return stats.get(f"{backend}.{key}", default)
        return default

    columns = [
        ("algorithm", lambda m: m.algorithm),
        ("backend", lambda m: str(_get(m, "backend", "?"))),
        ("kernel", lambda m: str(_get(m, "kernel", "dict"))),
        ("queries", lambda m: f"{int(_get(m, 'queries'))}"),
        ("hit rate", lambda m: f"{float(_get(m, 'hit_rate')):.3f}"),
        ("sssp runs", lambda m: f"{int(_get(m, 'sssp_runs'))}"),
        ("rev sssp", lambda m: f"{int(_get(m, 'reverse_sssp_runs'))}"),
        ("p2p searches", lambda m: f"{int(_get(m, 'pp_searches'))}"),
        # CH-backend counters (zero on the other backends): shortcut
        # edges added during contraction and bucket entries scanned by
        # the many-to-one query path.
        ("shortcuts", lambda m: f"{int(_get(m, 'shortcuts_added'))}"),
        ("bucket scans", lambda m: f"{int(_get(m, 'bucket_scans'))}"),
    ]
    rows = [[header for header, _ in columns]]
    for metrics in rows_source:
        rows.append([extractor(metrics) for _, extractor in columns])
    return render_aligned_table(title, rows)


def format_comparison_table(
    metrics_list: Sequence[SimulationMetrics], title: str = "Algorithm comparison"
) -> str:
    """Render one run per algorithm as a single comparison table."""
    columns = [
        ("algorithm", lambda m: m.algorithm),
        ("extra time", lambda m: f"{m.total_extra_time:.1f}"),
        ("unified cost", lambda m: f"{m.unified_cost:.1f}"),
        ("service rate", lambda m: f"{m.service_rate:.3f}"),
        ("avg group", lambda m: f"{m.average_group_size:.2f}"),
        ("run time/order", lambda m: f"{m.running_time_per_order:.2e}"),
    ]
    rows = [[header for header, _ in columns]]
    for metrics in metrics_list:
        rows.append([extractor(metrics) for _, extractor in columns])
    return render_aligned_table(title, rows)
