"""Experiment harness reproducing the paper's evaluation section."""

from .config import default_config, PARAMETER_GRID
from .runner import ALGORITHMS, DISPATCHERS, make_dispatcher
from .sweeps import AXES, SweepPoint, run_sweep
from .worked_example import run_worked_example, WorkedExampleResult
from .reporting import format_sweep_table, format_comparison_table

__all__ = [
    "default_config",
    "PARAMETER_GRID",
    "ALGORITHMS",
    "DISPATCHERS",
    "make_dispatcher",
    "AXES",
    "SweepPoint",
    "run_sweep",
    "run_worked_example",
    "WorkedExampleResult",
    "format_sweep_table",
    "format_comparison_table",
]
