"""Experiment harness reproducing the paper's evaluation section."""

from .config import default_config, DATASET_DEFAULTS, PARAMETER_GRID
from .runner import ALGORITHMS, make_dispatcher
from .sweeps import AXES, run_sweep
from .ablations import vary_loss_weight
from .worked_example import run_worked_example, WorkedExampleResult
from .reporting import format_sweep_table, format_comparison_table

__all__ = [
    "default_config",
    "DATASET_DEFAULTS",
    "PARAMETER_GRID",
    "ALGORITHMS",
    "make_dispatcher",
    "AXES",
    "run_sweep",
    "vary_loss_weight",
    "run_worked_example",
    "WorkedExampleResult",
    "format_sweep_table",
    "format_comparison_table",
]
