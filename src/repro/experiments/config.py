"""Experiment defaults mirroring Table III of the paper.

The paper's parameter grid (Table III, defaults in italics there):

=========================  ================================  =========
Parameter                  Paper values                      Default
=========================  ================================  =========
riders n (NYC)             50K, 75K, 100K, 125K              100K
riders n (CDC, XIA)        30K, 40K, 50K, 60K                50K
workers m                  3K, 4K, 5K, 6K                    5K
deadline scale tau         1.2, 1.4, 1.6, 1.8                1.6
vehicle capacity Kw        2, 3, 4, 5                        4
alpha, beta                1                                 1
=========================  ================================  =========

The reproduction keeps every dimensionless parameter (tau, Kw, alpha,
beta, eta, delta_t, grid size) at the paper's value and scales the
workload size down by ``SCALE_FACTOR`` so a full sweep finishes in
minutes on one core instead of hours on a server.  Sweep ratios (e.g.
n in {0.5, 0.75, 1.0, 1.25} x default) are preserved exactly.
"""

from __future__ import annotations

from ..config import SimulationConfig
from ..datasets.workloads import DATASETS
from ..exceptions import DatasetError, unknown_name

#: Factor by which the paper's order count is divided.
SCALE_FACTOR = 100

#: Factor by which the paper's worker count is divided.  It is smaller
#: than the order scale factor because the reproduction's horizon is two
#: hours rather than a full day: keeping the per-hour load per worker
#: close to the paper's keeps the service-rate regime comparable.
WORKER_SCALE_FACTOR = 50

#: The parameter grid of Table III expressed as sweep values.
PARAMETER_GRID = {
    "order_fractions": (0.50, 0.75, 1.00, 1.25),
    "worker_counts_paper": (3_000, 4_000, 5_000, 6_000),
    "deadline_scales": (1.2, 1.4, 1.6, 1.8),
    "capacities": (2, 3, 4, 5),
    "grid_sizes": (5, 10, 15, 20),
    "watch_windows": (0.4, 0.6, 0.8, 1.0),
    "time_slots": (5.0, 10.0, 20.0, 30.0),
    "loss_weights": (0.0, 0.25, 0.5, 0.75, 1.0),
}


def default_config(dataset: str = "CDC", **overrides) -> SimulationConfig:
    """Table III defaults (scaled) for one dataset, with optional overrides."""
    try:
        _, orders, workers = DATASETS[dataset.upper()]
    except KeyError:
        raise DatasetError(unknown_name("dataset", dataset, DATASETS)) from None
    config = SimulationConfig(
        num_orders=orders // SCALE_FACTOR,
        num_workers=workers // WORKER_SCALE_FACTOR,
        deadline_scale=1.6,
        watch_window_scale=0.8,
        max_capacity=4,
        check_period=10.0,
        time_slot=10.0,
        grid_size=10,
        penalty_factor=10.0,
        horizon=2 * 3600.0,
    )
    if overrides:
        config = config.with_overrides(**overrides)
    return config


def worker_counts_scaled() -> tuple[int, ...]:
    """The worker sweep of Figure 4 scaled by ``WORKER_SCALE_FACTOR``."""
    return tuple(
        m // WORKER_SCALE_FACTOR for m in PARAMETER_GRID["worker_counts_paper"]
    )
