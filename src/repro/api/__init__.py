"""``repro.api`` — the single programmatic front door of the reproduction.

Everything a consumer needs to describe, execute and observe scenarios
lives behind this package:

* :class:`ScenarioSpec` — a declarative, serializable description of
  one scenario (network source, workload source, fleet and workload
  shape, dispatcher, oracle backend + options), valid
  JSON/YAML-file material via ``to_dict``/``from_dict`` and
  :func:`load_spec`/:func:`save_spec`;
* :class:`Session` — a reusable execution context that prepares the
  road network and the distance oracle **once** and runs many
  scenarios against them, persisting CH preprocessing to an on-disk
  cache (``oracle_cache_dir``) keyed by a stable graph hash.  Its
  :meth:`~Session.run` (one algorithm) and :meth:`~Session.compare`
  (several algorithms over one workload) are the run verbs; a sweep of
  one parameter is :func:`repro.experiments.sweeps.run_sweep`;
* :class:`RunResult` — structured output (metrics, per-order outcomes,
  oracle statistics, timings, spec echo, graph hash);
* :class:`SimulationHooks` — the event-hook protocol
  (``on_order_arrival`` / ``on_periodic_check`` / ``on_assign``) for
  streaming engine state without forking the loop.

Quick start::

    from repro.api import ScenarioSpec, Session

    spec = ScenarioSpec(dataset="CDC", num_orders=300, num_workers=30,
                        oracle={"backend": "ch"})
    session = Session(oracle_cache_dir=".oracle-cache")
    result = session.run(spec)                     # one algorithm
    table = session.compare(spec, algorithms=("WATTER-expect", "GDP"))
    print(result.metrics.service_rate, result.graph_hash[:12])

The curated re-exports below (demand-model classes, CSV helpers,
reporting, the learning stack) make ``repro.api`` a sufficient import
surface for every bundled example.
"""

from ..config import LearningConfig
from ..core.state import StateEncoder
from ..core.strategies import ConstantThresholdProvider, ThresholdProvider
from ..core.threshold import ThresholdOptimizer, fit_extra_time_distribution
from ..datasets.io import (
    orders_from_csv,
    orders_to_csv,
    workers_from_csv,
    workers_to_csv,
)
from ..datasets.synthetic import CityModel, DemandHotspot, PeakPeriod, Workload
from ..experiments.reporting import format_comparison_table
from ..experiments.runner import ALGORITHMS
from ..learning.trainer import ValueFunctionTrainer, generate_experience
from ..network.generators import grid_city, manhattan_like_city, radial_city
from ..network.grid import GridIndex
from ..network.oracle import OracleSpec, graph_signature
from ..simulation.hooks import CompositeHooks, SimulationHooks
from .session import RunResult, Session
from .spec import NETWORK_SOURCES, WORKLOAD_SOURCES, ScenarioSpec, load_spec, save_spec

__all__ = [
    # the facade proper
    "ScenarioSpec",
    "OracleSpec",
    "Session",
    "RunResult",
    "SimulationHooks",
    "CompositeHooks",
    "load_spec",
    "save_spec",
    "NETWORK_SOURCES",
    "WORKLOAD_SOURCES",
    "ALGORITHMS",
    "graph_signature",
    # curated re-exports for notebooks and the bundled examples
    "CityModel",
    "DemandHotspot",
    "PeakPeriod",
    "Workload",
    "orders_to_csv",
    "orders_from_csv",
    "workers_to_csv",
    "workers_from_csv",
    "format_comparison_table",
    "grid_city",
    "manhattan_like_city",
    "radial_city",
    "GridIndex",
    "StateEncoder",
    "LearningConfig",
    "ThresholdProvider",
    "ConstantThresholdProvider",
    "ThresholdOptimizer",
    "fit_extra_time_distribution",
    "ValueFunctionTrainer",
    "generate_experience",
]
