"""Pluggable shortest-path distance oracles for the routing hot path.

Three built-in backends cover the setup-cost/query-cost spectrum:

==========  =======================  =====================================
name        setup                    point-to-point query
==========  =======================  =====================================
``lazy``    none                     one Dijkstra per unseen source, then
                                     O(1) (LRU-bounded per-source cache)
``matrix``  one Dijkstra per         O(1) dense-row lookup, batched
            active source            refresh for unseen sources
``ch``      one node contraction     bidirectional *upward* search over
            pass (edge-difference    the contraction hierarchy — tiny
            order, witness           search spaces, no per-node state
            searches)                proportional to the graph
==========  =======================  =====================================

Select a backend through ``SimulationConfig(oracle=OracleSpec(...))``, the
``--oracle`` CLI flag, or directly via ``RoadNetwork.use_backend(name)``.

All backends also answer the dispatch hot path's many-sources-to-
one-target shape natively: ``travel_times_to(target)`` runs a single
search on the *reversed* graph (lazy keeps an LRU of per-target reverse
distance maps, matrix reads the target's column, ch runs a backward
upward search plus a linear downward sweep — reverse PHAST),
and ``travel_times_many`` routes many-to-one blocks through it (ch
scans RPHAST-style target buckets with one small upward search per
source).  The ``ch`` backend can also unpack its shortcuts back into
original edges, so ``RoadNetwork.shortest_path`` routes through it
instead of rerunning Dijkstra.
"""

from .base import STATS_SCHEMA_VERSION, CacheInfo, DistanceOracle, OracleStats
from .csr import HAVE_NUMPY, KERNELS, resolve_kernel
from .cache import (
    CacheLoadOutcome,
    ch_cache_path,
    graph_signature,
    load_ch_preprocessing,
    load_ch_preprocessing_outcome,
    quarantine_cache_file,
    save_ch_preprocessing,
)
from .ch import CHOracle
from .lazy import LazyDijkstraOracle
from .matrix import MatrixOracle
from .registry import (
    ORACLE_BACKENDS,
    available_backends,
    configure_oracle,
    create_oracle,
    register_oracle,
)
from .spec import ORACLE_OPTIONS_BY_BACKEND, OracleSpec

__all__ = [
    "CacheInfo",
    "CHOracle",
    "HAVE_NUMPY",
    "KERNELS",
    "STATS_SCHEMA_VERSION",
    "resolve_kernel",
    "CacheLoadOutcome",
    "ch_cache_path",
    "graph_signature",
    "load_ch_preprocessing",
    "load_ch_preprocessing_outcome",
    "quarantine_cache_file",
    "save_ch_preprocessing",
    "DistanceOracle",
    "OracleStats",
    "LazyDijkstraOracle",
    "MatrixOracle",
    "ORACLE_BACKENDS",
    "ORACLE_OPTIONS_BY_BACKEND",
    "OracleSpec",
    "available_backends",
    "configure_oracle",
    "create_oracle",
    "register_oracle",
]
