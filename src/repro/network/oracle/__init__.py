"""Pluggable shortest-path distance oracles for the routing hot path.

Two built-in backends trade setup cost against query cost:

==========  =======================  =====================================
name        setup                    point-to-point query
==========  =======================  =====================================
``lazy``    none                     one Dijkstra per unseen source, then
                                     O(1) (LRU-bounded per-source cache)
``ch``      one node contraction     bidirectional *upward* search over
            pass (edge-difference    the contraction hierarchy — tiny
            order, witness           search spaces, no per-node state
            searches)                proportional to the graph
==========  =======================  =====================================

Select a backend through ``ScenarioSpec(oracle=OracleSpec(...))`` or the
``--oracle`` CLI flag; a :class:`~repro.api.Session` builds it once per
network with :func:`configure_oracle`.  By hand, a network is given its
oracle when it is built: ``RoadNetwork(graph, create_oracle("ch", graph))``.

Every backend answers the two questions dispatch asks: a scalar leg
(``travel_time``) and a dense leg block (``leg_matrix``), whose cells
are the scalar answers.  A block picks its searches by shape: lazy runs
forward or reverse Dijkstras, whichever needs fewer new ones, and keeps
an LRU of rows each way; ch scans RPHAST-style target buckets with one
small upward search per source, or, for the wide many-sources-to-one-
target approach block, runs one backward upward search plus a linear
downward sweep (reverse PHAST).  The pair-keyed and all-to-one dict
views live on :class:`~repro.network.graph.RoadNetwork`, over
``leg_matrix``.
"""

from .base import STATS_SCHEMA_VERSION, DistanceOracle, OracleStats
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
from .registry import ORACLE_BACKENDS, configure_oracle, create_oracle
from .spec import OracleSpec

__all__ = [
    "CHOracle",
    "STATS_SCHEMA_VERSION",
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
    "ORACLE_BACKENDS",
    "OracleSpec",
    "configure_oracle",
    "create_oracle",
]
