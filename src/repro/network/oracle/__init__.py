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

Select a backend through ``SimulationConfig(oracle=OracleSpec(...))`` or
the ``--oracle`` CLI flag.

Every backend answers the three shapes dispatch asks for: a scalar leg
(``travel_time``), a dense leg block (``leg_matrix``, with the
pair-keyed ``travel_times_many`` beside it) and the many-sources-to-
one-target approach block.  ``travel_times_to(target)`` runs a single
search on the *reversed* graph (lazy keeps an LRU of per-target reverse
distance rows, ch runs a backward upward search plus a linear downward
sweep — reverse PHAST), and ``travel_times_many`` routes many-to-one
blocks through it (ch scans RPHAST-style target buckets with one small
upward search per source).
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
from .registry import (
    ORACLE_BACKENDS,
    available_backends,
    configure_oracle,
    create_oracle,
)
from .spec import ORACLE_OPTIONS_BY_BACKEND, OracleSpec

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
    "ORACLE_OPTIONS_BY_BACKEND",
    "OracleSpec",
    "available_backends",
    "configure_oracle",
    "create_oracle",
]
