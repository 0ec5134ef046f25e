"""Multilevel graph coarsening and the bounded-error overlay oracle.

The enabling layer for city-scale networks: a
:class:`MultilevelCoarsener` shrinks a 10^5-node graph to a few
thousand supernodes (matching-based merges under the spatio-temporal
cost ``D_ij = alpha*tau_ij + beta*temporal_slack``), the
:class:`OverlayOracle` answers full-graph distance queries from the
coarse graph with a *certified* relative error bound (registered as
the ``overlay`` backend).  Hierarchies persist in the oracle cache keyed
by graph signature + coarsening parameters (:mod:`.persist`).
"""

from .coarsener import (
    COARSEN_FORMAT,
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_LEVELS,
    DEFAULT_STOP_RATIO,
    CoarseningHierarchy,
    CoarseningLevel,
    CoarseningParams,
    MultilevelCoarsener,
)
from .overlay import DEFAULT_ERROR_BOUND, OverlayOracle
from .persist import coarsen_cache_path, load_hierarchy, save_hierarchy

__all__ = [
    "COARSEN_FORMAT",
    "DEFAULT_ALPHA",
    "DEFAULT_BETA",
    "DEFAULT_ERROR_BOUND",
    "DEFAULT_LEVELS",
    "DEFAULT_STOP_RATIO",
    "CoarseningHierarchy",
    "CoarseningLevel",
    "CoarseningParams",
    "MultilevelCoarsener",
    "OverlayOracle",
    "coarsen_cache_path",
    "load_hierarchy",
    "save_hierarchy",
]
