"""Backend registry: names -> oracle factories, plus the spec-driven build.

The registry is what makes backends swappable without touching any
dispatcher code: ``ScenarioSpec.oracle`` (an :class:`OracleSpec`; the
CLI's ``--oracle`` flag sets its ``backend``) names a backend, and
:func:`configure_oracle` builds it once for the ``Session`` view that
wraps it, ``RoadNetwork(graph, oracle)``.  The two backends — ``lazy``
and the contraction-hierarchy ``ch`` — are a fixed table:
:data:`ORACLE_BACKENDS`.
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

from ...exceptions import ConfigurationError, unknown_name
from ...resilience.degradation import DegradationLog
from ...resilience.faults import fault_point
from .base import DistanceOracle
from .ch import DEFAULT_WITNESS_HOP_LIMIT, CHOracle
from .lazy import LazyDijkstraOracle

if TYPE_CHECKING:  # pragma: no cover
    from ..graph import RoadGraph
    from .spec import OracleSpec

#: Factory signature: ``(graph, *, cache_dir, degradations)`` ->
#: DistanceOracle; a factory ignores the keywords it has no use for.
OracleFactory = Callable[..., DistanceOracle]


def _make_lazy(graph: "RoadGraph", **_unused: object) -> LazyDijkstraOracle:
    return LazyDijkstraOracle(graph)


class _CHCacheAttempt:
    """Mutable accounting of one ``_make_ch`` disk-cache interaction."""

    def __init__(self) -> None:
        self.load_failures = 0
        self.corrupt = False
        self.cache_hit = False
        self.lock_timed_out = False


def _ch_from_cache(
    graph: "RoadGraph", path, attempt: _CHCacheAttempt
) -> CHOracle | None:
    """One validating load attempt, folded into ``attempt``'s accounting."""
    from .cache import load_ch_preprocessing_outcome, quarantine_cache_file

    outcome = load_ch_preprocessing_outcome(path, graph, DEFAULT_WITNESS_HOP_LIMIT)
    attempt.load_failures += outcome.load_failures
    attempt.corrupt = attempt.corrupt or outcome.corrupt
    if outcome.payload is None:
        return None
    try:
        oracle = CHOracle(graph, preprocessing=outcome.payload)
    except ValueError:
        # Parsed but semantically unusable: quarantine like any other
        # rotten payload and rebuild.
        attempt.load_failures += 1
        attempt.corrupt = True
        quarantine_cache_file(path)
        return None
    attempt.cache_hit = True
    return oracle


def _ch_build_and_save(
    graph: "RoadGraph",
    path,
    degradations: DegradationLog | None,
) -> CHOracle:
    """Contract from scratch and persist the products (best effort)."""
    from .cache import save_ch_preprocessing

    fault_point("oracle.ch.build")
    oracle = CHOracle(graph)
    try:
        save_ch_preprocessing(path, oracle, graph)
    except OSError as exc:
        # Best effort: a run never fails because its cache could
        # not be written — but the miss is recorded.
        if degradations is not None:
            degradations.record(
                "oracle.cache",
                "persist",
                "skip",
                f"CH cache save failed after retries: {exc}",
            )
    return oracle


def _make_ch(
    graph: "RoadGraph",
    *,
    cache_dir: str | None,
    degradations: DegradationLog | None,
) -> CHOracle:
    if not cache_dir:
        fault_point("oracle.ch.build")
        return CHOracle(graph)
    # Disk-backed preprocessing: a warm cache directory lets this (and
    # every later) process skip the contraction pass entirely.  A stale
    # or corrupted payload yields a miss (rotten files are quarantined
    # to <name>.corrupt by the cache layer), in which case the graph is
    # contracted from scratch and the file rewritten.  A corrupt cache
    # therefore costs one rebuild — it never changes the backend.
    from ...durability.locks import InterProcessLock, LockTimeout
    from .cache import ch_cache_path

    path = ch_cache_path(cache_dir, graph, DEFAULT_WITNESS_HOP_LIMIT)
    attempt = _CHCacheAttempt()
    # Fast path first, entirely lock-free: readers of a warm cache never
    # contend with each other (or with anyone) — the payload file is
    # only ever replaced atomically, so a validating load either sees a
    # complete payload or misses.
    oracle = _ch_from_cache(graph, path, attempt)
    if oracle is None:
        # Build under a cross-process lock so N processes sharing one
        # cache directory contract the graph exactly once: the winner
        # builds and saves, the losers block and then warm-load what the
        # winner persisted (the second load below).  The timeout is
        # generous: a loser waits out a whole contraction.
        lock = InterProcessLock(path.with_name(path.name + ".lock"), timeout=600.0)
        try:
            with lock:
                oracle = _ch_from_cache(graph, path, attempt)
                if oracle is None:
                    oracle = _ch_build_and_save(graph, path, degradations)
        except (LockTimeout, OSError) as exc:
            # Availability over the exactly-once economy: a wedged (or
            # glacial) holder — or a lock file that cannot even be
            # created (permissions, injected ``cache.lock`` faults) —
            # must not keep this process from serving.  Build locally
            # without the lock and record the fallback.
            attempt.lock_timed_out = True
            if degradations is not None:
                degradations.record(
                    "cache.lock",
                    "locked-build",
                    "unlocked-rebuild",
                    f"CH cache lock not acquired ({exc}); contracting "
                    f"locally without cross-process exclusion",
                )
            oracle = _ch_build_and_save(graph, path, degradations)
    if attempt.corrupt and degradations is not None:
        degradations.record(
            "oracle.cache",
            "persisted-preprocessing",
            "rebuild",
            f"corrupt CH cache file {path.name!r} quarantined; "
            f"re-contracting from scratch",
        )
    oracle.cache_load_failures = attempt.load_failures
    oracle.cache_hit = attempt.cache_hit
    oracle.cache_lock_timed_out = attempt.lock_timed_out
    return oracle


#: Backend name -> (factory, the :class:`OracleSpec` options it reads).
#: The keys are the valid backend names: :class:`OracleSpec` checks a
#: name against them once, and later code indexes the table.
ORACLE_BACKENDS: dict[str, tuple[OracleFactory, tuple[str, ...]]] = {
    "lazy": (_make_lazy, ()),
    "ch": (_make_ch, ("cache_dir", "kernel")),
}


def create_oracle(
    name: str,
    graph: "RoadGraph",
    *,
    cache_dir: str | None = None,
    degradations: DegradationLog | None = None,
) -> DistanceOracle:
    """Instantiate a registered backend over ``graph``.

    ``cache_dir`` persists ``ch`` preprocessing on disk; ``degradations``
    is the run's :class:`~repro.resilience.degradation.DegradationLog`,
    into which factories record recoverable fallbacks (corrupt cache ->
    rebuild, failed save -> skip).  A backend ignores the keywords it
    has no use for; an unknown backend name raises
    :class:`ConfigurationError`.
    """
    try:
        factory, _ = ORACLE_BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            unknown_name("oracle backend", name, ORACLE_BACKENDS)
        ) from None
    return factory(graph, cache_dir=cache_dir, degradations=degradations)


def configure_oracle(
    graph: "RoadGraph",
    spec: "OracleSpec",
    degradations: DegradationLog | None = None,
) -> DistanceOracle:
    """Build the oracle a resolved ``spec`` names over ``graph``.

    Parameters
    ----------
    graph:
        The graph whose queries the oracle answers.
    spec:
        The resolved :class:`OracleSpec` (:meth:`OracleSpec.resolved`).
    degradations:
        The run's degradation log.  When the requested backend's
        *construction itself* fails (not a config error — e.g. CH
        contraction dying on a pathological graph), the always-buildable
        ``lazy`` backend is built instead and the fallback recorded;
        without a log, the construction error propagates unchanged.

    The caller keeps what this returns: a ``Session`` wraps it in the
    spec's view, so a degraded stand-in serves every later request for
    the failed backend without re-running the failing build.
    """
    try:
        return create_oracle(
            spec.backend,
            graph,
            cache_dir=spec.cache_dir,
            degradations=degradations,
        )
    except ConfigurationError:
        raise
    except Exception as exc:  # noqa: BLE001 - degrade, record, keep serving
        if degradations is None or spec.backend == "lazy":
            raise
        degradations.record(
            "oracle.backend",
            spec.backend,
            "lazy",
            f"{spec.backend!r} oracle construction failed "
            f"({type(exc).__name__}: {exc}); serving exact answers from "
            f"the lazy backend",
        )
        return LazyDijkstraOracle(graph)
