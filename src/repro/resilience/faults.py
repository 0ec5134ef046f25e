"""Deterministic fault injection: seeded failure schedules for chaos tests.

The property the resilience layer must hold — *under faults, a run
either reproduces its fault-free metrics exactly or fails with a
structured, attributed error; it never hangs and never silently drops
orders* — is only testable if faults are reproducible.  This module
makes them so: a :class:`FaultInjector` carries a **schedule** mapping
named fault *sites* to what happens on which call, and the runtime's
transient-failure points call :func:`fault_point` (a no-op unless an
injector is installed) at those sites.

Instrumented sites today:

==========================  ================================================
site                        where it fires
==========================  ================================================
``oracle.cache.load``       each CH cache-file read attempt
``oracle.cache.save``       each CH cache-file write attempt
``oracle.cache.file``       corruption hook: garbles the cache file on disk
``oracle.ch.build``         each from-scratch CH contraction
``session.prepare``         each serve-layer session preparation attempt
``journal.append``          each write-ahead run-journal append attempt
``checkpoint.write``        each run-checkpoint file write attempt
``cache.lock``              each cross-process cache-lock acquisition
==========================  ================================================

Per-site schedule keys: ``fail_calls`` (1-based call numbers that
raise), ``fail_first`` (shorthand for calls ``1..n``), ``exception``
(``"os"`` -> :class:`InjectedOSError`, ``"runtime"`` ->
:class:`InjectedRuntimeError`), ``latency_seconds`` (sleep injected on
every call), and ``corrupt_calls`` (for corruption hooks: which
invocations garble the file).  Injected exceptions carry ``site`` and
``call`` so errors stay attributable end to end.

Install an injector process-wide with :func:`install_injector` /
:func:`uninstall_injector`, scoped with :func:`injected_faults`, or
from the CLI with ``repro serve --inject-faults schedule.json``.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from contextlib import contextmanager


class InjectedOSError(OSError):
    """An injected transient IO failure, attributed to its fault site."""

    def __init__(self, site: str, call: int, message: str | None = None) -> None:
        detail = message or f"injected fault at {site!r} (call {call})"
        super().__init__(detail)
        self.site = site
        self.call = call


class InjectedRuntimeError(RuntimeError):
    """An injected non-IO failure, attributed to its fault site."""

    def __init__(self, site: str, call: int, message: str | None = None) -> None:
        detail = message or f"injected fault at {site!r} (call {call})"
        super().__init__(detail)
        self.site = site
        self.call = call


_EXCEPTION_KINDS = {"os": InjectedOSError, "runtime": InjectedRuntimeError}

_SITE_KEYS = frozenset(
    {
        "fail_calls",
        "fail_first",
        "exception",
        "message",
        "latency_seconds",
        "corrupt_calls",
        "corrupt_first",
    }
)

def _call_set(value: Any, key: str, site: str) -> frozenset[int]:
    if value is None:
        return frozenset()
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, int) and not isinstance(item, bool) and item >= 1
        for item in value
    ):
        raise ValueError(
            f"fault site {site!r}: {key} must be a list of 1-based call "
            f"numbers, got {value!r}"
        )
    return frozenset(value)


@dataclass(frozen=True)
class SiteSchedule:
    """What happens at one fault site, per 1-based call number."""

    fail_calls: frozenset[int] = field(default_factory=frozenset)
    exception: str = "os"
    message: str | None = None
    latency_seconds: float = 0.0
    corrupt_calls: frozenset[int] = field(default_factory=frozenset)

    @classmethod
    def from_dict(cls, site: str, data: Mapping[str, Any]) -> "SiteSchedule":
        if not isinstance(data, Mapping):
            raise ValueError(
                f"fault site {site!r}: schedule must be a mapping, got "
                f"{type(data).__name__}"
            )
        unknown = sorted(set(data) - _SITE_KEYS)
        if unknown:
            raise ValueError(
                f"fault site {site!r}: unknown schedule keys {unknown}; "
                f"expected {sorted(_SITE_KEYS)}"
            )
        fail_calls = set(_call_set(data.get("fail_calls"), "fail_calls", site))
        first = data.get("fail_first")
        if first is not None:
            if not isinstance(first, int) or isinstance(first, bool) or first < 0:
                raise ValueError(
                    f"fault site {site!r}: fail_first must be a non-negative "
                    f"integer, got {first!r}"
                )
            fail_calls.update(range(1, first + 1))
        corrupt_calls = set(
            _call_set(data.get("corrupt_calls"), "corrupt_calls", site)
        )
        corrupt_first = data.get("corrupt_first")
        if corrupt_first is not None:
            if (
                not isinstance(corrupt_first, int)
                or isinstance(corrupt_first, bool)
                or corrupt_first < 0
            ):
                raise ValueError(
                    f"fault site {site!r}: corrupt_first must be a "
                    f"non-negative integer, got {corrupt_first!r}"
                )
            corrupt_calls.update(range(1, corrupt_first + 1))
        exception = data.get("exception", "os")
        if exception not in _EXCEPTION_KINDS:
            raise ValueError(
                f"fault site {site!r}: exception must be one of "
                f"{sorted(_EXCEPTION_KINDS)}, got {exception!r}"
            )
        latency = data.get("latency_seconds", 0.0)
        if (
            isinstance(latency, bool)
            or not isinstance(latency, (int, float))
            or latency < 0
        ):
            raise ValueError(
                f"fault site {site!r}: latency_seconds must be a "
                f"non-negative number, got {latency!r}"
            )
        message = data.get("message")
        if message is not None and not isinstance(message, str):
            raise ValueError(
                f"fault site {site!r}: message must be a string, got {message!r}"
            )
        return cls(
            fail_calls=frozenset(fail_calls),
            exception=exception,
            message=message,
            latency_seconds=float(latency),
            corrupt_calls=frozenset(corrupt_calls),
        )


class FaultInjector:
    """Seeded, site-keyed fault schedule with per-process call counters."""

    def __init__(
        self, schedule: Mapping[str, Mapping[str, Any]], *, seed: int = 0
    ) -> None:
        if not isinstance(schedule, Mapping):
            raise ValueError(
                f"a fault schedule must be a mapping of site -> spec, got "
                f"{type(schedule).__name__}"
            )
        self._sites = {
            site: SiteSchedule.from_dict(site, spec)
            for site, spec in schedule.items()
        }
        self._seed = seed
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultInjector":
        """Build from a schedule document.

        Accepts either a flat ``{site: spec}`` mapping or the wrapper
        ``{"seed": n, "faults": {site: spec}, ...}`` (extra top-level
        keys such as ``"expect"`` are ignored, so committed schedule
        files can carry test metadata).
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                f"a fault schedule document must be a mapping, got "
                f"{type(data).__name__}"
            )
        if "faults" in data:
            faults = data["faults"]
            seed = data.get("seed", 0)
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ValueError(f"fault schedule seed must be an int, got {seed!r}")
            return cls(faults, seed=seed)
        return cls(data)

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultInjector":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    def _next_call(self, site: str) -> int:
        with self._lock:
            call = self._counts.get(site, 0) + 1
            self._counts[site] = call
            return call

    def fire(self, site: str) -> None:
        """One instrumented call passed this site: maybe fault it.

        Order of effects on a scheduled call: injected latency first,
        then the scheduled exception.
        """
        call = self._next_call(site)
        schedule = self._sites.get(site)
        if schedule is None:
            return
        if schedule.latency_seconds > 0:
            time.sleep(schedule.latency_seconds)
        if call in schedule.fail_calls:
            raise _EXCEPTION_KINDS[schedule.exception](
                site, call, schedule.message
            )

    def corrupt_file(self, site: str, path: str | Path) -> bool:
        """Garble ``path`` if this invocation of ``site`` is scheduled.

        Writes seeded garbage (deterministic per site + seed) over the
        file, returning whether corruption happened.  Missing files are
        never created — corruption models bit rot, not new data.
        """
        call = self._next_call(site)
        schedule = self._sites.get(site)
        if schedule is None or call not in schedule.corrupt_calls:
            return False
        file_path = Path(path)
        if not file_path.exists():
            return False
        rng_seed = self._seed ^ zlib.crc32(site.encode("utf-8")) ^ call
        import random

        rng = random.Random(rng_seed)
        garbage = bytes(rng.randrange(256) for _ in range(64))
        file_path.write_bytes(b"\x00corrupt\x00" + garbage)
        return True

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Per-site call counts seen so far (this process)."""
        with self._lock:
            return dict(self._counts)

    def sites(self) -> tuple[str, ...]:
        return tuple(sorted(self._sites))


# ----------------------------------------------------------------------
# process-wide installation (inherited by forked workers)
# ----------------------------------------------------------------------
_ACTIVE: FaultInjector | None = None


def install_injector(injector: FaultInjector) -> None:
    """Install a process-wide injector (forked children inherit it)."""
    global _ACTIVE
    _ACTIVE = injector


def uninstall_injector() -> None:
    global _ACTIVE
    _ACTIVE = None


def active_injector() -> FaultInjector | None:
    return _ACTIVE


@contextmanager
def injected_faults(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Scoped installation for tests: installs, yields, uninstalls."""
    install_injector(injector)
    try:
        yield injector
    finally:
        uninstall_injector()


def fault_point(site: str) -> None:
    """Hook the runtime plants at transient-failure points (no-op idle)."""
    injector = _ACTIVE
    if injector is not None:
        injector.fire(site)


def corrupt_file_if_scheduled(site: str, path: str | Path) -> bool:
    """Hook planted before cache reads: maybe garble the file first."""
    injector = _ACTIVE
    if injector is not None:
        return injector.corrupt_file(site, path)
    return False
