"""Typed oracle configuration: the one carrier of a backend and its options.

:class:`OracleSpec` is what ``SimulationConfig.oracle``,
``ScenarioSpec.oracle`` and :func:`~repro.network.oracle.configure_oracle`
all speak.  It lives in the network layer (below ``repro.config``) so the
configuration dataclasses can hold one; ``repro.api`` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

from ...exceptions import ConfigurationError

#: Options each oracle backend actually consumes (beyond ``backend``
#: itself).  :class:`OracleSpec` validates eagerly against this table.
ORACLE_OPTIONS_BY_BACKEND: dict[str, tuple[str, ...]] = {
    "lazy": ("cache_size",),
    "ch": (
        "cache_size",
        "witness_hops",
        "cache_dir",
        "kernel",
    ),
}


@dataclass(frozen=True)
class OracleSpec:
    """Typed description of the distance-oracle backend and its options.

    One frozen value naming the backend and exactly the options it
    consumes, validated eagerly.  ``None`` on any option means "the
    backend's own default constant".

    Attributes
    ----------
    backend:
        Registry name: ``"lazy"`` or ``"ch"``.
    cache_size:
        LRU bound (lazy per-source cache; ch source and target label
        caches, each).
    witness_hops:
        Witness-search hop limit of CH contraction (higher = fewer
        shortcuts, slower setup).
    cache_dir:
        On-disk preprocessing cache directory: the ``ch`` backend
        stores its contraction order and shortcuts there keyed by a
        stable graph hash, so a warm directory lets a fresh process
        skip the build.
    kernel:
        ``"csr"`` only, kept for spec compatibility: the ch backend
        runs one vectorised numpy kernel, and ``"csr"`` names the same
        oracle as leaving the key unset.

    Setting an option the backend does not consume raises a
    :class:`ConfigurationError` listing the backend's valid options at
    construction time.
    """

    backend: str = "lazy"
    cache_size: int | None = None
    witness_hops: int | None = None
    cache_dir: str | None = None
    kernel: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.backend, str) or not self.backend:
            raise ConfigurationError(
                f"OracleSpec.backend must be a non-empty string, "
                f"got {self.backend!r}"
            )
        if self.backend not in ORACLE_OPTIONS_BY_BACKEND:
            raise ConfigurationError(
                f"unknown oracle backend {self.backend!r}; available: "
                f"{tuple(sorted(ORACLE_OPTIONS_BY_BACKEND))}"
            )
        for option in ("cache_size", "witness_hops"):
            value = getattr(self, option)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"OracleSpec.{option} must be an integer, got {value!r}"
                )
            if value < 1:
                raise ConfigurationError(
                    f"OracleSpec.{option} must be at least 1, got {value}"
                )
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise ConfigurationError(
                f"OracleSpec.cache_dir must be a path string, "
                f"got {self.cache_dir!r}"
            )
        if self.kernel is not None and self.kernel != "csr":
            raise ConfigurationError(
                f"OracleSpec.kernel must be one of ('csr',), got "
                f"{self.kernel!r}: csr is the only kernel"
            )
        self._check_backend_options()

    def _check_backend_options(self) -> None:
        """Reject options the named backend does not consume."""
        valid = ORACLE_OPTIONS_BY_BACKEND[self.backend]
        invalid = sorted(set(self.options()) - set(valid))
        if invalid:
            raise ConfigurationError(
                f"oracle backend {self.backend!r} does not take option(s) "
                f"{invalid}; valid options for {self.backend!r}: "
                f"{sorted(valid)}"
            )

    def options(self) -> dict[str, Any]:
        """The set (non-``None``) options, without ``backend``."""
        options = self.to_dict()
        del options["backend"]
        return options

    def resolved(self) -> "OracleSpec":
        """The spec as oracle identity: equal iff the same oracle is asked for.

        ``kernel`` is dropped: ``None`` and ``"csr"`` ask for one oracle.
        """
        return replace(self, kernel=None)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able view; unset (``None``) options are omitted."""
        return {
            spec_field.name: getattr(self, spec_field.name)
            for spec_field in fields(self)
            if getattr(self, spec_field.name) is not None
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OracleSpec":
        """Rebuild from :meth:`to_dict` output; unknown keys fail loudly."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"an OracleSpec document must be a mapping, got "
                f"{type(data).__name__}"
            )
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown OracleSpec keys: {unknown}; known keys: "
                f"{sorted(known)}"
            )
        return cls(**dict(data))
