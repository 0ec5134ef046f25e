"""Typed oracle configuration: the one carrier of a backend and its options.

:class:`OracleSpec` is what ``ScenarioSpec.oracle`` and
:func:`~repro.network.oracle.configure_oracle` speak.  It lives in the
network layer, next to the registry it validates against;
``repro.api`` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

from ...exceptions import ConfigurationError, unknown_name
from .registry import ORACLE_BACKENDS


@dataclass(frozen=True)
class OracleSpec:
    """Typed description of the distance-oracle backend and its options.

    One frozen value naming the backend and exactly the options it
    consumes, validated eagerly.  ``None`` on an option means "unset".

    Attributes
    ----------
    backend:
        A key of :data:`~repro.network.oracle.registry.ORACLE_BACKENDS`:
        ``"lazy"`` or ``"ch"``.
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
    cache_dir: str | None = None
    kernel: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.backend, str) or not self.backend:
            raise ConfigurationError(
                f"OracleSpec.backend must be a non-empty string, "
                f"got {self.backend!r}"
            )
        if self.backend not in ORACLE_BACKENDS:
            raise ConfigurationError(
                unknown_name("oracle backend", self.backend, ORACLE_BACKENDS)
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
        _, valid = ORACLE_BACKENDS[self.backend]
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
