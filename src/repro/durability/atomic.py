"""Atomic file replacement: the one way durable state reaches disk whole."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Replace ``path`` with ``data`` so a crash leaves the old file or the new.

    ``data`` goes to a ``<name>.tmp`` sibling, is flushed and fsync'd,
    and is then renamed over ``path`` (parents are created).  On any
    failure the scratch file is removed and the error re-raised.
    """
    file_path = Path(path)
    scratch = file_path.with_name(file_path.name + ".tmp")
    try:
        file_path.parent.mkdir(parents=True, exist_ok=True)
        with scratch.open("wb") as handle:
            handle.write(data.encode("utf-8") if isinstance(data, str) else data)
            handle.flush()
            os.fsync(handle.fileno())
        scratch.replace(file_path)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise
