"""Advisory inter-process file locks.

Two serve processes sharing one ``--oracle-cache`` must build each CH
contraction exactly once.  :class:`InterProcessLock` is the mutual
exclusion for that: the winner builds while the loser blocks, then
warm-loads what the winner saved.

The lock is ``fcntl.flock`` on a sidecar ``*.lock`` file.  The kernel
releases it when the holder dies — even on ``kill -9`` — so there is no
stale state to reason about and nothing to take over.

An acquire times out with :class:`LockTimeout` rather than blocking
unboundedly, and fires the ``cache.lock`` fault point so chaos
schedules can starve or fail lock acquisition deterministically.
"""

from __future__ import annotations

import errno
import fcntl
import os
import socket
import time
from pathlib import Path

from ..exceptions import ReproError
from ..resilience.faults import fault_point

#: Poll interval while waiting for a busy lock.
_POLL_SECONDS = 0.05


class LockTimeout(ReproError):
    """The lock stayed busy for longer than the acquire timeout."""


class InterProcessLock:
    """Advisory cross-process lock on a sidecar file.

    Parameters
    ----------
    path:
        The lock file itself (conventionally ``<protected>.lock``).
    timeout:
        Seconds to wait for a busy lock before :class:`LockTimeout`
        (``None`` = wait forever).
    """

    def __init__(self, path: str | Path, *, timeout: float | None = 60.0) -> None:
        self.path = Path(path)
        self.timeout = timeout
        self._fd: int | None = None

    # ------------------------------------------------------------------
    # context manager
    # ------------------------------------------------------------------
    def __enter__(self) -> "InterProcessLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    @property
    def held(self) -> bool:
        return self._fd is not None

    # ------------------------------------------------------------------
    # acquire / release
    # ------------------------------------------------------------------
    def acquire(self) -> None:
        if self._fd is not None:
            raise ReproError(f"lock {self.path} is already held by this handle")
        fault_point("cache.lock")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError as exc:
                    if exc.errno not in (errno.EACCES, errno.EAGAIN):
                        raise
                    self._wait_or_timeout(deadline)
            os.ftruncate(fd, 0)
            os.write(fd, f"{os.getpid()}@{socket.gethostname()}\n".encode("utf-8"))
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd

    def release(self) -> None:
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        # Closing the descriptor drops the flock atomically.
        os.close(fd)

    def _wait_or_timeout(self, deadline: float | None) -> None:
        if deadline is not None and time.monotonic() >= deadline:
            raise LockTimeout(
                f"lock {self.path} stayed busy for {self.timeout:.1f}s"
            )
        time.sleep(_POLL_SECONDS)
