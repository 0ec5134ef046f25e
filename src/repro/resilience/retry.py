"""Retry with exponential backoff and deterministic jitter.

The transient-failure points of the runtime — oracle cache IO, session
preparation — share one retry vocabulary: a frozen
:class:`RetryPolicy` describing *how often* and *how patiently* to
retry, applied by :func:`retry_call`.

Backoff is the standard exponential ramp capped at ``max_delay``;
jitter is a symmetric fraction of each delay drawn from a **seeded**
RNG, so a given policy produces the same delay sequence on every run —
the fault-injection property tests depend on retried runs being
reproducible, and production behaviour is no worse for it (the jitter
still decorrelates independent callers because each ``retry_call``
draws its own sequence position).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How a transient-failure point retries.

    Attributes
    ----------
    max_attempts:
        Total tries including the first; ``1`` disables retries.
    base_delay:
        Sleep before the first retry, in seconds.
    multiplier:
        Exponential backoff factor between consecutive delays.
    max_delay:
        Cap on any single delay.
    jitter:
        Symmetric jitter fraction: each delay is scaled by a factor
        drawn uniformly from ``[1 - jitter, 1 + jitter]``.
    retry_on:
        Exception types that count as transient; anything else
        propagates immediately.
    seed:
        Seed of the jitter RNG (deterministic delays per policy use).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    retry_on: tuple[type[BaseException], ...] = field(default=(OSError,))
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")

    def delays(self) -> list[float]:
        """The jittered backoff sequence (one delay per retry)."""
        rng = random.Random(self.seed)
        delays: list[float] = []
        delay = self.base_delay
        for _ in range(self.max_attempts - 1):
            capped = min(delay, self.max_delay)
            factor = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            delays.append(max(0.0, capped * factor))
            delay *= self.multiplier
        return delays


#: Conservative default for small-file IO: three quick tries.
DEFAULT_IO_POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.02, max_delay=0.2, retry_on=(OSError,)
)


def retry_call(
    fn: Callable[..., T],
    *args: Any,
    policy: RetryPolicy = DEFAULT_IO_POLICY,
    on_retry: Callable[[int, BaseException, float], None] | None = None,
    sleep: Callable[[float], None] = time.sleep,
    **kwargs: Any,
) -> T:
    """Call ``fn`` under ``policy``; re-raise the last transient failure.

    ``on_retry(attempt, exc, delay)`` fires before each sleep (attempt
    counts from 1), letting callers count failures or record
    degradation events without wrapping the whole call.
    """
    delays = policy.delays()
    last: BaseException | None = None
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn(*args, **kwargs)
        except policy.retry_on as exc:  # noqa: PERF203 - retry loop
            last = exc
            if attempt >= policy.max_attempts:
                break
            delay = delays[attempt - 1]
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            if delay > 0:
                sleep(delay)
    assert last is not None
    raise last

