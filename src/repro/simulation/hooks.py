"""Event-hook protocol for streaming simulation state to consumers.

Downstream code often wants to *watch* a run — collect per-order
traces, feed dashboards, drive custom accounting — without forking the
engine loop.  :class:`SimulationHooks` is the seam for that: subclass
it, override the events you care about, and pass the instance to
:class:`~repro.simulation.engine.Simulator` (or, at the facade level,
to ``repro.api.Session.run(spec, hooks=...)``).

Every method is a no-op by default, so subclasses only implement what
they need.  Hooks fire *outside* the engine's algorithm timer — a slow
hook inflates wall-clock but never the reported Running Time metric —
and they must not mutate the orders, workers or dispatcher state they
are shown.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..durability.checkpoint import RunCheckpoint
    from ..model.order import Order
    from .dispatcher import ServedOrder


class SimulationHooks:
    """Observer interface for the engine's structural events.

    The engine guarantees the ordering a consumer would expect from
    Algorithm 1: ``on_periodic_check`` fires for every asynchronous
    pool check (after the dispatcher's tick ran), ``on_order_arrival``
    fires for every order immediately before it is submitted, and
    ``on_assign`` fires once per served order as soon as its assignment
    is final (whether that happened during a submit or a check).

    Two *run lifecycle* events bracket the engine events when a run is
    executed through the ``repro.api`` facade (``Session.run`` and
    everything built on it, including the ``repro.serve`` service):
    ``on_run_start`` fires once after the scenario's workload and
    oracle are prepared but before the first engine event, and
    ``on_run_end`` fires once after the run's result is assembled.
    Both receive a flat JSON-able mapping (spec echo, algorithm, graph
    hash, order count — the identity a checkpointer stamps into its
    files; the end event adds wall-clock timings and the metric summary
    row), which is what lets file sinks stream a self-describing trace
    without knowing anything about the facade's types.  Code that
    drives :class:`~repro.simulation.engine.Simulator` directly never
    fires them.
    """

    def on_run_start(self, info: Mapping[str, Any]) -> None:
        """A facade-level run is about to start (prepared, not yet ticking)."""

    def on_order_arrival(self, order: "Order", now: float) -> None:
        """An order was released and is about to be submitted."""

    def on_periodic_check(self, now: float) -> None:
        """The asynchronous pool check at time ``now`` just ran."""

    def on_assign(self, served: "ServedOrder") -> None:
        """An order's assignment became final (it will be served)."""

    def on_run_end(self, info: Mapping[str, Any]) -> None:
        """A facade-level run finished and its result is assembled."""

    def checkpoint_interval(self) -> int | None:
        """Ticks between checkpoint offers, or ``None`` for none.

        A non-``None`` interval asks the engine to build a
        :class:`~repro.durability.checkpoint.RunCheckpoint` every that
        many periodic checks (and once more, forced, when a run is
        cancelled mid-flight) and hand it to :meth:`on_checkpoint`.
        Snapshot assembly is cheap — persistence cost lives in the
        observer — but it still only happens when someone asks.
        """
        return None

    def on_checkpoint(self, checkpoint: "RunCheckpoint") -> None:
        """The engine offers a resumable snapshot at a tick boundary.

        Observers that persist it (see
        :class:`~repro.durability.checkpoint.Checkpointer`) must treat
        the dispatcher and collector inside as live, borrowed state:
        serialize synchronously, never mutate, never retain.
        """


class CompositeHooks(SimulationHooks):
    """Fans every event out to several observers, in order.

    The serving layer uses this to feed one run's events to its result
    store and a trace sink (and any caller-supplied hooks) at once; it
    is equally handy anywhere two independent observers must watch one
    run.  ``None`` entries are skipped so call sites can splice in
    optional observers without filtering first.
    """

    def __init__(self, hooks: Iterable[SimulationHooks | None]) -> None:
        self._hooks: tuple[SimulationHooks, ...] = tuple(
            hook for hook in hooks if hook is not None
        )

    def on_run_start(self, info: Mapping[str, Any]) -> None:
        for hook in self._hooks:
            hook.on_run_start(info)

    def on_order_arrival(self, order: "Order", now: float) -> None:
        for hook in self._hooks:
            hook.on_order_arrival(order, now)

    def on_periodic_check(self, now: float) -> None:
        for hook in self._hooks:
            hook.on_periodic_check(now)

    def on_assign(self, served: "ServedOrder") -> None:
        for hook in self._hooks:
            hook.on_assign(served)

    def on_run_end(self, info: Mapping[str, Any]) -> None:
        for hook in self._hooks:
            hook.on_run_end(info)

    def checkpoint_interval(self) -> int | None:
        intervals = [
            interval
            for interval in (hook.checkpoint_interval() for hook in self._hooks)
            if interval is not None
        ]
        return min(intervals) if intervals else None

    def on_checkpoint(self, checkpoint: "RunCheckpoint") -> None:
        for hook in self._hooks:
            hook.on_checkpoint(checkpoint)
