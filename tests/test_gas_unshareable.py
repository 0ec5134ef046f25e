"""GAS's memory of unshareable pairs against a GAS that plans every pair.

``GASDispatcher`` remembers each pair whose plan came back infeasible
and skips it in later batches while both orders wait.  The reference
here is the enumeration without that memory — every pair of the window
planned on every batch, with the deadline filter it once had — and the
two must give the same candidate list on every batch and ``==`` outcome
rows, on ``lazy`` and on ``ch``, also when the run is cut at a
checkpoint and resumed (the set is a cache a checkpoint leaves out).
After every batch and after the flush, the set holds pairs of buffered
orders only.
"""

from __future__ import annotations

import contextlib
import itertools
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.experiments.runner as runner
from repro.api import ScenarioSpec, Session
from repro.baselines.gas import _ENUMERATION_CAP, GASDispatcher
from repro.durability import load_checkpoint
from repro.model.group import Group
from tests.conftest import interrupt_and_checkpoint

#: The recording dispatchers built or restored since the last clear,
#: newest last: how a test reaches the one a session ran.
_BUILT: list = []


class _Records:
    """Records each batch's candidates and checks the set's bound."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.batches: list = []
        self.set_peak = 0
        _BUILT.append(self)

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        _BUILT.append(self)

    def _enumerate_groups(self, now):
        groups = super()._enumerate_groups(now)
        self.batches.append(
            (
                now,
                [
                    (
                        utility,
                        tuple(order.order_id for order in group.orders),
                        tuple(
                            (stop.node, stop.kind, stop.order_id)
                            for stop in group.route.stops
                        ),
                    )
                    for utility, group in groups
                ],
            )
        )
        return groups

    def _check_set(self) -> None:
        buffered = {order.order_id for order in self._buffer}
        for first, second in self._unshareable:
            assert first in buffered and second in buffered, (first, second)
        self.set_peak = max(self.set_peak, len(self._unshareable))

    def _process_batch(self, now):
        result = super()._process_batch(now)
        self._check_set()
        return result

    def flush(self, now):
        result = super().flush(now)
        self._check_set()
        assert not self._unshareable
        return result


class _Gas(_Records, GASDispatcher):
    pass


class _EveryPair(GASDispatcher):
    """The enumeration without the set: every pair of the window is
    planned on every batch, behind the deadline filter it once had."""

    def _enumerate_groups(self, now):
        groups = []
        buffer = sorted(self._buffer, key=lambda order: order.release_time)
        window = buffer[:_ENUMERATION_CAP]
        for order in buffer:
            planned = self._planner.try_plan([order], self._config.max_capacity, now)
            if planned is None:
                continue
            groups.append(
                (
                    0.0,
                    Group(
                        orders=(order,),
                        route=planned.route,
                        created_at=now,
                        weights=self._config.weights,
                    ),
                )
            )
        for size in range(2, self._max_group + 1):
            for combo in itertools.combinations(window, size):
                if sum(order.riders for order in combo) > self._config.max_capacity:
                    continue
                if not all(
                    order.deadline - now - order.shortest_time >= 0 for order in combo
                ):
                    continue
                planned = self._planner.try_plan(
                    list(combo), self._config.max_capacity, now
                )
                if planned is None:
                    continue
                group = Group(
                    orders=tuple(combo),
                    route=planned.route,
                    created_at=now,
                    weights=self._config.weights,
                )
                individual = sum(order.shortest_time for order in combo)
                groups.append((individual - planned.total_travel_time, group))
        return groups


class _Reference(_Records, _EveryPair):
    pass


@contextlib.contextmanager
def _gas_is(dispatcher_class):
    """Sessions build ``dispatcher_class`` for ``"GAS"`` inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(
            runner.DISPATCHERS,
            "GAS",
            lambda planner, fleet, config, _: dispatcher_class(planner, fleet, config),
        )
        yield


def _run(dispatcher_class, spec: ScenarioSpec, cut: int | None = None):
    """``(outcomes, recorder)`` of ``spec`` run by ``dispatcher_class``,
    cut at tick ``cut`` and resumed from its checkpoint when given.

    Order and worker ids are renumbered by position in the workload, so
    runs on separately generated copies of one workload compare.
    """
    _BUILT.clear()
    with _gas_is(dispatcher_class):
        session = Session()  # a cold view: each run asks the oracle afresh
        if cut is None:
            result = session.run(spec)
        else:
            with tempfile.TemporaryDirectory() as scratch:
                path = Path(scratch) / "gas.ckpt"
                interrupt_and_checkpoint(session, spec, path, cut=cut, interval=2)
                result = session.run(spec, resume_from=path)
    workload = session.workload(spec)
    first = workload.orders[0].order_id
    worker = {w.worker_id: index for index, w in enumerate(workload.workers)}
    recorder = _BUILT[-1]
    batches = [
        (
            now,
            [
                (
                    utility,
                    tuple(order_id - first for order_id in ids),
                    tuple((node, kind, order_id - first) for node, kind, order_id in stops),
                )
                for utility, ids, stops in groups
            ],
        )
        for now, groups in recorder.batches
    ]
    outcomes = [
        replace(
            outcome,
            order_id=outcome.order_id - first,
            worker_id=worker.get(outcome.worker_id),
        )
        for outcome in result.outcomes
    ]
    return outcomes, batches, recorder


@st.composite
def _specs(draw):
    return ScenarioSpec(
        network="grid",
        grid_rows=draw(st.integers(3, 6)),
        grid_cols=draw(st.integers(3, 6)),
        grid_edge_travel_time=60.0,
        num_orders=draw(st.integers(6, 40)),
        num_workers=draw(st.integers(1, 5)),
        horizon=600.0,
        seed=draw(st.integers(0, 10_000)),
        deadline_scale=draw(st.sampled_from([1.2, 1.5, 2.0])),
        algorithm="GAS",
        oracle={"backend": draw(st.sampled_from(["lazy", "ch"]))},
    )


@given(spec=_specs(), cut=st.none() | st.integers(1, 50))
@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_the_set_moves_no_candidate_and_no_outcome(spec, cut):
    want, want_batches, reference = _run(_Reference, spec)
    got, got_batches, _ = _run(_Gas, spec, cut)
    assert got_batches == want_batches
    assert got == want
    assert not reference.set_peak


#: Tight deadlines, few workers: most pairs never share.
_CROWDED = ScenarioSpec(
    network="grid", grid_rows=5, grid_cols=5, grid_edge_travel_time=60.0,
    num_orders=60, num_workers=2, horizon=600.0, seed=3,
    deadline_scale=1.2, algorithm="GAS", oracle={"backend": "lazy"},
)


def test_the_set_is_used():
    want, want_batches, _ = _run(_Reference, _CROWDED)
    got, got_batches, gas = _run(_Gas, _CROWDED)
    assert got == want and got_batches == want_batches
    assert gas.set_peak > 0


def test_a_checkpoint_leaves_the_set_out(tmp_path):
    path = tmp_path / "gas.ckpt"
    _BUILT.clear()
    with _gas_is(_Gas):
        session = Session()
        interrupt_and_checkpoint(session, _CROWDED, path, cut=20, interval=2)
    assert _BUILT[-1]._unshareable
    network = session.workload(_CROWDED).network
    assert load_checkpoint(path, network=network).dispatcher._unshareable == set()
