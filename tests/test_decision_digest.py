"""Decision digests: every dispatch decision of twenty-five small runs, pinned.

A run's *decisions* are its per-order outcomes: served or rejected, when
and by which worker, in a group of how many, and the response, detour and
penalty that follow.  :func:`decision_digest` takes one sha256 over all of
them, so "quality bit-identical" is a Tier-1 assertion rather than three
sums on four benchmark workloads: a change that moves one decision moves a
digest, even where the totals happen to stay equal.

* Matrix: the six dispatchers x the ``lazy`` and ``ch`` backends x two
  scenarios (CDC and an 8x8 grid, 60 orders / 12 workers over 30 minutes,
  seed 7).
* ``ch`` rows hash the discrete fields only (order, served, worker, group
  size): CH sums shortcut weights, so its times may differ from a
  Dijkstra's in the last ulps.  ``lazy`` rows hash every field, floats as
  ``float.hex()``.
* Order and worker ids come from process-global counters, so a row names
  the order by its index in ``workload.orders`` and the worker by its
  index in ``workload.workers``; rows are hashed in order-index order.
* One more row runs WATTER-expect with ``use_rl=True`` (grid, ``lazy``),
  so the Section VI bootstrap (experience generation, value-network
  training) is pinned through the decisions it steers.
* A run resumed from a mid-run checkpoint and a run served through
  :class:`~repro.serve.ScenarioService` hash to their direct run's pin.

Every run uses a fresh :class:`Session`: ``lazy`` may price a pair off a
forward or a reverse row, which can differ in the last bit, so a run's
floats must not depend on which runs warmed the oracle before it.

A change that is meant to move decisions re-pins the table and says so in
CHANGES.md.  Regenerate it with::

    PYTHONPATH=src python -m tests.test_decision_digest
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import pytest

from repro.api import OracleSpec, RunResult, ScenarioSpec, Session
from repro.datasets.synthetic import Workload
from repro.model.order import OrderOutcome
from repro.serve import COMPLETED, ScenarioService
from tests.conftest import interrupt_and_checkpoint

SCENARIOS = {
    "cdc": dict(dataset="CDC", horizon=1800.0),
    "grid": dict(network="grid", grid_rows=8, grid_cols=8, horizon=1800.0),
}
ALGORITHMS = (
    "WATTER-expect",
    "WATTER-online",
    "WATTER-timeout",
    "GDP",
    "GAS",
    "NonSharing",
)
BACKENDS = ("lazy", "ch")

#: ``scenario/backend/algorithm`` -> sha256 of the run's decisions.
PINNED = {
    "cdc/lazy/WATTER-expect": "a61b14d40690d2d4a11c50c119e5d33b48f03ec7b39a88a6cc9a63c7be577bb9",
    "cdc/lazy/WATTER-online": "c5de5085a45c5d8cf9d762ed777b7a4819565ed6d73cac5ac1b36c08cc75333c",
    "cdc/lazy/WATTER-timeout": "7dc572b3231d50799bef87b4caacabf9082427e6d844ff7e217b3ad4e0fb9799",
    "cdc/lazy/GDP": "9b475547813b9d3324593bd7cc237869fb7a2aeaf0c8765bbbd6c47956644270",
    "cdc/lazy/GAS": "54147f75d03db7122221152ab6ba93584298c0c32e1267095fd75ea47af3700e",
    "cdc/lazy/NonSharing": "dfe3bc5a0581ecf95bde51d0532f4bbbde5158d28ddf02fbeec5f4354961284b",
    "cdc/ch/WATTER-expect": "97d9ccda9c93da989efe0741b02c16857678cb75e84efadfe1a49ff3aa96e58e",
    "cdc/ch/WATTER-online": "aa9645b5fbabbec5c2810529442afb9a7c4b8b86b169d620c19cd9ed9f3fb4ca",
    "cdc/ch/WATTER-timeout": "035480b3865442a3db483fbd5245ae652f80c0505c0af1f2323dbc9a6738cb6c",
    "cdc/ch/GDP": "889c5d96ca40fcc645edd38420715461f590d78cdd1c1677a2603e6825a663c2",
    "cdc/ch/GAS": "ea31ec5afb901294f8fe611fb19dd517141a3e60d3a5bea5d6424251d06f268d",
    "cdc/ch/NonSharing": "62e6e05387928c50f59c07cc27a5871d7a29a62db2460e5850acfeb2a9c77975",
    "grid/lazy/WATTER-expect": "0316c4646e7d3e9875be0062f844493d31bc468ef900e5583fab30cc52c948bd",
    "grid/lazy/WATTER-online": "de508fc592d825266948f8fd778570ba035fd75322881be2b3596c15e0085534",
    "grid/lazy/WATTER-timeout": "9eae8a8422a14fd434b23246d672f87f542b3e983aef4197c538f16361b4b5a2",
    "grid/lazy/GDP": "bb4676bb971a9a7423c0c9d789b08eecf0ddf0556f5d306ffd6fac8d83216504",
    "grid/lazy/GAS": "15f61814e13c59b9bf4aaf9b97fdf227f1833e4ca4653e819128244e3bbf8beb",
    "grid/lazy/NonSharing": "1604594f478ac33176df7a1c5b69a745be41edbc8bd9d2a1e0d8ca553fa3b5e6",
    "grid/ch/WATTER-expect": "ad96ec398a705d757e91c1c69e9dbca8c4cdc9e5217793f284eeccdd98f7b189",
    "grid/ch/WATTER-online": "0d59bb7d04172a7e9026565b0c5efdfd6e27ac2ed45d4c3ef7f2e8abae745b69",
    "grid/ch/WATTER-timeout": "33b7c47f18b0735a38a31d7a459d86a9a31abd389acc8bde8695953219544d0a",
    "grid/ch/GDP": "e0f7198046edfb071f29c56919926197c2907bac91d20eaf139bc27c1c2130c4",
    "grid/ch/GAS": "0d59bb7d04172a7e9026565b0c5efdfd6e27ac2ed45d4c3ef7f2e8abae745b69",
    "grid/ch/NonSharing": "90be3ef7d766c869ac5868ecda8b66dfd0005dc36d5b7186e2a8fa7ba43bf9d1",
    "grid/lazy/WATTER-expect/use_rl": "eecc22c4f475b6da14fffedbc6744a75c01a5bbf66619a49f1757c40e41e307b",
}

#: The ``use_rl=True`` row: scenario, backend, algorithm.
RL_ROW = ("grid", "lazy", "WATTER-expect")


def _spec(
    scenario: str, backend: str, algorithm: str, use_rl: bool = False
) -> ScenarioSpec:
    return ScenarioSpec(
        algorithm=algorithm,
        use_rl=use_rl,
        num_orders=60,
        num_workers=12,
        seed=7,
        oracle=OracleSpec(backend=backend),
        **SCENARIOS[scenario],
    )


def decision_digest(
    outcomes: Iterable[OrderOutcome], workload: Workload, *, exact: bool
) -> str:
    """sha256 over every outcome, ids replaced by workload indices.

    ``exact`` adds dispatch time, response, detour and penalty, written
    with ``float.hex()``; without it a row is order, served, worker and
    group size.
    """
    order_index = {order.order_id: i for i, order in enumerate(workload.orders)}
    worker_index = {worker.worker_id: i for i, worker in enumerate(workload.workers)}
    rows = []
    for outcome in outcomes:
        worker = None if outcome.worker_id is None else worker_index[outcome.worker_id]
        row = [order_index[outcome.order_id], outcome.served, worker, outcome.group_size]
        if exact:
            dispatched = outcome.dispatch_time
            row += [
                None if dispatched is None else dispatched.hex(),
                outcome.response_time.hex(),
                outcome.detour_time.hex(),
                outcome.penalty.hex(),
            ]
        rows.append(row)
    assert len(rows) == len(order_index), "every order is decided exactly once"
    rows.sort(key=lambda row: row[0])
    text = "\n".join(" ".join(map(str, row)) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(result: RunResult, workload: Workload) -> str:
    return decision_digest(
        result.outcomes, workload, exact=result.spec.oracle.backend != "ch"
    )


def _direct_digest(
    scenario: str, backend: str, algorithm: str, use_rl: bool = False
) -> str:
    session = Session()
    spec = _spec(scenario, backend, algorithm, use_rl)
    return _digest(session.run(spec), session.workload(spec))


def _key(scenario: str, backend: str, algorithm: str, use_rl: bool = False) -> str:
    return f"{scenario}/{backend}/{algorithm}" + ("/use_rl" if use_rl else "")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_direct_run_matches_its_pin(scenario, backend, algorithm):
    key = _key(scenario, backend, algorithm)
    assert _direct_digest(scenario, backend, algorithm) == PINNED[key], key


def test_rl_run_matches_its_pin():
    assert _direct_digest(*RL_ROW, use_rl=True) == PINNED[_key(*RL_ROW, use_rl=True)]


def test_resumed_run_matches_the_direct_pin(tmp_path):
    session = Session()
    spec = _spec("cdc", "lazy", "WATTER-expect")
    path = tmp_path / "cut.ckpt"
    interrupt_and_checkpoint(session, spec, path, cut=10, interval=3)
    resumed = session.run(spec, resume_from=path)
    assert _digest(resumed, session.workload(spec)) == PINNED["cdc/lazy/WATTER-expect"]


class _KeepingService(ScenarioService):
    """Keeps each finished run's result and workload, which the service's
    own record summarises away."""

    def __init__(self, **options) -> None:
        super().__init__(**options)
        self.kept: dict[str, tuple[RunResult, Workload]] = {}

    def _run(self, record):
        result = super()._run(record)
        workload = self._session.workload(record.spec)
        self.kept[record.run_id] = (result, workload)
        return result


def test_served_run_matches_the_direct_pin():
    spec = _spec("cdc", "lazy", "WATTER-expect")
    with _KeepingService(max_runs=1) as service:
        record = service.wait(service.submit_spec(spec).run_id, timeout=240.0)
        assert record.status == COMPLETED, record.error
        result, workload = service.kept[record.run_id]
    assert _digest(result, workload) == PINNED["cdc/lazy/WATTER-expect"]


if __name__ == "__main__":
    print("PINNED = {")
    for scenario in sorted(SCENARIOS):
        for backend in BACKENDS:
            for algorithm in ALGORITHMS:
                key = _key(scenario, backend, algorithm)
                digest = _direct_digest(scenario, backend, algorithm)
                print(f'    "{key}": "{digest}",')
    digest = _direct_digest(*RL_ROW, use_rl=True)
    print(f'    "{_key(*RL_ROW, use_rl=True)}": "{digest}",')
    print("}")
