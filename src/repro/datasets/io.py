"""CSV import / export of workloads.

The paper's real order logs come as CSV files with pickup / dropoff
coordinates and release timestamps.  These helpers let a user of the
library round-trip workloads in a similarly simple format so a real
dataset (if available) can be mapped onto a road network and fed to the
same simulators the synthetic workloads use.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from ..config import SimulationConfig
from ..exceptions import ConfigurationError, DatasetError
from ..model.order import Order
from ..model.worker import Worker
from ..network.graph import RoadNetwork

# Column -> cell type; the column names are the model's field names.
_ORDER_FIELDS = {
    "order_id": int,
    "pickup": int,
    "dropoff": int,
    "release_time": float,
    "shortest_time": float,
    "deadline": float,
    "wait_limit": float,
    "riders": int,
}

_WORKER_FIELDS = {"worker_id": int, "location": int, "capacity": int}

_Row = TypeVar("_Row")


def _parse_row(path: str | Path, number: int, row: dict, fields: dict) -> dict:
    """Convert one CSV row to typed keyword arguments.

    A cell that is absent (short row), unparsable or not finite (an
    integer too large for a float included) is a :class:`DatasetError`
    naming the file, the 1-based data row and the column, never a bare
    ``ValueError`` / ``TypeError`` / ``OverflowError``.
    """
    values = {}
    for column, convert in fields.items():
        raw = row[column]
        try:
            value = convert(raw)
            if not math.isfinite(value):
                raise ValueError(raw)
        except (TypeError, ValueError, OverflowError):
            raise DatasetError(
                f"{path}: row {number}, column {column!r}: "
                f"expected a finite {convert.__name__}, got {raw!r}"
            ) from None
        values[column] = value
    return values


def orders_to_csv(orders: Iterable[Order], path: str | Path) -> None:
    """Write orders to a CSV file with one row per order."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_ORDER_FIELDS)
        for order in orders:
            writer.writerow(
                [
                    order.order_id,
                    order.pickup,
                    order.dropoff,
                    order.release_time,
                    order.shortest_time,
                    order.deadline,
                    order.wait_limit,
                    order.riders,
                ]
            )


def _read_csv(
    path: str | Path, kind: str, fields: dict, make: Callable[..., _Row]
) -> list[_Row]:
    """One ``make(**row)`` per data row of a CSV file.

    Every way the file can be wrong is a :class:`DatasetError` naming
    it: a file that is missing or cannot be read, text that is not
    UTF-8 or not CSV, a missing column, a bad cell (:func:`_parse_row`),
    or a row the model rejects, whose message keeps the model's reason
    and adds the 1-based data row.
    """
    items = []
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DatasetError(
            f"{path}: cannot read the {kind} CSV: {exc.strerror or exc}"
        ) from None
    with handle:
        reader = csv.DictReader(handle)
        try:
            missing = set(fields) - set(reader.fieldnames or ())
            if missing:
                raise DatasetError(f"{kind} CSV is missing columns: {sorted(missing)}")
            for number, row in enumerate(reader, start=1):
                values = _parse_row(path, number, row, fields)
                try:
                    items.append(make(**values))
                except ConfigurationError as exc:
                    raise DatasetError(f"{path}: row {number}: {exc}") from None
        except (csv.Error, UnicodeDecodeError) as exc:
            raise DatasetError(f"{path}: line {reader.line_num}: {exc}") from None
    return items


def orders_from_csv(path: str | Path) -> list[Order]:
    """Read orders previously written by :func:`orders_to_csv`."""
    orders = _read_csv(path, "order", _ORDER_FIELDS, Order)
    orders.sort(key=lambda order: order.release_time)
    return orders


def workers_to_csv(workers: Iterable[Worker], path: str | Path) -> None:
    """Write workers to a CSV file with one row per worker."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_WORKER_FIELDS)
        for worker in workers:
            writer.writerow([worker.worker_id, worker.location, worker.capacity])


def workers_from_csv(path: str | Path) -> list[Worker]:
    """Read workers previously written by :func:`workers_to_csv`."""
    return _read_csv(path, "worker", _WORKER_FIELDS, Worker)


def raw_trips_to_orders(
    rows: Iterable[dict],
    network: RoadNetwork,
    config: SimulationConfig,
) -> list[Order]:
    """Convert raw trip records (coordinates + timestamp) into orders.

    Each row needs ``pickup_x``, ``pickup_y``, ``dropoff_x``,
    ``dropoff_y`` and ``release_time`` keys.  Coordinates are snapped to
    the nearest network node; deadlines and wait limits follow the
    paper's setup (``tau * cost`` and ``eta * cost``).  Rows whose snap
    produces an identical pickup/dropoff node or an unreachable pair are
    skipped.
    """
    orders = []
    for row in rows:
        pickup = network.nearest_node(float(row["pickup_x"]), float(row["pickup_y"]))
        dropoff = network.nearest_node(float(row["dropoff_x"]), float(row["dropoff_y"]))
        if pickup == dropoff or not network.is_reachable(pickup, dropoff):
            continue
        release = float(row["release_time"])
        shortest = network.travel_time(pickup, dropoff)
        orders.append(
            Order(
                pickup=pickup,
                dropoff=dropoff,
                release_time=release,
                shortest_time=shortest,
                deadline=release + config.deadline_scale * shortest,
                wait_limit=config.watch_window_scale * shortest,
                riders=int(row.get("riders", 1)),
            )
        )
    orders.sort(key=lambda order: order.release_time)
    return orders
