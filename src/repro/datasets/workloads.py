"""Dataset presets mimicking the paper's three cities.

The paper evaluates on NYC (yellow taxi), Chengdu (CDC) and Xi'an (XIA)
order logs.  Their properties that matter to the algorithms — and that
the presets below reproduce — are:

* **NYC**: demand concentrated in the elongated Manhattan grid, which
  makes shareable pairs abundant; the paper notes most orders fall in
  that area, so WATTER-online already does well there (Section VII-B).
* **CDC / XIA**: pickups and dropoffs are more dispersed across the
  city, so the benefit of waiting for a better group (WATTER-expect) is
  larger and WATTER-online's improvement is limited.

Each preset bundles a synthetic road network with hotspot layouts and
peak periods.  :data:`DATASETS` is the one table of presets; scenarios
reach it through :class:`repro.api.Session`.
"""

from __future__ import annotations

from typing import Callable

from ..config import SimulationConfig
from ..exceptions import DatasetError, unknown_name
from ..network.generators import grid_city, large_city, manhattan_like_city
from .synthetic import CityModel, DemandHotspot, PeakPeriod, Workload


def nyc_like_city(seed: int = 0) -> CityModel:
    """Manhattan-like, demand concentrated along the central avenue axis."""
    network = manhattan_like_city(rows=40, cols=8, seed=seed)
    # Hotspots along the central avenue: midtown-like cluster dominates.
    pickup_hotspots = [
        DemandHotspot(x=3.5, y=20.0, spread=4.0, weight=3.0),
        DemandHotspot(x=3.5, y=30.0, spread=3.0, weight=2.0),
        DemandHotspot(x=3.5, y=8.0, spread=3.0, weight=1.5),
    ]
    dropoff_hotspots = [
        DemandHotspot(x=3.5, y=25.0, spread=5.0, weight=3.0),
        DemandHotspot(x=3.5, y=12.0, spread=4.0, weight=2.0),
    ]
    peaks = [
        PeakPeriod(start=1800.0, end=5400.0, intensity=2.5),
        PeakPeriod(start=9000.0, end=12600.0, intensity=2.0),
    ]
    return CityModel(
        name="NYC",
        network=network,
        pickup_hotspots=pickup_hotspots,
        dropoff_hotspots=dropoff_hotspots,
        uniform_fraction=0.10,
        peak_periods=peaks,
        min_trip_time=240.0,
    )


def cdc_like_city(seed: int = 1) -> CityModel:
    """Chengdu-like: square grid, moderately dispersed demand."""
    network = grid_city(rows=22, cols=22, edge_travel_time=70.0, seed=seed)
    pickup_hotspots = [
        DemandHotspot(x=10.0, y=10.0, spread=5.0, weight=2.0),
        DemandHotspot(x=4.0, y=16.0, spread=4.0, weight=1.0),
        DemandHotspot(x=17.0, y=5.0, spread=4.0, weight=1.0),
    ]
    dropoff_hotspots = [
        DemandHotspot(x=11.0, y=11.0, spread=6.0, weight=1.5),
        DemandHotspot(x=16.0, y=16.0, spread=5.0, weight=1.0),
        DemandHotspot(x=5.0, y=5.0, spread=5.0, weight=1.0),
    ]
    peaks = [PeakPeriod(start=3600.0, end=7200.0, intensity=1.8)]
    return CityModel(
        name="CDC",
        network=network,
        pickup_hotspots=pickup_hotspots,
        dropoff_hotspots=dropoff_hotspots,
        uniform_fraction=0.30,
        peak_periods=peaks,
        min_trip_time=240.0,
    )


def xia_like_city(seed: int = 2) -> CityModel:
    """Xi'an-like: smaller grid, the most dispersed demand of the three."""
    network = grid_city(rows=18, cols=18, edge_travel_time=80.0, seed=seed)
    pickup_hotspots = [
        DemandHotspot(x=8.0, y=8.0, spread=6.0, weight=1.5),
        DemandHotspot(x=13.0, y=4.0, spread=5.0, weight=1.0),
        DemandHotspot(x=4.0, y=13.0, spread=5.0, weight=1.0),
    ]
    dropoff_hotspots = [
        DemandHotspot(x=9.0, y=9.0, spread=7.0, weight=1.0),
        DemandHotspot(x=14.0, y=14.0, spread=6.0, weight=1.0),
        DemandHotspot(x=3.0, y=3.0, spread=6.0, weight=1.0),
    ]
    peaks = [PeakPeriod(start=3600.0, end=6300.0, intensity=1.6)]
    return CityModel(
        name="XIA",
        network=network,
        pickup_hotspots=pickup_hotspots,
        dropoff_hotspots=dropoff_hotspots,
        uniform_fraction=0.40,
        peak_periods=peaks,
        min_trip_time=240.0,
    )


def large_synthetic_city(seed: int = 3) -> CityModel:
    """A 102 400-node city for the city-scale stress path.

    The network is :func:`~repro.network.generators.large_city`'s
    320x320 arterial lattice (built in O(V+E)); demand uses the
    *local-trip* model — dropoffs are Gaussian displacements of their
    pickups and trip times come from early-terminating point-to-point
    Dijkstras — so generating a workload touches only the sampled
    neighbourhoods, never a full per-source distance map of the 10^5
    nodes.  Selected as dataset ``"LARGE"`` from
    :class:`~repro.api.ScenarioSpec` or ``--dataset LARGE``; pair it
    with ``--oracle lazy`` (the default) for city-scale dispatch.
    """
    network = large_city(rows=320, cols=320, seed=seed)
    pickup_hotspots = [
        DemandHotspot(x=160.0, y=160.0, spread=40.0, weight=2.0),
        DemandHotspot(x=80.0, y=240.0, spread=30.0, weight=1.0),
        DemandHotspot(x=240.0, y=80.0, spread=30.0, weight=1.0),
    ]
    # Unused while local_trip_spread is set, but a CityModel requires a
    # dropoff side — keep it meaningful in case a caller clears the
    # local-trip mode on a copy.
    dropoff_hotspots = [
        DemandHotspot(x=160.0, y=160.0, spread=50.0, weight=1.0),
    ]
    peaks = [PeakPeriod(start=3600.0, end=7200.0, intensity=1.8)]
    return CityModel(
        name="LARGE",
        network=network,
        pickup_hotspots=pickup_hotspots,
        dropoff_hotspots=dropoff_hotspots,
        uniform_fraction=0.20,
        peak_periods=peaks,
        min_trip_time=240.0,
        local_trip_spread=12.0,
    )


#: Dataset preset -> (city builder, the paper's order count, the paper's
#: worker count), before the reproduction's scaling.  The keys are the
#: valid dataset names.  NYC, CDC and XIA are Table III's cities; LARGE,
#: the city-scale stress preset, borrows CDC's counts so its dispatch
#: metrics stay comparable while its network is ~200x larger.
DATASETS: dict[str, tuple[Callable[..., CityModel], int, int]] = {
    "NYC": (nyc_like_city, 100_000, 5_000),
    "CDC": (cdc_like_city, 50_000, 5_000),
    "XIA": (xia_like_city, 50_000, 5_000),
    "LARGE": (large_synthetic_city, 50_000, 5_000),
}


def city_by_name(name: str, seed: int = 0) -> CityModel:
    """Return the preset city model for a dataset name (case-insensitive)."""
    try:
        build, _, _ = DATASETS[name.upper()]
    except KeyError:
        raise DatasetError(unknown_name("dataset", name, DATASETS)) from None
    return build(seed=seed)


def build_workload(dataset: str, config: SimulationConfig) -> Workload:
    """Generate a workload for one of the paper's dataset presets.

    Parameters
    ----------
    dataset:
        A key of :data:`DATASETS`.
    config:
        Simulation parameters (order count, worker count, deadline
        scale, ...).  The config seed controls all sampling.
    """
    city = city_by_name(dataset, seed=config.seed)
    return city.generate(config)
