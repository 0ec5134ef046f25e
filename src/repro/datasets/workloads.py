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
peak periods.  ``build_workload`` is the single entry point used by the
experiment harness and the examples.
"""

from __future__ import annotations

from ..config import SimulationConfig
from ..exceptions import DatasetError
from ..network.generators import grid_city, large_city, manhattan_like_city
from .synthetic import CityModel, DemandHotspot, PeakPeriod, Workload

#: The paper's three city presets (kept separate from the city-scale
#: stress preset below so sweeps over "the paper's datasets" stay fast).
DATASET_NAMES = ("NYC", "CDC", "XIA")

#: City-scale synthetic preset names (all aliases of one model).
LARGE_DATASET_NAMES = ("LARGE", "LARGE-SYNTHETIC")


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
    nodes.  Selected as dataset ``"LARGE"`` (alias
    ``"LARGE-SYNTHETIC"``) from :class:`~repro.api.ScenarioSpec` or
    ``--dataset LARGE``; pair it with ``--oracle lazy`` (the default)
    for city-scale dispatch.
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


_CITY_FACTORIES = {
    "NYC": nyc_like_city,
    "CDC": cdc_like_city,
    "XIA": xia_like_city,
    "LARGE": large_synthetic_city,
    "LARGE-SYNTHETIC": large_synthetic_city,
}


def city_by_name(name: str, seed: int = 0) -> CityModel:
    """Return the preset city model for a dataset name (case-insensitive)."""
    key = name.upper()
    try:
        factory = _CITY_FACTORIES[key]
    except KeyError as exc:
        raise DatasetError(
            f"unknown dataset {name!r}; expected one of "
            f"{DATASET_NAMES + LARGE_DATASET_NAMES}"
        ) from exc
    return factory(seed=seed)


def build_workload(dataset: str, config: SimulationConfig) -> Workload:
    """Generate a workload for one of the paper's dataset presets.

    Parameters
    ----------
    dataset:
        ``"NYC"``, ``"CDC"`` or ``"XIA"``.
    config:
        Simulation parameters (order count, worker count, deadline
        scale, ...).  The config seed controls all sampling.
    """
    city = city_by_name(dataset, seed=config.seed)
    return city.generate(config)
