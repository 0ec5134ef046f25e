"""Workload substrate: synthetic city demand models and I/O."""

from .synthetic import CityModel, DemandHotspot, Workload
from .workloads import (
    build_workload,
    nyc_like_city,
    cdc_like_city,
    xia_like_city,
    large_synthetic_city,
    city_by_name,
    DATASETS,
)
from .io import orders_to_csv, orders_from_csv, workers_to_csv, workers_from_csv

__all__ = [
    "CityModel",
    "DemandHotspot",
    "Workload",
    "build_workload",
    "nyc_like_city",
    "cdc_like_city",
    "xia_like_city",
    "large_synthetic_city",
    "city_by_name",
    "DATASETS",
    "orders_to_csv",
    "orders_from_csv",
    "workers_to_csv",
    "workers_from_csv",
]
