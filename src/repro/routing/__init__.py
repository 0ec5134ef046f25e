"""Route planning for order groups under the METRS constraints."""

from .feasibility import check_route, FeasibilityReport
from .planner import RoutePlanner, PlannedGroup

__all__ = [
    "check_route",
    "FeasibilityReport",
    "RoutePlanner",
    "PlannedGroup",
]
