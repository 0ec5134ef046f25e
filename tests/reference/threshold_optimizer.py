"""The threshold optimiser and the scalar mixture CDF as they first ran.

``ThresholdOptimizer.optimal_threshold`` now scans a Python-float grid
and keeps ``f(theta)`` across its ascent steps, and the scalar
``GaussianMixture.cdf`` reads per-component terms kept from the fit.
The code they replaced is kept here verbatim (the CDF's scalar branch
reading the mixture's public components) as the reference that
``tests/test_gmm_threshold.py`` holds them to, float for float.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.gmm import GaussianMixture


def scalar_cdf(mixture: GaussianMixture, x: float) -> float:
    """``GaussianMixture.cdf`` on a scalar, one component at a time."""
    point = float(x)
    total = 0.0
    for component in mixture.components:
        std = math.sqrt(component.variance)
        z = (point - component.mean) / (std * math.sqrt(2.0))
        total = total + component.weight * 0.5 * (1.0 + math.erf(z))
    return min(max(total, 0.0), 1.0)


class ReferenceThresholdOptimizer:
    """``ThresholdOptimizer``'s objective and grid-then-ascent search."""

    def __init__(
        self,
        mixture: GaussianMixture,
        iterations: int = 25,
        grid_points: int = 64,
        learning_rate: float = 0.1,
    ) -> None:
        self._mixture = mixture
        self._iterations = max(1, iterations)
        self._grid_points = max(8, grid_points)
        self._learning_rate = learning_rate

    def objective(self, theta: float, penalty: float) -> float:
        return (penalty - theta) * float(scalar_cdf(self._mixture, theta))

    def optimal_threshold(self, penalty: float) -> float:
        if penalty <= 0:
            return 0.0
        grid = np.linspace(0.0, penalty, self._grid_points)
        values = [(self.objective(theta, penalty), theta) for theta in grid]
        _, best = max(values)
        theta = float(best)
        step = self._learning_rate * penalty
        eps = max(penalty * 1e-4, 1e-6)
        for _ in range(self._iterations):
            gradient = (
                self.objective(theta + eps, penalty)
                - self.objective(theta - eps, penalty)
            ) / (2.0 * eps)
            candidate = theta + step * gradient / max(penalty, 1e-9)
            candidate = min(max(candidate, 0.0), penalty)
            if self.objective(candidate, penalty) >= self.objective(theta, penalty):
                theta = candidate
            else:
                step *= 0.5
        return theta
