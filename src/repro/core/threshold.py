"""Distribution fitting and threshold optimisation (Section V, Algorithm 3).

The paper reduces the METRS objective to, per order,

    maximise  h(theta) = (p - theta) * F(theta)      over theta in [0, p]

where ``p`` is the order's rejection penalty and ``F`` is the CDF of the
extra-time distribution.  ``(p - theta)`` is decreasing, ``F`` is
increasing, so ``h`` is unimodal (single interior maximum) and a simple
gradient ascent / golden-section search finds the optimum in a handful
of iterations.

``ThresholdOptimizer`` implements Algorithm 3: fit a GMM to historical
extra times, evaluate its CDF, and return the optimal ``theta(i)`` for
each order's penalty.  It also doubles as a :class:`ThresholdProvider`
so it can plug straight into the threshold-based dispatch strategy.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TYPE_CHECKING

import numpy as np

from ..exceptions import LearningError
from .gmm import GaussianMixture

if TYPE_CHECKING:  # pragma: no cover
    from ..model.order import Order


def fit_extra_time_distribution(
    extra_times: Sequence[float] | np.ndarray,
    n_components: int = 3,
    seed: int = 0,
) -> GaussianMixture:
    """Fit the GMM of Algorithm 3 (line 1) to historical extra times.

    Negative samples are clipped at zero (extra times are non-negative
    by definition) and the component count is reduced automatically when
    very few samples are available.
    """
    samples = np.clip(np.asarray(list(extra_times), dtype=float), 0.0, None)
    if samples.size == 0:
        raise LearningError("cannot fit a distribution to zero extra-time samples")
    components = min(n_components, max(1, samples.size // 10), samples.size)
    mixture = GaussianMixture(n_components=components, seed=seed)
    return mixture.fit(samples)


class ThresholdOptimizer:
    """Per-order optimal expected thresholds from a fitted distribution.

    Parameters
    ----------
    mixture:
        Fitted extra-time distribution whose CDF plays the role of ``F``.
    iterations:
        Number of gradient-ascent refinement steps after the coarse grid
        scan.  The objective is unimodal so a few suffice (the paper
        remarks "only a few iterations are required").
    grid_points:
        Size of the coarse grid used to bracket the maximum.
    """

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
        # Thresholds only depend on the penalty; caching on a 1-second
        # rounding keeps the online decision loop O(1) per order.
        self._cache: dict[float, float] = {}

    @property
    def mixture(self) -> GaussianMixture:
        """The fitted extra-time distribution."""
        return self._mixture

    # ------------------------------------------------------------------
    # the reduced objective (Equation 8)
    # ------------------------------------------------------------------
    def objective(self, theta: float, penalty: float) -> float:
        """``(p - theta) * F(theta)``: the gain term maximised by Equation 8."""
        return (penalty - theta) * float(self._mixture.cdf(theta))

    def expected_loss(self, theta: float, penalty: float) -> float:
        """``p - (p - theta) F(theta)``: the per-order expected loss minimised."""
        return penalty - self.objective(theta, penalty)

    # ------------------------------------------------------------------
    # optimisation (Algorithm 3, lines 3-6)
    # ------------------------------------------------------------------
    def optimal_threshold(self, penalty: float) -> float:
        """The ``theta`` in ``[0, p]`` maximising the reduced objective.

        A coarse grid scan brackets the maximum (the objective is
        unimodal but can be flat near 0 for small penalties), then
        projected gradient ascent with a numerical derivative refines it.
        """
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

    def optimal_thresholds(self, orders: Iterable["Order"]) -> dict[int, float]:
        """Algorithm 3: the optimal threshold for every order, keyed by id."""
        return {
            order.order_id: self.optimal_threshold(order.penalty) for order in orders
        }

    # ------------------------------------------------------------------
    # ThresholdProvider protocol
    # ------------------------------------------------------------------
    def threshold(self, order: "Order", now: float) -> float:
        """Provide Algorithm 2 with this order's distribution-fitted threshold."""
        key = round(order.penalty, 0)
        cached = self._cache.get(key)
        if cached is None:
            cached = self.optimal_threshold(key)
            self._cache[key] = cached
        return cached
