"""Gaussian Mixture Model fitted with Expectation-Maximisation.

Section V-C of the paper models the extra-time distribution as a GMM
because the extra time is influenced by several latent factors (trip
length, demand density, time of day), each contributing its own mode.
The CDF of the fitted mixture is the ``F(theta)`` of Equation 8.

Only the 1-D case is needed, so the implementation is self-contained
numpy (no scikit-learn): EM with k components, responsibilities,
log-likelihood monitoring and a numerically safe CDF via ``erf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import LearningError

_MIN_VARIANCE = 1e-6


@dataclass(frozen=True)
class GaussianComponent:
    """One mixture component: weight, mean and variance."""

    weight: float
    mean: float
    variance: float


class GaussianMixture:
    """A one-dimensional Gaussian mixture fitted by EM.

    Parameters
    ----------
    n_components:
        Number of Gaussian components.
    max_iterations:
        EM iteration cap.
    tolerance:
        Relative log-likelihood improvement below which EM stops.
    seed:
        Seed for the k-means-style initialisation.
    """

    def __init__(
        self,
        n_components: int = 3,
        max_iterations: int = 200,
        tolerance: float = 1e-6,
        seed: int = 0,
    ) -> None:
        if n_components < 1:
            raise LearningError("a mixture needs at least one component")
        self._n_components = n_components
        self._max_iterations = max_iterations
        self._tolerance = tolerance
        self._seed = seed
        self._components: list[GaussianComponent] = []
        # Per component ``(mean, std * sqrt(2), weight / 2)``, for ``cdf``.
        self._cdf_terms: list[tuple[float, float, float]] = []
        self._log_likelihood_history: list[float] = []

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(self, samples: np.ndarray | list[float]) -> "GaussianMixture":
        """Fit the mixture to 1-D samples and return ``self``.

        Raises
        ------
        LearningError
            If fewer samples than components are provided.
        """
        data = np.asarray(samples, dtype=float).ravel()
        if data.size < self._n_components:
            raise LearningError(
                f"need at least {self._n_components} samples, got {data.size}"
            )
        rng = np.random.default_rng(self._seed)
        means = np.quantile(data, np.linspace(0.1, 0.9, self._n_components))
        means = means + rng.normal(0.0, 1e-3, size=self._n_components)
        variances = np.full(self._n_components, max(data.var(), _MIN_VARIANCE))
        weights = np.full(self._n_components, 1.0 / self._n_components)

        previous_ll = -np.inf
        self._log_likelihood_history = []
        for _ in range(self._max_iterations):
            # E step: responsibilities.
            densities = self._component_densities(data, weights, means, variances)
            totals = densities.sum(axis=1, keepdims=True)
            totals = np.maximum(totals, 1e-300)
            responsibilities = densities / totals
            log_likelihood = float(np.log(totals).sum())
            self._log_likelihood_history.append(log_likelihood)

            # M step: update parameters.
            component_mass = responsibilities.sum(axis=0)
            component_mass = np.maximum(component_mass, 1e-12)
            weights = component_mass / data.size
            means = (responsibilities * data[:, None]).sum(axis=0) / component_mass
            centred = data[:, None] - means[None, :]
            variances = (responsibilities * centred**2).sum(axis=0) / component_mass
            variances = np.maximum(variances, _MIN_VARIANCE)

            if abs(log_likelihood - previous_ll) < self._tolerance * (
                1.0 + abs(previous_ll)
            ):
                break
            previous_ll = log_likelihood

        fitted = zip(weights.tolist(), means.tolist(), variances.tolist())
        self._set_components([GaussianComponent(w, m, v) for w, m, v in fitted])
        return self

    def _set_components(self, components: list[GaussianComponent]) -> None:
        self._components = components
        self._cdf_terms = [
            (c.mean, math.sqrt(c.variance) * math.sqrt(2.0), c.weight * 0.5)
            for c in components
        ]

    @property
    def components(self) -> list[GaussianComponent]:
        """The fitted components (empty before :meth:`fit`)."""
        return list(self._components)

    @property
    def log_likelihood_history(self) -> list[float]:
        """Per-iteration log-likelihood trace of the last fit."""
        return list(self._log_likelihood_history)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def pdf(self, x: float | np.ndarray) -> np.ndarray | float:
        """Probability density of the mixture at ``x``."""
        self._require_fitted()
        values = np.asarray(x, dtype=float)
        result = np.zeros_like(values, dtype=float)
        for component in self._components:
            result = result + component.weight * _normal_pdf(
                values, component.mean, component.variance
            )
        return float(result) if np.isscalar(x) else result

    def cdf(self, x: float | np.ndarray) -> np.ndarray | float:
        """Cumulative distribution of the mixture at ``x`` (the paper's ``F``).

        A scalar ``x`` is evaluated with ``math.erf`` directly, in the
        same component order and arithmetic as the array path, so both
        return the same float; the threshold optimiser calls this with
        one float at a time, which skips the ``np.isscalar`` test.
        """
        self._require_fitted()
        if isinstance(x, float) or np.isscalar(x):
            point = float(x)
            total = 0.0
            for mean, scale, half_weight in self._cdf_terms:
                total = total + half_weight * (1.0 + math.erf((point - mean) / scale))
            return min(max(total, 0.0), 1.0)
        values = np.asarray(x, dtype=float)
        result = np.zeros_like(values, dtype=float)
        for mean, scale, half_weight in self._cdf_terms:
            result = result + half_weight * (1.0 + _erf((values - mean) / scale))
        return np.clip(result, 0.0, 1.0)

    def sample(self, size: int, seed: int = 0) -> np.ndarray:
        """Draw samples from the fitted mixture (for tests and simulations)."""
        self._require_fitted()
        rng = np.random.default_rng(seed)
        weights = np.array([c.weight for c in self._components])
        weights = weights / weights.sum()
        choices = rng.choice(len(self._components), size=size, p=weights)
        output = np.empty(size, dtype=float)
        for index, component in enumerate(self._components):
            mask = choices == index
            output[mask] = rng.normal(
                component.mean, math.sqrt(component.variance), size=int(mask.sum())
            )
        return output

    def mean(self) -> float:
        """Mean of the mixture."""
        self._require_fitted()
        return sum(c.weight * c.mean for c in self._components)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        if not self._components:
            raise LearningError("the mixture has not been fitted yet")

    @staticmethod
    def _component_densities(
        data: np.ndarray, weights: np.ndarray, means: np.ndarray, variances: np.ndarray
    ) -> np.ndarray:
        densities = np.empty((data.size, weights.size))
        for index in range(weights.size):
            densities[:, index] = weights[index] * _normal_pdf(
                data, means[index], variances[index]
            )
        return densities


def _normal_pdf(x: np.ndarray, mean: float, variance: float) -> np.ndarray:
    coefficient = 1.0 / math.sqrt(2.0 * math.pi * variance)
    return coefficient * np.exp(-((x - mean) ** 2) / (2.0 * variance))


def _erf(x: np.ndarray) -> np.ndarray:
    """Vectorised error function (scipy-free)."""
    vec = np.vectorize(math.erf)
    return vec(x)
