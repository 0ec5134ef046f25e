"""Unit tests for the GMM fit and the threshold optimisation (Section V)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gmm import GaussianComponent, GaussianMixture
from repro.core.threshold import ThresholdOptimizer, fit_extra_time_distribution
from repro.exceptions import LearningError
from tests.conftest import make_order
from tests.reference.threshold_optimizer import ReferenceThresholdOptimizer, scalar_cdf


def _bimodal_samples(seed=0, size=600):
    rng = np.random.default_rng(seed)
    low = rng.normal(60.0, 10.0, size // 2)
    high = rng.normal(300.0, 40.0, size // 2)
    return np.clip(np.concatenate([low, high]), 0.0, None)


class TestGaussianMixture:
    def test_requires_at_least_one_component(self):
        with pytest.raises(LearningError):
            GaussianMixture(n_components=0)

    def test_requires_enough_samples(self):
        with pytest.raises(LearningError):
            GaussianMixture(n_components=3).fit([1.0, 2.0])

    def test_unfitted_mixture_rejects_queries(self):
        with pytest.raises(LearningError):
            GaussianMixture().cdf(1.0)

    def test_fit_recovers_bimodal_means(self):
        mixture = GaussianMixture(n_components=2, seed=1).fit(_bimodal_samples())
        means = sorted(component.mean for component in mixture.components)
        assert means[0] == pytest.approx(60.0, abs=15.0)
        assert means[1] == pytest.approx(300.0, abs=30.0)

    def test_weights_sum_to_one(self):
        mixture = GaussianMixture(n_components=3, seed=2).fit(_bimodal_samples())
        assert sum(c.weight for c in mixture.components) == pytest.approx(1.0)

    def test_log_likelihood_is_non_decreasing(self):
        mixture = GaussianMixture(n_components=2, seed=3).fit(_bimodal_samples())
        history = mixture.log_likelihood_history
        assert len(history) >= 2
        assert all(b >= a - 1e-6 for a, b in zip(history, history[1:]))

    def test_cdf_monotone_and_bounded(self):
        mixture = GaussianMixture(n_components=2, seed=4).fit(_bimodal_samples())
        xs = np.linspace(-100.0, 600.0, 50)
        cdf = mixture.cdf(xs)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf.min() >= 0.0
        assert cdf.max() <= 1.0

    def test_cdf_limits(self):
        mixture = GaussianMixture(n_components=2, seed=5).fit(_bimodal_samples())
        assert mixture.cdf(-1e6) == pytest.approx(0.0, abs=1e-9)
        assert mixture.cdf(1e6) == pytest.approx(1.0, abs=1e-9)

    def test_pdf_non_negative(self):
        mixture = GaussianMixture(n_components=2, seed=6).fit(_bimodal_samples())
        xs = np.linspace(0.0, 500.0, 40)
        assert np.all(mixture.pdf(xs) >= 0.0)

    def test_mean_matches_sample_mean(self):
        samples = _bimodal_samples(seed=7)
        mixture = GaussianMixture(n_components=2, seed=7).fit(samples)
        assert mixture.mean() == pytest.approx(float(samples.mean()), rel=0.1)

    def test_sampling_roundtrip(self):
        mixture = GaussianMixture(n_components=2, seed=8).fit(_bimodal_samples())
        draws = mixture.sample(2000, seed=8)
        assert draws.shape == (2000,)
        assert float(draws.mean()) == pytest.approx(mixture.mean(), rel=0.15)


class _ArrayPathMixture(GaussianMixture):
    """A mixture whose scalar ``cdf`` goes through the array evaluation."""

    def cdf(self, x):
        return float(super().cdf(np.array([x]))[0])


def _mixture_of(cls, components):
    """A mixture with exactly these (weight, mean, variance) components."""
    mixture = cls(n_components=len(components))
    mixture._set_components([GaussianComponent(*entry) for entry in components])
    return mixture


#: Unimodal, well-separated bimodal, and a three-mode mixture with a
#: near-degenerate spike (variance at the fitting floor).
_PINNED_MIXTURES = (
    ((1.0, 180.0, 3600.0),),
    ((0.35, 60.0, 100.0), (0.65, 300.0, 1600.0)),
    ((0.2, 5.0, 1e-6), (0.5, 120.0, 900.0), (0.3, 480.0, 14400.0)),
)


class TestScalarCdf:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        components=st.integers(min_value=1, max_value=4),
        points=st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
    )
    def test_scalar_cdf_equals_array_cdf(self, seed, components, points):
        mixture = GaussianMixture(n_components=components, seed=seed).fit(
            _bimodal_samples(seed=seed % 1000, size=120)
        )
        batch = mixture.cdf(np.array(points))
        for point, expected in zip(points, batch):
            for scalar in (point, np.float64(point)):
                value = mixture.cdf(scalar)
                assert type(value) is float
                assert value == mixture.cdf(np.array([point]))[0] == expected
        assert mixture.cdf(7) == mixture.cdf(np.array([7]))[0]

    def test_scalar_cdf_saturates_like_the_array_path(self):
        mixture = _mixture_of(GaussianMixture, _PINNED_MIXTURES[2])
        for point in (-1e9, 5.0, 1e9, float("inf"), float("-inf")):
            assert mixture.cdf(point) == mixture.cdf(np.array([point]))[0]

    @pytest.mark.parametrize("components", _PINNED_MIXTURES)
    def test_optimal_threshold_is_unchanged(self, components):
        fast = ThresholdOptimizer(_mixture_of(GaussianMixture, components))
        slow = ThresholdOptimizer(_mixture_of(_ArrayPathMixture, components))
        for penalty in (0.5, 37.0, 180.0, 450.0, 2000.0):
            assert fast.optimal_threshold(penalty) == slow.optimal_threshold(penalty)


class TestAgainstTheFrozenOptimizer:
    """The optimiser and scalar CDF return the reference's floats, to the bit."""

    @pytest.fixture(
        scope="class",
        params=[
            lambda: fit_extra_time_distribution(_bimodal_samples(seed=3), seed=3),
            lambda: GaussianMixture(n_components=2, seed=1).fit(_bimodal_samples()),
        ],
        ids=["three-modes", "two-modes"],
    )
    def mixture(self, request):
        return request.param()

    def test_every_integer_penalty(self, mixture):
        ours = ThresholdOptimizer(mixture)
        reference = ReferenceThresholdOptimizer(mixture)
        for penalty in range(3001):
            assert ours.optimal_threshold(float(penalty)) == (
                reference.optimal_threshold(float(penalty))
            ), penalty
        assert ours.optimal_threshold(540) == reference.optimal_threshold(540)

    def test_scalar_cdf(self, mixture):
        for point in [-5.0, 0.0, 0.5, 59.9, 60, 180.25, 300.0, 1e4, np.float64(42.5)]:
            assert mixture.cdf(point) == scalar_cdf(mixture, point)


class TestFitExtraTimeDistribution:
    def test_rejects_empty_history(self):
        with pytest.raises(LearningError):
            fit_extra_time_distribution([])

    def test_clips_negative_samples(self):
        mixture = fit_extra_time_distribution([-5.0, -1.0, 3.0, 10.0, 20.0] * 10)
        assert mixture.cdf(0.0) >= 0.0

    def test_reduces_components_for_small_samples(self):
        mixture = fit_extra_time_distribution([5.0, 6.0, 7.0, 8.0, 9.0])
        assert len(mixture.components) >= 1


class TestThresholdOptimizer:
    @pytest.fixture
    def optimizer(self):
        mixture = GaussianMixture(n_components=2, seed=9).fit(_bimodal_samples())
        return ThresholdOptimizer(mixture)

    def test_threshold_stays_in_bounds(self, optimizer):
        for penalty in (10.0, 100.0, 500.0, 2000.0):
            theta = optimizer.optimal_threshold(penalty)
            assert 0.0 <= theta <= penalty

    def test_zero_penalty_gives_zero_threshold(self, optimizer):
        assert optimizer.optimal_threshold(0.0) == 0.0
        assert optimizer.optimal_threshold(-5.0) == 0.0

    def test_threshold_is_near_the_grid_optimum(self, optimizer):
        penalty = 800.0
        theta = optimizer.optimal_threshold(penalty)
        grid = np.linspace(0.0, penalty, 400)
        best_grid = max(grid, key=lambda t: optimizer.objective(t, penalty))
        # the optimiser must reach at least 99.5% of the fine-grid optimum
        assert optimizer.objective(theta, penalty) >= 0.995 * optimizer.objective(
            best_grid, penalty
        )

    def test_expected_loss_identity(self, optimizer):
        penalty = 500.0
        theta = 120.0
        assert optimizer.expected_loss(theta, penalty) == pytest.approx(
            penalty - optimizer.objective(theta, penalty)
        )

    def test_larger_penalty_never_decreases_threshold_value(self, optimizer):
        small = optimizer.objective(
            optimizer.optimal_threshold(200.0), 200.0
        )
        large = optimizer.objective(
            optimizer.optimal_threshold(800.0), 800.0
        )
        assert large >= small

    def test_optimal_thresholds_for_orders(self, optimizer, small_network):
        orders = [make_order(small_network, 0, 5), make_order(small_network, 1, 20)]
        thresholds = optimizer.optimal_thresholds(orders)
        assert set(thresholds) == {order.order_id for order in orders}
        for order in orders:
            assert 0.0 <= thresholds[order.order_id] <= order.penalty

    def test_provider_protocol_uses_cache(self, optimizer, small_network):
        order = make_order(small_network, 0, 5)
        first = optimizer.threshold(order, 0.0)
        second = optimizer.threshold(order, 100.0)
        assert first == second
