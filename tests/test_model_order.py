"""Unit tests for the Order entity and outcome records."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.model.order import Order, OrderOutcome


def _order(**overrides):
    defaults = dict(
        pickup=0,
        dropoff=5,
        release_time=100.0,
        shortest_time=300.0,
        deadline=100.0 + 1.6 * 300.0,
        wait_limit=0.8 * 300.0,
    )
    defaults.update(overrides)
    return Order(**defaults)


class TestOrderValidation:
    def test_requires_positive_riders(self):
        with pytest.raises(ConfigurationError):
            _order(riders=0)

    def test_requires_non_negative_shortest_time(self):
        with pytest.raises(ConfigurationError):
            _order(shortest_time=-1.0)

    def test_deadline_must_follow_release(self):
        with pytest.raises(ConfigurationError):
            _order(deadline=50.0)

    def test_wait_limit_must_be_non_negative(self):
        with pytest.raises(ConfigurationError):
            _order(wait_limit=-10.0)

    def test_ids_are_unique(self):
        assert _order().order_id != _order().order_id


class TestOrderDerivedQuantities:
    def test_max_response_time(self):
        order = _order()
        # tau - t - cost = 1.6*300 - 300 = 180
        assert order.max_response_time == pytest.approx(180.0)

    def test_penalty_equals_max_response(self):
        order = _order()
        assert order.penalty == order.max_response_time

    def test_max_response_clamped_at_zero(self):
        order = _order(deadline=100.0 + 200.0)  # tighter than the direct trip
        assert order.max_response_time == 0.0

    def test_timeout_time(self):
        order = _order()
        assert order.timeout_time == pytest.approx(100.0 + 240.0)

    def test_slack_decreases_over_time(self):
        order = _order()
        assert order.slack_at(100.0) == pytest.approx(180.0)
        assert order.slack_at(200.0) == pytest.approx(80.0)

    def test_is_expired(self):
        order = _order()
        assert not order.is_expired(100.0)
        assert not order.is_expired(279.0)
        assert order.is_expired(281.0)

    def test_equality_and_hash_by_id(self):
        order = _order()
        clone = _order(order_id=order.order_id)
        assert order == clone
        assert hash(order) == hash(clone)
        assert order != "not-an-order"


class TestOrderOutcome:
    def test_served_contribution_uses_extra_time(self):
        outcome = OrderOutcome(
            order_id=1, served=True, extra_time=42.0, penalty=100.0
        )
        assert outcome.objective_contribution() == 42.0

    def test_rejected_contribution_uses_penalty(self):
        outcome = OrderOutcome(order_id=1, served=False, penalty=100.0)
        assert outcome.objective_contribution() == 100.0
