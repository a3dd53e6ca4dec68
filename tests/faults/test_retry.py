"""Retry policy: exponential growth, caps, deterministic jitter."""

import pytest

from repro.faults.retry import RetryPolicy
from tests.builders import aggressive_retry_policy, no_retry_policy


class TestBackoff:
    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(
            base_backoff=0.1, multiplier=2.0, max_backoff=10.0, jitter=0.0
        )
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)

    def test_backoff_is_capped(self):
        policy = RetryPolicy(
            base_backoff=0.1, multiplier=10.0, max_backoff=0.5, jitter=0.0
        )
        assert policy.backoff(5) == pytest.approx(0.5)

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(base_backoff=1.0, jitter=0.25, max_backoff=1.0)
        for failures in range(1, 20):
            value = policy.backoff(failures, salt="s")
            assert 0.75 <= value <= 1.0

    def test_jitter_is_deterministic(self):
        policy = RetryPolicy(seed=7)
        assert policy.backoff(2, salt="x") == policy.backoff(2, salt="x")

    def test_salt_decorrelates_cofailing_queries(self):
        policy = RetryPolicy(base_backoff=1.0, jitter=0.5, max_backoff=1.0)
        values = {policy.backoff(1, salt=str(i)) for i in range(8)}
        assert len(values) > 1  # not retrying in lockstep

    def test_failures_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0)


class TestValidation:
    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_rejects_full_jitter(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)


class TestPresets:
    def test_none_disables_retries(self):
        policy = no_retry_policy()
        assert policy.max_attempts == 1
        assert policy.deadline == 0.0

    def test_aggressive_retries_fast_and_often(self):
        policy = aggressive_retry_policy()
        assert policy.max_attempts > RetryPolicy().max_attempts
        assert policy.base_backoff < RetryPolicy().base_backoff
