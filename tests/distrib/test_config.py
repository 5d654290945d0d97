"""Tests for the unified dispatcher timing/retry configuration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.spec import from_spec, to_spec
from repro.distrib.config import (
    DEFAULT_RETRY,
    DEFAULT_TIMEOUTS,
    ConfigError,
    DistribTimeouts,
    RetryPolicy,
    backoff_seed,
)


class TestDistribTimeouts:
    def test_defaults_are_self_consistent(self):
        timeouts = DistribTimeouts()
        assert timeouts == DEFAULT_TIMEOUTS
        assert (
            timeouts.heartbeat_interval_s * DistribTimeouts.MIN_HEARTBEAT_RATIO
            <= timeouts.heartbeat_timeout_s
        )

    def test_heartbeat_interval_too_close_to_timeout_rejected(self):
        with pytest.raises(ConfigError, match="too close"):
            DistribTimeouts(heartbeat_interval_s=6.0, heartbeat_timeout_s=10.0)

    def test_wait_poll_must_stay_below_liveness_timeout(self):
        with pytest.raises(ConfigError, match="wait poll"):
            DistribTimeouts(wait_poll_s=10.0, heartbeat_timeout_s=10.0)

    @pytest.mark.parametrize(
        "field", ["wait_poll_s", "heartbeat_interval_s", "connect_timeout_s", "io_timeout_s"]
    )
    def test_nonpositive_values_rejected(self, field):
        with pytest.raises(ConfigError, match="positive"):
            DistribTimeouts(**{field: 0.0})

    def test_linger_may_be_zero_but_not_negative(self):
        assert DistribTimeouts(linger_s=0.0).linger_s == 0.0
        with pytest.raises(ConfigError, match="linger_s"):
            DistribTimeouts(linger_s=-0.1)

    def test_spec_round_trip(self):
        timeouts = DistribTimeouts(heartbeat_interval_s=0.5, heartbeat_timeout_s=2.0)
        assert from_spec(DistribTimeouts, to_spec(timeouts)) == timeouts

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown DistribTimeouts field"):
            from_spec(DistribTimeouts, {"hartbeat_timeout_s": 5.0})

    def test_override_revalidates(self):
        quick = DEFAULT_TIMEOUTS.override(
            heartbeat_interval_s=0.1, heartbeat_timeout_s=0.5
        )
        assert quick.heartbeat_timeout_s == 0.5
        assert quick.io_timeout_s == DEFAULT_TIMEOUTS.io_timeout_s
        # Overriding one side of the invariant alone must not slip through.
        with pytest.raises(ConfigError, match="too close"):
            DEFAULT_TIMEOUTS.override(heartbeat_timeout_s=1.0)

    def test_override_ignores_none(self):
        assert DEFAULT_TIMEOUTS.override(heartbeat_timeout_s=None) is DEFAULT_TIMEOUTS


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError, match="max_requeues"):
            RetryPolicy(max_requeues=-1)
        with pytest.raises(ConfigError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigError, match="backoff_max_s"):
            RetryPolicy(backoff_base_s=1.0, backoff_max_s=0.5)
        with pytest.raises(ConfigError, match="jitter"):
            RetryPolicy(jitter=1.0)

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(backoff_base_s=0.2, backoff_factor=2.0, backoff_max_s=1.0, jitter=0.0)
        rng = np.random.default_rng(0)
        delays = [policy.delay_s(attempt, rng) for attempt in range(5)]
        assert delays == [0.2, 0.4, 0.8, 1.0, 1.0]

    def test_jittered_delays_replay_from_the_same_seed(self):
        policy = DEFAULT_RETRY
        first = [policy.delay_s(n, np.random.default_rng(9)) for n in range(4)][0:4]
        second = [policy.delay_s(n, np.random.default_rng(9)) for n in range(4)][0:4]
        assert first == second
        base = policy.backoff_base_s
        low, high = base * (1 - policy.jitter), base * (1 + policy.jitter)
        assert low <= first[0] <= high

    def test_spec_round_trip(self):
        policy = RetryPolicy(max_requeues=7, jitter=0.25)
        assert from_spec(RetryPolicy, to_spec(policy)) == policy

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown RetryPolicy field"):
            from_spec(RetryPolicy, {"retries": 3})


class TestBackoffSeed:
    def test_stable_and_decorrelated(self):
        assert backoff_seed("w0") == backoff_seed("w0")
        assert backoff_seed("w0") != backoff_seed("w1")
        assert 0 <= backoff_seed("any-worker") < 2**32
