"""Tests for the dispatcher timing configuration and retry constants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.spec import from_spec, to_spec
from repro.distrib.config import (
    BACKOFF_BASE_S,
    BACKOFF_JITTER,
    BACKOFF_MAX_S,
    DEFAULT_MAX_REQUEUES,
    DEFAULT_TIMEOUTS,
    ConfigError,
    DistribTimeouts,
    backoff_seed,
    reconnect_delay_s,
)
from repro.distrib.coordinator import SweepCoordinator


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


class _MidpointRng:
    """A generator whose every draw is 0.5, so the jitter factor is exactly 1."""

    def random(self) -> float:
        return 0.5


class TestRetryPolicy:
    def test_validation(self):
        for bad in (-1, 2.7):
            with pytest.raises(ConfigError, match="max_requeues"):
                SweepCoordinator(fingerprint="f", max_requeues=bad)
        assert SweepCoordinator(fingerprint="f").max_requeues == DEFAULT_MAX_REQUEUES

    def test_delay_grows_exponentially_and_caps(self):
        delays = [reconnect_delay_s(attempt, _MidpointRng()) for attempt in range(7)]
        assert delays == pytest.approx([0.2, 0.4, 0.8, 1.6, 3.2, 5.0, 5.0])
        assert BACKOFF_MAX_S == 5.0

    def test_jittered_delays_replay_from_the_same_seed(self):
        first = [reconnect_delay_s(n, np.random.default_rng(9)) for n in range(4)]
        second = [reconnect_delay_s(n, np.random.default_rng(9)) for n in range(4)]
        assert first == second
        low, high = BACKOFF_BASE_S * (1 - BACKOFF_JITTER), BACKOFF_BASE_S * (1 + BACKOFF_JITTER)
        assert low <= first[0] <= high
        assert first[0] != BACKOFF_BASE_S


class TestBackoffSeed:
    def test_stable_and_decorrelated(self):
        assert backoff_seed("w0") == backoff_seed("w0")
        assert backoff_seed("w0") != backoff_seed("w1")
        assert 0 <= backoff_seed("any-worker") < 2**32
