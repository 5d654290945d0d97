"""Tests for the generic JSON spec functions (repro.core.spec).

One table covers every spec class: ``to_spec`` and back returns an equal
object, and an unknown field raises :class:`ConfigError`.  The negative
cases pin inputs the family-level factories used to accept or reject with
the wrong error.
"""

from __future__ import annotations

import json

import pytest

from repro.core.spec import ConfigError, from_spec, to_spec
from repro.distrib.chaos import FaultPlan
from repro.distrib.config import DistribTimeouts
from repro.net.abr import AiOrientedAbr, BufferBasedAbr, ThroughputAbr
from repro.net.congestion import AimdConfig, GccConfig
from repro.net.control import (
    ABR_KINDS,
    ESTIMATOR_KINDS,
    FixedController,
    controller_from_spec,
    preset_controller_spec,
)
from repro.net.emulator import (
    LOSS_KINDS,
    BandwidthTrace,
    BernoulliLoss,
    GilbertElliottLoss,
    bandwidth_trace_from_spec,
    loss_model_from_spec,
)

#: ``(object, kinds)`` for every spec class, each away from its defaults.
SPEC_OBJECTS = [
    (BernoulliLoss(0.07), LOSS_KINDS),
    (
        GilbertElliottLoss(p_good_to_bad=0.04, p_bad_to_good=0.5, loss_in_bad=0.6, loss_in_good=0.01),
        LOSS_KINDS,
    ),
    (BandwidthTrace(times=[0.0, 2.0], rates_bps=[1e6, 5e6]), None),
    (GccConfig(initial_rate_bps=2e6, window=12), ESTIMATOR_KINDS),
    (AimdConfig(additive_increase_bps=5e4, loss_threshold=0.05), ESTIMATOR_KINDS),
    (ThroughputAbr(ladder_bps=(2e5, 8e5), safety_factor=0.8), ABR_KINDS),
    (BufferBasedAbr(reservoir_s=0.1, cushion_s=0.8), ABR_KINDS),
    (AiOrientedAbr(candidate_bitrates_bps=(5e5, 1e6), latency_budget_s=0.3), ABR_KINDS),
    (FixedController(bitrate_bps=1.5e6, fec_overhead_ratio=0.2), None),
    (FaultPlan(name="p", seed=7, corrupt_prob=0.1, crash_after=3), None),
    (DistribTimeouts(heartbeat_interval_s=0.5, heartbeat_timeout_s=2.0), None),
]


@pytest.mark.parametrize(
    "obj, kinds", SPEC_OBJECTS, ids=[type(obj).__name__ for obj, _ in SPEC_OBJECTS]
)
def test_round_trip_and_unknown_field(obj, kinds):
    spec = json.loads(json.dumps(to_spec(obj, kinds)))
    rebuilt = from_spec(kinds if kinds is not None else type(obj), spec)
    assert type(rebuilt) is type(obj)
    assert rebuilt == obj
    with pytest.raises(ConfigError, match=type(obj).__name__):
        from_spec(kinds if kinds is not None else type(obj), {**spec, "bogus_field": 1})


def test_to_spec_rejects_a_class_outside_its_kinds():
    with pytest.raises(ConfigError, match="BernoulliLoss"):
        to_spec(BernoulliLoss(0.1), ABR_KINDS)


def test_none_fields_are_left_out():
    assert "crash_after" not in to_spec(FaultPlan(name="p", seed=0))
    assert "fec_overhead_ratio" not in to_spec(FixedController())


class TestRejectedAtTheFactories:
    """Inputs the hand-rolled factories accepted or rejected with TypeError."""

    def test_private_gilbert_elliott_state_is_not_a_spec_field(self):
        with pytest.raises(ConfigError, match="_in_bad_state"):
            loss_model_from_spec({"kind": "gilbert_elliott", "_in_bad_state": True})

    def test_extra_bandwidth_trace_key_rejected(self):
        with pytest.raises(ConfigError, match="BandwidthTrace"):
            bandwidth_trace_from_spec({"times": [0.0], "rates_bps": [1e6], "loop": True})

    def test_unknown_closed_loop_field_is_named(self):
        with pytest.raises(ConfigError, match="ClosedLoopController.*bogus"):
            controller_from_spec({**preset_controller_spec("gcc"), "bogus": 1})

    @pytest.mark.parametrize(
        "build, spec",
        [
            (loss_model_from_spec, {"kind": "bernoulli", "rate": 0.1}),
            (controller_from_spec, {"kind": "closed_loop", "estimator": {"kind": "gcc", "windw": 3}}),
            (controller_from_spec, {"kind": "fixed", "bitrate": 1e6}),
        ],
        ids=["bernoulli", "gcc", "fixed"],
    )
    def test_unknown_field_is_a_config_error(self, build, spec):
        with pytest.raises(ConfigError):
            build(spec)
