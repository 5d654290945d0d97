"""Property tests for the loss models, bandwidth traces, and their specs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.spec import to_spec
from repro.net.emulator import (
    BandwidthTrace,
    BernoulliLoss,
    GilbertElliottLoss,
    bandwidth_trace_from_spec,
    expected_loss_rate,
    loss_model_from_spec,
)

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestGilbertElliottSteadyState:
    @given(
        p_good_to_bad=probabilities,
        p_bad_to_good=probabilities,
        loss_in_bad=probabilities,
        loss_in_good=probabilities,
    )
    def test_property_steady_state_in_unit_interval(
        self, p_good_to_bad, p_bad_to_good, loss_in_bad, loss_in_good
    ):
        model = GilbertElliottLoss(
            p_good_to_bad=p_good_to_bad,
            p_bad_to_good=p_bad_to_good,
            loss_in_bad=loss_in_bad,
            loss_in_good=loss_in_good,
        )
        assert 0.0 <= model.steady_state_loss <= 1.0

    @given(
        p_good_to_bad=probabilities,
        p_bad_to_good=probabilities,
        loss_in_bad=probabilities,
        loss_in_good=probabilities,
    )
    def test_property_steady_state_bounded_by_state_losses(
        self, p_good_to_bad, p_bad_to_good, loss_in_bad, loss_in_good
    ):
        model = GilbertElliottLoss(
            p_good_to_bad=p_good_to_bad,
            p_bad_to_good=p_bad_to_good,
            loss_in_bad=loss_in_bad,
            loss_in_good=loss_in_good,
        )
        low, high = sorted((loss_in_good, loss_in_bad))
        assert low - 1e-12 <= model.steady_state_loss <= high + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(
        p_good_to_bad=st.floats(min_value=0.02, max_value=0.2),
        p_bad_to_good=st.floats(min_value=0.2, max_value=0.8),
        loss_in_bad=st.floats(min_value=0.1, max_value=0.9),
    )
    def test_property_steady_state_matches_empirical_frequency(
        self, p_good_to_bad, p_bad_to_good, loss_in_bad
    ):
        """The analytic long-run loss agrees with a simulated drop frequency.

        The parameter ranges keep the chain fast-mixing so 30k samples give a
        tight empirical estimate; the tolerance accounts for the burst
        correlation inflating the estimator variance.
        """
        model = GilbertElliottLoss(
            p_good_to_bad=p_good_to_bad,
            p_bad_to_good=p_bad_to_good,
            loss_in_bad=loss_in_bad,
        )
        rng = np.random.default_rng(0)
        samples = 30_000
        drops = sum(model.should_drop(rng) for _ in range(samples))
        assert abs(drops / samples - model.steady_state_loss) < 0.05


@st.composite
def bandwidth_traces(draw):
    length = draw(st.integers(min_value=1, max_value=8))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=length,
                max_size=length,
            )
        )
    )
    rates = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
            min_size=length,
            max_size=length,
        )
    )
    return BandwidthTrace(times=times, rates_bps=rates)


class TestBandwidthTraceProperties:
    @given(trace=bandwidth_traces(), time=st.floats(min_value=-10.0, max_value=200.0))
    def test_property_rate_always_positive(self, trace, time):
        assert trace.rate_at(time) > 0.0

    @given(trace=bandwidth_traces(), time=st.floats(min_value=-10.0, max_value=200.0))
    def test_property_rate_matches_piecewise_lookup(self, trace, time):
        applicable = [r for t, r in zip(trace.times, trace.rates_bps) if t <= time]
        expected = applicable[-1] if applicable else trace.rates_bps[0]
        assert trace.rate_at(time) == pytest.approx(expected)

    @given(trace=bandwidth_traces())
    def test_property_mean_rate_within_trace_range(self, trace):
        assert min(trace.rates_bps) <= trace.mean_rate_bps <= max(trace.rates_bps)

    def test_mean_rate_is_time_weighted(self):
        # 10 Mbps for 18 s, then 1 Mbps for the last 2 s of the horizon: the
        # unweighted mean of breakpoint rates (3.25 Mbps) would be wrong.
        trace = BandwidthTrace(times=[0.0, 18.0, 19.0, 20.0], rates_bps=[10e6, 1e6, 1e6, 1e6])
        assert trace.mean_rate_bps == pytest.approx((10e6 * 18 + 1e6 * 2) / 20)

    def test_mean_rate_single_entry(self):
        assert BandwidthTrace(times=[3.0], rates_bps=[5e6]).mean_rate_bps == 5e6


class TestSpecs:
    def test_none_spec_is_lossless(self):
        model = loss_model_from_spec(None)
        assert isinstance(model, BernoulliLoss)
        assert model.loss_rate == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            loss_model_from_spec({"kind": "quantum"})

    def test_trace_roundtrip(self):
        trace = BandwidthTrace(times=[0.0, 2.0], rates_bps=[1e6, 5e6])
        rebuilt = bandwidth_trace_from_spec(to_spec(trace))
        assert rebuilt.rate_at(1.0) == 1e6
        assert rebuilt.rate_at(3.0) == 5e6
        assert bandwidth_trace_from_spec(None) is None


class TestExpectedLossRate:
    def test_analytic_for_bernoulli(self):
        assert expected_loss_rate(BernoulliLoss(0.13)) == pytest.approx(0.13)

    def test_analytic_for_gilbert_elliott(self):
        model = GilbertElliottLoss(p_good_to_bad=0.05, p_bad_to_good=0.45, loss_in_bad=0.7)
        assert expected_loss_rate(model) == pytest.approx(model.steady_state_loss)

    def test_empirical_fallback_does_not_perturb_model(self):
        class EveryOther:
            def __init__(self):
                self.calls = 0

            def should_drop(self, rng):
                self.calls += 1
                return self.calls % 2 == 0

        model = EveryOther()
        rate = expected_loss_rate(model, samples=1000)
        assert rate == pytest.approx(0.5)
        assert model.calls == 0  # probing happened on a copy
