"""Tests for the fast-vs-reference equivalence gate of ``net/``."""

from __future__ import annotations

import pytest

from repro.analysis.perfbench import dense_trace, equivalence_report, fastpath_mode
from repro.net.emulator import FASTPATH_ENV, fastpath_enabled


class TestFastpathMode:
    def test_toggles_and_restores(self, monkeypatch):
        monkeypatch.delenv(FASTPATH_ENV, raising=False)
        assert fastpath_enabled()
        with fastpath_mode(False):
            assert not fastpath_enabled()
            with fastpath_mode(True):
                assert fastpath_enabled()
            assert not fastpath_enabled()
        assert fastpath_enabled()

    def test_restores_explicit_previous_value(self, monkeypatch):
        monkeypatch.setenv(FASTPATH_ENV, "0")
        with fastpath_mode(True):
            assert fastpath_enabled()
        assert not fastpath_enabled()


class TestDenseTrace:
    def test_breakpoint_density(self):
        trace = dense_trace(2.0, granularity_s=0.01)
        assert len(trace.times) == 200
        assert all(rate > 0 for rate in trace.rates_bps)

    def test_minimum_two_breakpoints(self):
        assert len(dense_trace(0.0001).times) == 2


@pytest.fixture(scope="module")
def checks():
    """One equivalence report, shared by the tests that read it."""
    return equivalence_report(session_duration_s=2.0)


class TestEquivalenceReport:
    #: Every check the gate must run.  Comparing the exact key set makes a
    #: silently dropped (or renamed) check fail, not just a false one.
    CHECKS = {
        "bernoulli_block_equals_scalar",
        "gilbert_elliott_block_equals_scalar",
        "rate_at_equals_linear_scan",
        "session_stats_identical",
        "session_stats_identical_jittered",
        "session_stats_identical_single_packet_frames",
        "fec_session_stats_identical",
        "fec_session_stats_identical_jittered",
        "fec_session_stats_identical_single_packet",
        "closed_loop_stats_identical",
        "closed_loop_stats_identical_jittered",
        "closed_loop_stats_identical_lossy_feedback",
        "closed_loop_stats_identical_fec",
        "telemetry_stream_identical",
        "telemetry_stream_identical_fec",
        "telemetry_stream_identical_closed_loop",
    }

    def test_all_checks_pass(self, checks):
        assert set(checks) == self.CHECKS
        assert {name: ok for name, ok in checks.items() if ok is not True} == {}

    def test_telemetry_stream_gates_present(self, checks):
        """The gates cover the telemetry stream with the same discipline as
        the report-parity checks: scalar == fast == repeat, byte-wise."""
        for name in (
            "telemetry_stream_identical",
            "telemetry_stream_identical_fec",
            "telemetry_stream_identical_closed_loop",
        ):
            assert name in checks
            assert checks[name] is True
