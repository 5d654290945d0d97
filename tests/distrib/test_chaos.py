"""Tests for the deterministic chaos harness (repro.distrib.chaos)."""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.analysis.sweeps import (
    SweepGrid,
    SweepRunner,
    bernoulli_scenario,
    gilbert_elliott_scenario,
)
from repro.distrib.chaos import (
    PRESET_PLANS,
    ChaosChannel,
    ChaosInjected,
    FaultPlan,
    load_stripped_records,
    run_plan,
    sample_plans,
)
from repro.core.spec import from_spec, to_spec
from repro.distrib.config import ConfigError
from repro.distrib.protocol import ProtocolError, recv_message


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ConfigError, match="name"):
            FaultPlan(name="", seed=0)
        with pytest.raises(ConfigError, match="seed"):
            FaultPlan(name="p", seed=-1)
        with pytest.raises(ConfigError, match="drop_prob"):
            FaultPlan(name="p", seed=0, drop_prob=1.5)
        with pytest.raises(ConfigError, match="stall_s"):
            FaultPlan(name="p", seed=0, stall_s=-0.1)
        with pytest.raises(ConfigError, match="crash_after"):
            FaultPlan(name="p", seed=0, crash_after=0)
        with pytest.raises(ConfigError, match="max_reconnects"):
            FaultPlan(name="p", seed=0, max_reconnects=-1)

    def test_spec_round_trip(self):
        plan = FaultPlan(name="p", seed=7, corrupt_prob=0.1, crash_after=3)
        assert from_spec(FaultPlan, to_spec(plan)) == plan

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown FaultPlan field"):
            from_spec(FaultPlan, {"name": "p", "seed": 0, "chaos_level": 11})

    def test_presets_cover_the_ci_trio(self):
        assert {"crash", "partition", "corrupt-frame"} <= set(PRESET_PLANS)
        for name, plan in PRESET_PLANS.items():
            assert plan.name == name  # a preset names one exact schedule

    def test_sample_plans_replay_from_the_same_seed(self):
        assert sample_plans(6, seed=3) == sample_plans(6, seed=3)
        assert sample_plans(6, seed=3) != sample_plans(6, seed=4)
        assert [plan.name for plan in sample_plans(3, seed=3)] == [
            "sampled-3-0",
            "sampled-3-1",
            "sampled-3-2",
        ]


def chaos_pair(plan, worker_index=0, attempt=0):
    a, b = socket.socketpair()
    return ChaosChannel(a, plan, worker_index, attempt), b


class TestChaosChannel:
    """Unit-level fault injection over a socketpair — no coordinator."""

    def test_drop_severs_session_messages(self):
        channel, peer = chaos_pair(FaultPlan(name="p", seed=0, drop_prob=1.0))
        try:
            with pytest.raises(ChaosInjected, match="lost"):
                channel.send("next")
        finally:
            channel.close(), peer.close()

    def test_dropped_heartbeats_are_silent(self):
        channel, peer = chaos_pair(FaultPlan(name="p", seed=0, drop_prob=1.0))
        try:
            channel.send("heartbeat")  # swallowed, no exception, no bytes
            channel.close()
            assert recv_message(peer) is None  # peer saw a clean EOF only
        finally:
            peer.close()

    def test_crash_after_preempts_exactly_at_the_nth_op(self):
        channel, peer = chaos_pair(FaultPlan(name="p", seed=0, crash_after=2))
        try:
            channel.send("next")  # op 0
            channel.send("next")  # op 1
            with pytest.raises(ChaosInjected, match="crash point"):
                channel.send("next")  # op 2 — the crash point
            assert recv_message(peer)["type"] == "next"
            assert recv_message(peer)["type"] == "next"
        finally:
            channel.close(), peer.close()

    def test_corrupt_send_puts_real_bad_bytes_on_the_wire(self):
        channel, peer = chaos_pair(FaultPlan(name="p", seed=1, corrupt_prob=1.0))
        try:
            with pytest.raises(ChaosInjected, match="corrupted"):
                channel.send("result", task_id="t")
            channel.close()
            # Whatever corruption mode fired, the peer must reject the frame
            # with a typed ProtocolError — never parse it as a message.
            with pytest.raises(ProtocolError):
                recv_message(peer)
        finally:
            peer.close()

    def test_result_loss_targets_only_result_messages(self):
        plan = FaultPlan(name="p", seed=0, result_loss_prob=1.0)
        channel, peer = chaos_pair(plan)
        try:
            channel.send("next")  # not a result: untouched
            with pytest.raises(ChaosInjected, match="result lost"):
                channel.send("result", task_id="t")
        finally:
            channel.close(), peer.close()

    def test_fault_schedule_is_a_pure_function_of_coordinates(self):
        """The same (seed, worker, attempt) replays the identical fault
        sequence; a different attempt draws a different one."""
        plan = FaultPlan(name="p", seed=42, drop_prob=0.3)

        def schedule(attempt):
            channel, peer = chaos_pair(plan, attempt=attempt)
            fired = []
            try:
                for _ in range(40):
                    try:
                        channel.send("next")
                        fired.append(False)
                    except ChaosInjected:
                        fired.append(True)
            finally:
                channel.close(), peer.close()
            return fired

        first, replay = schedule(attempt=0), schedule(attempt=0)
        assert first == replay
        assert any(first)  # the plan actually fired at p=0.3 over 40 ops
        assert schedule(attempt=1) != first


# ---------------------------------------------------------------------------
# End-to-end convergence under chaos
# ---------------------------------------------------------------------------


def small_grid():
    return SweepGrid(
        experiments=("section1_latency_budget",),
        scenarios=(bernoulli_scenario(0.02), gilbert_elliott_scenario(p_good_to_bad=0.05)),
        seeds=(0, 1),
    )


@pytest.fixture(scope="module")
def fault_free_baseline(tmp_path_factory):
    results_dir = tmp_path_factory.mktemp("chaos-baseline")
    report = SweepRunner(results_dir=results_dir, processes=1).run(small_grid())
    assert not report.failed_cells
    return load_stripped_records(results_dir)


class TestRunPlan:
    @pytest.mark.parametrize("kill_seed", range(10))
    def test_kill_at_random_point_converges_byte_identically(
        self, kill_seed, fault_free_baseline, tmp_path
    ):
        """Satellite property test: preempt workers at a chaos-chosen message
        across 10 seeds; the persisted tree must match the fault-free
        baseline byte for byte (run_plan checks this plus exactly-once,
        accounting, cached re-run and thread-leak invariants)."""
        rng = np.random.default_rng(kill_seed)
        plan = FaultPlan(
            name=f"kill-{kill_seed}",
            seed=kill_seed,
            crash_after=int(rng.integers(1, 20)),
            max_reconnects=4,
        )
        outcome = run_plan(
            plan,
            small_grid(),
            fault_free_baseline,
            tmp_path / "results",
            workers=1,
            startup_timeout_s=1.0,
        )
        assert outcome.ok, outcome.summary_line()

    def test_lost_results_are_reoffered_not_recomputed(
        self, fault_free_baseline, tmp_path
    ):
        """The dispatch ledger proves elasticity: with seed 3 the worker
        loses results in transit and redials, yet executes each of the 4
        cells exactly once — every requeued dispatch is served from its
        completed-cell cache (empirically stable schedule, see chaos.py's
        determinism contract)."""
        plan = FaultPlan(name="reoffer", seed=3, result_loss_prob=0.5, max_reconnects=6)
        outcome = run_plan(
            plan,
            small_grid(),
            fault_free_baseline,
            tmp_path / "results",
            workers=1,
            startup_timeout_s=2.0,
        )
        assert outcome.ok, outcome.summary_line()
        assert outcome.executed_by_workers == 4  # one real run per cell
        assert outcome.cache_reoffers == 3
        assert outcome.dispatched == 7  # 4 first serves + 3 re-serves
        assert outcome.fallback_cells == 0

    def test_same_plan_replays_the_same_ledger(self, fault_free_baseline, tmp_path):
        plan = FaultPlan(name="replay", seed=3, result_loss_prob=0.5, max_reconnects=6)

        def ledger(tag):
            outcome = run_plan(
                plan,
                small_grid(),
                fault_free_baseline,
                tmp_path / tag,
                workers=1,
                startup_timeout_s=2.0,
            )
            assert outcome.ok, outcome.summary_line()
            return (
                outcome.dispatched,
                outcome.executed_by_workers,
                outcome.cache_reoffers,
                outcome.reconnects,
            )

        assert ledger("first") == ledger("second")

    def test_empty_fleet_degrades_to_local_fallback(self, fault_free_baseline, tmp_path):
        """With no workers at all the sweep still converges: the backend
        falls back to the local pool and every invariant holds."""
        plan = FaultPlan(name="nobody", seed=0)
        outcome = run_plan(
            plan,
            small_grid(),
            fault_free_baseline,
            tmp_path / "results",
            workers=0,
            startup_timeout_s=0.3,
        )
        assert outcome.ok, outcome.summary_line()
        assert outcome.executed_by_workers == 0
        assert outcome.fallback_cells == 4
