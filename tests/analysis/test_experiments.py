"""Tests for the experiment runners and reporting (small, fast configurations)."""

import pytest

from repro.analysis import (
    format_figure3,
    format_figure5,
    format_figure9,
    format_mapping,
    headline_subtraction,
    run_ablation_patch_size,
    run_ablation_token_pruning,
    run_closed_loop_session,
    run_end_to_end_turn,
    run_figure10_qp_allocation,
    run_figure2_redundancy,
    run_figure3_latency,
    run_figure4_context_dependence,
    run_figure5_correlation_maps,
    run_section1_latency_budget,
    run_section21_jitter_invariance,
    run_section21_throughput_asymmetry,
    run_token_streaming_feasibility,
)
from repro.analysis.latency import BudgetScenario, budget_for_scenario
from repro.net.control import preset_controller_spec


class TestFigureRunners:
    def test_figure2_redundancy_shape(self):
        result = run_figure2_redundancy(capture_fps=30.0, duration_s=0.5, height=120, width=160)
        assert 0.9 <= result["frame_redundancy"] <= 1.0
        assert result["perceived_throughput_bps"] < result["sender_throughput_bps"]

    def test_figure3_rows_cover_grid(self):
        rows = run_figure3_latency(
            bitrates_bps=(200_000, 2_000_000), loss_rates=(0.0, 0.05), duration_s=4.0
        )
        assert len(rows) == 4
        assert all(row.mean_latency_ms > 0 for row in rows)
        assert "loss" in format_figure3(rows)

    def test_figure4_low_bitrate_breaks_detail_question(self):
        # The low-bitrate operating point is scaled down with the reduced test
        # resolution so it sits in the same perceptual regime as 200 Kbps at
        # the full 360x640 resolution.
        result = run_figure4_context_dependence(height=180, width=320, low_bitrate_bps=60_000.0)
        assert result["high_bitrate"]["detail_question_correct"]
        assert not result["low_bitrate"]["detail_question_correct"]
        assert result["low_bitrate"]["coarse_question_correct"]

    def test_figure5_targets_win(self):
        cases = run_figure5_correlation_maps(height=160, width=288)
        assert len(cases) == 3
        assert all(case.target_is_most_relevant for case in cases)
        assert "→" in format_figure5(cases)

    def test_figure10_allocation_direction(self):
        result = run_figure10_qp_allocation(target_bitrate_bps=200_000.0, height=176, width=320)
        assert (
            result["context_aware"]["important_region_bits"]
            > result["baseline"]["important_region_bits"]
        )
        assert (
            result["context_aware"]["irrelevant_region_bits"]
            < result["baseline"]["irrelevant_region_bits"]
        )


class TestSectionRunners:
    def test_section21_jitter(self):
        result = run_section21_jitter_invariance()
        assert result["mllm_input_identical"] == 1.0
        assert result["jitter_buffer_added_latency_ms"] > 0

    def test_section21_asymmetry(self):
        result = run_section21_throughput_asymmetry()
        assert result["uplink_to_downlink_ratio"] > 10

    def test_section1_budget(self):
        result = run_section1_latency_budget()
        assert result["headline"]["transmission_budget_ms"] == pytest.approx(68.0)
        assert all("total_ms" in value for key, value in result.items() if key != "headline")

    def test_end_to_end_turn_fields(self):
        result = run_end_to_end_turn(height=160, width=288, target_bitrate_bps=250_000.0)
        assert result["inference_ms"] > 0
        assert result["response_latency_ms"] >= result["inference_ms"]


class TestAblations:
    def test_patch_size_compute_monotone(self):
        result = run_ablation_patch_size(patch_sizes=(16, 64), height=160, width=288)
        assert result[16] > result[64]

    def test_token_pruning_keeps_important_region(self):
        result = run_ablation_token_pruning(keep_ratios=(0.3,), height=176, width=320)
        assert result[0.3]["important_region_kept"] > 0.5

    def test_token_streaming_bitrate_gap(self):
        result = run_token_streaming_feasibility(loss_fractions=(0.0, 0.828), height=176, width=320)
        assert result["bitrates"]["continuous_bps"] > result["bitrates"]["discrete_bps"]
        assert 0.0 <= result["recovery_quality"][0.828] <= 1.0


class TestLatencyHelpers:
    def test_headline_subtraction(self):
        result = headline_subtraction()
        assert result["transmission_budget_ms"] == pytest.approx(68.0)

    def test_budget_for_scenario_overload_is_worse(self):
        calm = budget_for_scenario(BudgetScenario(name="calm", bitrate_bps=400_000, loss_rate=0.0))
        overload = budget_for_scenario(
            BudgetScenario(name="overload", bitrate_bps=14_000_000, loss_rate=0.05)
        )
        assert overload.total_ms > calm.total_ms

    def test_format_mapping_nested(self):
        text = format_mapping("title", {"a": 1.0, "nested": {"b": 2.0}})
        assert "title" in text and "nested" in text


class TestClosedLoopExperiment:
    def test_runner_result_is_jsonable_and_closed_loop(self):
        import json

        result = run_closed_loop_session(duration_s=2.0)
        json.dumps(result)  # must not raise: sweep cells persist this verbatim
        assert result["reports_received"] > 0
        assert result["actions_applied"] == result["reports_received"] + 1
        assert result["frames_delivered"] > 0
        assert result["controller"]["kind"] == "closed_loop"
        assert 0 < result["delivered_rate_bps"] <= result["offered_rate_bps"] * 1.01

    def test_action_digest_is_deterministic(self):
        first = run_closed_loop_session(duration_s=1.5)
        second = run_closed_loop_session(duration_s=1.5)
        assert first["action_digest"] == second["action_digest"]

    def test_controller_spec_changes_the_digest(self):
        gcc = run_closed_loop_session(duration_s=1.5)
        fixed = run_closed_loop_session(
            controller={"kind": "fixed", "bitrate_bps": 2_000_000.0}, duration_s=1.5
        )
        assert gcc["action_digest"] != fixed["action_digest"]
        assert fixed["controller"]["kind"] == "fixed"

    def test_closed_loop_cells_sweep_and_cache(self, tmp_path):
        from repro.analysis import Scenario, SweepGrid, SweepRunner

        grid = SweepGrid(
            experiments=("closed_loop_session",),
            scenarios=(
                Scenario(
                    name="cl-smoke",
                    loss_model={"kind": "bernoulli", "loss_rate": 0.02},
                    overrides={
                        "controller": preset_controller_spec("aimd"),
                        "duration_s": 1.5,
                    },
                ),
            ),
            seeds=(0,),
        )
        # The controller spec survives the dispatcher's JSON wire format.
        (scenario,) = grid.scenarios
        assert Scenario.from_jsonable(scenario.to_jsonable()) == scenario
        runner = SweepRunner(results_dir=tmp_path, processes=1)
        first = runner.run(grid)
        assert first.executed == 1 and not first.failed_cells
        result = first.cells[0].result
        assert result["reports_received"] > 0
        assert result["controller"]["kind"] == "closed_loop"
        second = runner.run(grid)
        assert second.cached == 1 and second.executed == 0
        assert second.cells[0].result == result
