"""End-to-end response-latency analysis (Section 1 and Section 2.2).

Builds the latency decomposition the paper opens with: a 300 ms response
target, a ≥232 ms autoregressive-inference floor, and whatever is left for
the RTC pipeline.  The transport side of the budget is fed either by the
analytic model (:func:`repro.net.abr.expected_frame_latency`) or by measured
transmission latencies from the event simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..mllm.inference import (
    DEFAULT_AUDIO_ONLY_FLOOR_MS,
    DEFAULT_RESPONSE_BUDGET_MS,
    InferenceConfig,
    LatencyBudget,
    default_inference_config,
)
from ..net.abr import expected_frame_latency


@dataclass
class BudgetScenario:
    """One operating point for the latency-budget analysis."""

    name: str
    bitrate_bps: float
    loss_rate: float
    bandwidth_bps: float = 10_000_000.0
    one_way_delay_s: float = 0.030
    fps: float = 2.0
    visual_tokens: int = 600
    encode_ms: float = 8.0
    decode_ms: float = 4.0
    jitter_buffer_ms: float = 0.0


def budget_for_scenario(
    scenario: BudgetScenario,
    inference_config: Optional[InferenceConfig] = None,
) -> LatencyBudget:
    """Assemble the latency budget of one scenario."""
    inference_config = inference_config or default_inference_config()
    transmission_s = expected_frame_latency(
        scenario.bitrate_bps,
        fps=scenario.fps,
        bandwidth_bps=scenario.bandwidth_bps,
        loss_rate=scenario.loss_rate,
        rtt_s=2 * scenario.one_way_delay_s,
        propagation_delay_s=scenario.one_way_delay_s,
    )
    inference_ms = inference_config.first_response_latency_ms(scenario.visual_tokens)
    return LatencyBudget(
        response_target_ms=DEFAULT_RESPONSE_BUDGET_MS,
        capture_ms=1000.0 / 60.0,
        encode_ms=scenario.encode_ms,
        transmission_ms=transmission_s * 1000.0,
        decode_ms=scenario.decode_ms,
        jitter_buffer_ms=scenario.jitter_buffer_ms,
        inference_ms=inference_ms,
        downlink_ms=scenario.one_way_delay_s * 1000.0,
    )


def default_budget_scenarios() -> list[BudgetScenario]:
    """Scenarios contrasting traditional-RTC and AI-oriented operating points."""
    return [
        BudgetScenario(
            name="traditional-abr-4mbps",
            bitrate_bps=4_000_000.0,
            loss_rate=0.02,
            jitter_buffer_ms=50.0,
            visual_tokens=900,
        ),
        BudgetScenario(
            name="traditional-abr-8mbps-lossy",
            bitrate_bps=8_000_000.0,
            loss_rate=0.05,
            jitter_buffer_ms=50.0,
            visual_tokens=900,
        ),
        BudgetScenario(
            name="ai-oriented-400kbps",
            bitrate_bps=400_000.0,
            loss_rate=0.02,
            jitter_buffer_ms=0.0,
            visual_tokens=600,
        ),
        BudgetScenario(
            name="ai-oriented-context-aware-200kbps",
            bitrate_bps=200_000.0,
            loss_rate=0.05,
            jitter_buffer_ms=0.0,
            visual_tokens=300,
        ),
    ]


def headline_subtraction() -> dict[str, float]:
    """The paper's Section 1 arithmetic: 300 − 232 ⇒ at most ~68 ms for RTC."""
    remaining = DEFAULT_RESPONSE_BUDGET_MS - DEFAULT_AUDIO_ONLY_FLOOR_MS
    return {
        "response_target_ms": DEFAULT_RESPONSE_BUDGET_MS,
        "inference_floor_ms": DEFAULT_AUDIO_ONLY_FLOOR_MS,
        "transmission_budget_ms": remaining,
    }
