"""End-to-end response-latency analysis (Section 1 and Section 2.2).

Builds the latency decomposition the paper opens with: a 300 ms response
target, a ≥232 ms autoregressive-inference floor, and whatever is left for
the RTC pipeline.  The transport side of the budget is fed either by the
analytic model (:func:`repro.net.abr.expected_frame_latency`) or by measured
transmission latencies from the event simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mllm.inference import (
    DEFAULT_AUDIO_ONLY_FLOOR_MS,
    DEFAULT_RESPONSE_BUDGET_MS,
    LatencyBudget,
    first_response_latency_ms,
)
from ..net.abr import expected_frame_latency

#: The path and codec every budget scenario shares: a 10 Mbps uplink with
#: 30 ms one-way delay, frames at 2 fps, 8 ms encode and 4 ms decode.
BANDWIDTH_BPS = 10_000_000.0
ONE_WAY_DELAY_S = 0.030
FPS = 2.0
ENCODE_MS = 8.0
DECODE_MS = 4.0


@dataclass
class BudgetScenario:
    """One operating point for the latency-budget analysis."""

    name: str
    bitrate_bps: float
    loss_rate: float
    visual_tokens: int = 600
    jitter_buffer_ms: float = 0.0


def budget_for_scenario(scenario: BudgetScenario) -> LatencyBudget:
    """Assemble the latency budget of one scenario."""
    transmission_s = expected_frame_latency(
        scenario.bitrate_bps,
        fps=FPS,
        bandwidth_bps=BANDWIDTH_BPS,
        loss_rate=scenario.loss_rate,
        rtt_s=2 * ONE_WAY_DELAY_S,
        propagation_delay_s=ONE_WAY_DELAY_S,
    )
    inference_ms = first_response_latency_ms(scenario.visual_tokens)
    return LatencyBudget(
        response_target_ms=DEFAULT_RESPONSE_BUDGET_MS,
        capture_ms=1000.0 / 60.0,
        encode_ms=ENCODE_MS,
        transmission_ms=transmission_s * 1000.0,
        decode_ms=DECODE_MS,
        jitter_buffer_ms=scenario.jitter_buffer_ms,
        inference_ms=inference_ms,
        downlink_ms=ONE_WAY_DELAY_S * 1000.0,
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
