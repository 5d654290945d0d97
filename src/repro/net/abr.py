"""Adaptive bitrate (ABR) policies.

The paper contrasts two operating regions for bitrate selection (Figure 3):

* the **grey region** used by traditional RTC, where ABR pushes the bitrate
  as close as possible to (but below) the estimated bandwidth to maximise
  human-perceived quality; and
* the **yellow region** available to AI Video Chat, where bitrate can be
  pushed far below the bandwidth because MLLM accuracy — not perceptual
  quality — is the objective, and a lower bitrate means fewer packets per
  frame and therefore lower transmission latency under loss.

This module implements both families: classic throughput/buffer-based ABR
policies and the AI-oriented policy that selects the minimum bitrate meeting
an accuracy constraint supplied by the context-aware streaming layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


@dataclass(slots=True)
class AbrDecision:
    """The outcome of one ABR decision."""

    bitrate_bps: float
    reason: str
    headroom_ratio: float


class AbrPolicy:
    """Interface for bitrate selection policies."""

    def decide(self, bandwidth_estimate_bps: float, **observations: float) -> AbrDecision:
        raise NotImplementedError  # pragma: no cover - interface


@dataclass(slots=True)
class ThroughputAbr(AbrPolicy):
    """Traditional throughput-based ABR: track the bandwidth estimate.

    Selects the largest ladder rung below ``safety_factor`` times the
    estimate — the grey region of Figure 3.
    """

    ladder_bps: Sequence[float] = (
        300_000.0,
        600_000.0,
        1_000_000.0,
        2_000_000.0,
        4_000_000.0,
        6_000_000.0,
        8_000_000.0,
        10_000_000.0,
    )
    safety_factor: float = 0.95

    def decide(self, bandwidth_estimate_bps: float, **observations: float) -> AbrDecision:
        budget = bandwidth_estimate_bps * self.safety_factor
        eligible = [rate for rate in self.ladder_bps if rate <= budget]
        chosen = max(eligible) if eligible else min(self.ladder_bps)
        headroom = chosen / bandwidth_estimate_bps if bandwidth_estimate_bps > 0 else float("inf")
        return AbrDecision(bitrate_bps=chosen, reason="throughput", headroom_ratio=headroom)


@dataclass(slots=True)
class BufferBasedAbr(AbrPolicy):
    """Buffer-based ABR in the spirit of BBA (Huang et al., SIGCOMM 2014).

    The receiver-side buffer occupancy (seconds of video queued for playback)
    drives the rate: below ``reservoir_s`` pick the lowest rate, above
    ``cushion_s`` pick the highest, and interpolate linearly in between.
    Included as the second traditional baseline the paper alludes to.
    """

    ladder_bps: Sequence[float] = (
        300_000.0,
        600_000.0,
        1_000_000.0,
        2_000_000.0,
        4_000_000.0,
        8_000_000.0,
    )
    reservoir_s: float = 0.05
    cushion_s: float = 0.5

    def decide(self, bandwidth_estimate_bps: float, **observations: float) -> AbrDecision:
        buffer_s = float(observations.get("buffer_s", 0.0))
        rates = sorted(self.ladder_bps)
        if buffer_s <= self.reservoir_s:
            chosen = rates[0]
        elif buffer_s >= self.cushion_s:
            chosen = rates[-1]
        else:
            fraction = (buffer_s - self.reservoir_s) / (self.cushion_s - self.reservoir_s)
            index = int(round(fraction * (len(rates) - 1)))
            chosen = rates[index]
        # Never exceed the bandwidth estimate, mirroring hybrid deployments.
        eligible = [rate for rate in rates if rate <= bandwidth_estimate_bps]
        if eligible:
            chosen = min(chosen, max(eligible))
        headroom = chosen / bandwidth_estimate_bps if bandwidth_estimate_bps > 0 else float("inf")
        return AbrDecision(bitrate_bps=chosen, reason="buffer", headroom_ratio=headroom)


@dataclass(slots=True)
class AiOrientedAbr(AbrPolicy):
    """AI-oriented bitrate selection: the yellow region of Figure 3.

    Rather than maximising quality subject to bandwidth, this policy selects
    the *minimum* bitrate whose predicted MLLM accuracy meets a target.  The
    accuracy predictor is supplied by the context-aware streaming layer
    (:mod:`repro.core`): given a candidate bitrate it returns the expected
    response accuracy for the current chat context.  A latency predictor (the
    analytical model behind Figure 3) can additionally cap the candidate set
    to those meeting the transmission-latency budget.
    """

    candidate_bitrates_bps: Sequence[float] = (
        100_000.0,
        200_000.0,
        400_000.0,
        600_000.0,
        800_000.0,
        1_200_000.0,
        2_000_000.0,
        4_000_000.0,
    )
    accuracy_target: float = 0.85
    latency_budget_s: Optional[float] = None
    accuracy_predictor: Optional[Callable[[float], float]] = None
    latency_predictor: Optional[Callable[[float], float]] = None

    def decide(self, bandwidth_estimate_bps: float, **observations: float) -> AbrDecision:
        candidates = sorted(rate for rate in self.candidate_bitrates_bps if rate <= bandwidth_estimate_bps)
        if not candidates:
            candidates = [min(self.candidate_bitrates_bps)]

        if self.latency_budget_s is not None and self.latency_predictor is not None:
            within_budget = [
                rate for rate in candidates if self.latency_predictor(rate) <= self.latency_budget_s
            ]
            if within_budget:
                candidates = within_budget

        if self.accuracy_predictor is None:
            chosen = candidates[0]
            reason = "min-bitrate"
        else:
            chosen = None
            for rate in candidates:
                if self.accuracy_predictor(rate) >= self.accuracy_target:
                    chosen = rate
                    break
            if chosen is None:
                chosen = candidates[-1]
                reason = "accuracy-unreachable"
            else:
                reason = "accuracy-constrained"
        headroom = chosen / bandwidth_estimate_bps if bandwidth_estimate_bps > 0 else float("inf")
        return AbrDecision(bitrate_bps=float(chosen), reason=reason, headroom_ratio=headroom)


def expected_frame_latency(
    bitrate_bps: float,
    fps: float,
    bandwidth_bps: float,
    loss_rate: float,
    rtt_s: float,
    mtu_bytes: int = 1400,
    propagation_delay_s: float = 0.030,
    max_rounds: int = 8,
) -> float:
    """Analytic expected frame transmission latency.

    This is the closed-form counterpart of the Figure 3 measurement and is
    used by :class:`AiOrientedAbr` as a latency predictor.  A frame of
    ``bitrate / fps`` bits is split into ``n`` MTU packets; the chance that
    all arrive in one attempt is ``(1-p)^n``; each additional NACK round costs
    roughly one RTT.  Above the bandwidth the queueing term grows without
    bound, reproducing the latency blow-up in the grey-to-overload region.
    """
    if bitrate_bps <= 0 or fps <= 0 or bandwidth_bps <= 0:
        raise ValueError("bitrate_bps, fps and bandwidth_bps must be positive")
    frame_bits = bitrate_bps / fps
    packets = max(1, int(np.ceil(frame_bits / (mtu_bytes * 8))))
    serialization = frame_bits / bandwidth_bps

    # Expected number of NACK rounds: each round the remaining packets are
    # independently lost with probability p.
    expected_rounds = 0.0
    p_any_missing = 1.0 - (1.0 - loss_rate) ** packets
    survivors = packets * loss_rate
    probability = p_any_missing
    for _ in range(max_rounds):
        if probability < 1e-9 or survivors < 1e-9:
            break
        expected_rounds += probability
        probability *= 1.0 - (1.0 - loss_rate) ** max(survivors, 1e-9)
        survivors *= loss_rate

    # Queueing delay: when the offered load exceeds the bandwidth, the queue
    # grows by (load - bandwidth) per second; approximate the average backlog
    # over a one-second horizon.
    overload = max(0.0, bitrate_bps - bandwidth_bps)
    queueing = 0.0 if overload <= 0 else 0.5 * overload / bandwidth_bps

    return propagation_delay_s + serialization + expected_rounds * rtt_s + queueing
