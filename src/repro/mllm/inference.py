"""Autoregressive MLLM inference latency model and the response-latency budget.

The paper's core latency argument (Section 1): a fluent video chat needs the
response to arrive within ~300 ms, but autoregressive MLLM inference takes at
least ~232 ms even for audio-only input (GPT-4o), leaving at most ~68 ms for
the whole RTC pipeline — and transmission must fit inside that.  This module
provides the latency model used throughout the benchmarks to convert token
counts into inference time and to compute the remaining transmission budget.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Response latency above which users perceive the peer as "not a real person".
DEFAULT_RESPONSE_BUDGET_MS = 300.0
#: Minimum computational latency for audio-only input reported for GPT-4o.
DEFAULT_AUDIO_ONLY_FLOOR_MS = 232.0


@dataclass
class InferenceConfig:
    """Latency model of a cloud MLLM serving stack."""

    #: Fixed cost per request: scheduling, tokenisation, audio encoding.
    base_latency_ms: float = 180.0
    #: Prefill cost per visual token (vision tower + attention over context).
    per_visual_token_ms: float = 0.035
    #: Prefill cost per audio/text input token.
    per_input_token_ms: float = 0.010
    #: Decode cost per generated output token (autoregressive step).
    per_output_token_ms: float = 6.5
    #: Number of output tokens before the first audio chunk can be played.
    first_chunk_output_tokens: int = 8

    def __post_init__(self) -> None:
        for name in (
            "base_latency_ms",
            "per_visual_token_ms",
            "per_input_token_ms",
            "per_output_token_ms",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.first_chunk_output_tokens < 1:
            raise ValueError("first_chunk_output_tokens must be >= 1")

    def prefill_latency_ms(self, visual_tokens: int, input_tokens: int = 32) -> float:
        return (
            self.base_latency_ms
            + visual_tokens * self.per_visual_token_ms
            + input_tokens * self.per_input_token_ms
        )

    def first_response_latency_ms(self, visual_tokens: int, input_tokens: int = 32) -> float:
        """Time until the first audible/displayable chunk of the reply exists."""
        return (
            self.prefill_latency_ms(visual_tokens, input_tokens)
            + self.first_chunk_output_tokens * self.per_output_token_ms
        )


def default_inference_config() -> InferenceConfig:
    """A configuration whose audio-only first response lands at ~232 ms.

    232 ms = base + 32 input tokens * 0.010 + 8 output tokens * 6.5
           = 180  + 0.32            + 52 ≈ 232.3 ms — matching the GPT-4o
    floor cited in Section 1 of the paper.
    """
    return InferenceConfig()


@dataclass
class LatencyBudget:
    """Decomposition of the end-to-end response latency (Section 1).

    All values in milliseconds.  ``transmission_budget_ms`` is what remains
    for the network once every other stage is accounted for — the paper's
    "at most 68 ms".
    """

    response_target_ms: float = DEFAULT_RESPONSE_BUDGET_MS
    capture_ms: float = 0.0
    encode_ms: float = 0.0
    transmission_ms: float = 0.0
    decode_ms: float = 0.0
    jitter_buffer_ms: float = 0.0
    inference_ms: float = DEFAULT_AUDIO_ONLY_FLOOR_MS
    downlink_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return (
            self.capture_ms
            + self.encode_ms
            + self.transmission_ms
            + self.decode_ms
            + self.jitter_buffer_ms
            + self.inference_ms
            + self.downlink_ms
        )

    @property
    def meets_target(self) -> bool:
        return self.total_ms <= self.response_target_ms

    @property
    def transmission_budget_ms(self) -> float:
        """Time left for uplink transmission after every other stage."""
        other = self.total_ms - self.transmission_ms
        return self.response_target_ms - other

    def breakdown(self) -> dict[str, float]:
        return {
            "capture_ms": self.capture_ms,
            "encode_ms": self.encode_ms,
            "transmission_ms": self.transmission_ms,
            "decode_ms": self.decode_ms,
            "jitter_buffer_ms": self.jitter_buffer_ms,
            "inference_ms": self.inference_ms,
            "downlink_ms": self.downlink_ms,
            "total_ms": self.total_ms,
            "target_ms": self.response_target_ms,
            "transmission_budget_ms": self.transmission_budget_ms,
        }


def transmission_budget_ms(
    inference_ms: float = DEFAULT_AUDIO_ONLY_FLOOR_MS,
    response_target_ms: float = DEFAULT_RESPONSE_BUDGET_MS,
    other_pipeline_ms: float = 0.0,
) -> float:
    """The paper's headline subtraction: 300 ms − 232 ms − other = ≤68 ms."""
    if response_target_ms <= 0:
        raise ValueError("response_target_ms must be positive")
    return response_target_ms - inference_ms - other_pipeline_ms
