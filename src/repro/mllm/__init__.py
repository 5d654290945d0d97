"""MLLM substrate: embeddings, CLIP substitute, sampling, tokenizers, model.

Everything the paper needs from the AI side of AI Video Chat, simulated so
that it runs offline on a laptop: a shared text/image concept space, a
MobileCLIP-style correlation map (Equation 1), the receiver-side frame
sampler (≤2 FPS, ≤602,112 pixels), continuous/discrete video tokenizers, a
quality-gated simulated MLLM and the inference latency model.
"""

from .clip import ClipConfig, ClipTextEncoder, CorrelationMap, MobileClip
from .embedding import (
    DEFAULT_CONCEPT_RELATIONS,
    DEFAULT_SYNONYMS,
    ConceptSpace,
    cosine_similarity,
)
from .inference import (
    DEFAULT_AUDIO_ONLY_FLOOR_MS,
    DEFAULT_RESPONSE_BUDGET_MS,
    LatencyBudget,
    first_response_latency_ms,
    transmission_budget_ms,
)
from .model import (
    GLM_4_5V,
    MODE_FREE_RESPONSE,
    MODE_MULTIPLE_CHOICE,
    MOBILE_MLLM,
    QWEN2_5_OMNI,
    QWEN3_VL_PLUS,
    UNCLEAR_ANSWER,
    MllmAnswer,
    MllmProfile,
    SimulatedMLLM,
)
from .sampler import (
    DEFAULT_MAX_FPS,
    DEFAULT_MAX_PIXELS,
    ReceiverSampler,
    SamplingReport,
    perceived_throughput_bps,
    sender_throughput_bps,
)
from .tokenizer import (
    ContinuousTokenizer,
    DiscreteTokenizer,
    TokenizedFrame,
    TokenizerConfig,
    TokenLossResult,
    compare_token_stream_bitrates,
    drop_and_recover_tokens,
)

__all__ = [
    "ClipConfig",
    "ClipTextEncoder",
    "ConceptSpace",
    "ContinuousTokenizer",
    "CorrelationMap",
    "DEFAULT_AUDIO_ONLY_FLOOR_MS",
    "DEFAULT_CONCEPT_RELATIONS",
    "DEFAULT_MAX_FPS",
    "DEFAULT_MAX_PIXELS",
    "DEFAULT_RESPONSE_BUDGET_MS",
    "DEFAULT_SYNONYMS",
    "DiscreteTokenizer",
    "GLM_4_5V",
    "LatencyBudget",
    "MllmAnswer",
    "MllmProfile",
    "MobileClip",
    "MODE_FREE_RESPONSE",
    "MODE_MULTIPLE_CHOICE",
    "MOBILE_MLLM",
    "QWEN2_5_OMNI",
    "QWEN3_VL_PLUS",
    "ReceiverSampler",
    "SamplingReport",
    "SimulatedMLLM",
    "TokenLossResult",
    "TokenizedFrame",
    "TokenizerConfig",
    "UNCLEAR_ANSWER",
    "compare_token_stream_bitrates",
    "cosine_similarity",
    "drop_and_recover_tokens",
    "first_response_latency_ms",
    "perceived_throughput_bps",
    "sender_throughput_bps",
    "transmission_budget_ms",
]
