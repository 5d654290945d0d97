"""The paper's contribution: context-aware video streaming for AI receivers.

This package holds the primary contribution (Equations 1 and 2 — user-word /
video-region correlation mapped to per-region QP), the end-to-end AI Video
Chat pipeline, and the Section 4 extensions (proactive context awareness,
semantic layered streaming, and context-aware token pruning).
"""

from .context_aware import (
    ContextAwareStreamer,
    EncodeOutcome,
    StreamingConfig,
    UniformStreamer,
)
from .patches import Patch, PatchGrid
from .pipeline import AIVideoChatSession, ChatSessionConfig, ChatTurnResult
from .proactive import (
    HistoryProactivePolicy,
    HybridProactivePolicy,
    ProactivePolicy,
    SaliencyProactivePolicy,
)
from .qp_map import (
    PAPER_GAMMA,
    QpMapConfig,
    correlation_to_qp,
    qp_map_statistics,
    qp_to_expected_correlation,
    uniform_qp_map,
)
from .semantic_layers import (
    LayerConfig,
    LayeredEncodeResult,
    SemanticLayer,
    SemanticLayeredEncoder,
)
from .token_pruning import ContextAwareTokenPruner, PruningConfig, PruningResult

__all__ = [
    "AIVideoChatSession",
    "ChatSessionConfig",
    "ChatTurnResult",
    "ContextAwareStreamer",
    "ContextAwareTokenPruner",
    "EncodeOutcome",
    "HistoryProactivePolicy",
    "HybridProactivePolicy",
    "LayerConfig",
    "LayeredEncodeResult",
    "PAPER_GAMMA",
    "Patch",
    "PatchGrid",
    "ProactivePolicy",
    "PruningConfig",
    "PruningResult",
    "QpMapConfig",
    "SaliencyProactivePolicy",
    "SemanticLayer",
    "SemanticLayeredEncoder",
    "StreamingConfig",
    "UniformStreamer",
    "correlation_to_qp",
    "qp_map_statistics",
    "qp_to_expected_correlation",
    "uniform_qp_map",
]
