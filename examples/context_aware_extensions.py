"""The Section 4 extensions in one walkthrough.

Demonstrates the open-question prototypes on a park scene:

* proactive context awareness (no user words yet),
* semantic layered streaming (base layer now, enhancement layers offline),
* context-aware token pruning to cut inference latency.

Run with:  python examples/context_aware_extensions.py
"""

from __future__ import annotations

from repro.core import (
    ContextAwareStreamer,
    ContextAwareTokenPruner,
    HybridProactivePolicy,
    PruningConfig,
    SemanticLayeredEncoder,
)
from repro.video import make_park_scene


def main() -> None:
    scene = make_park_scene(seed=1, height=240, width=432)
    source = scene.to_source()
    frame = source.frame_at(0)
    ear_fact = next(f for f in scene.facts if f.key == "ear_type")

    streamer = ContextAwareStreamer()

    # 1. Reactive context awareness: the user just asked about the dog's ears.
    reactive = streamer.correlation_for(scene, ear_fact.question, frame)
    print("reactive: most relevant patches", reactive.top_patches(3))

    # 2. Proactive: before the next question arrives, blend saliency with the
    #    dialogue history so important regions stay protected.
    proactive = HybridProactivePolicy(patch_size=streamer.config.patch_size)
    proactive.observe(reactive)
    importance = proactive.importance_map(frame)
    print("proactive: most relevant patches", importance.top_patches(3))

    # 3. Semantic layered streaming: base layer now, enhancement layers later.
    layered_encoder = SemanticLayeredEncoder()
    layered = layered_encoder.encode(frame.pixels, reactive)
    bitrates = layered_encoder.layer_bitrates_bps(layered, fps=2.0)
    print("layer bitrates (kbps):", {k: round(v / 1000, 1) for k, v in bitrates.items()})

    # 4. Context-aware token pruning accelerates MLLM inference.
    pruner = ContextAwareTokenPruner(PruningConfig(keep_ratio=0.3))
    pruning = pruner.prune(frame, reactive)
    print(
        f"token pruning: kept {pruning.kept_tokens}/{pruning.total_tokens} tokens, "
        f"saves {pruning.latency_saving_ms:.1f} ms of inference"
    )


if __name__ == "__main__":
    main()
