"""One runner per table / figure of the paper.

Every experiment in the evaluation (and every quantitative claim in the
motivation) has a function here that regenerates it on the simulated stack.
The benchmark harness under ``benchmarks/`` calls these runners and prints
the same rows/series the paper reports; EXPERIMENTS.md records the outcomes
next to the paper's numbers.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ..core.context_aware import ContextAwareStreamer, StreamingConfig, UniformStreamer
from ..core.pipeline import AIVideoChatSession, ChatSessionConfig
from ..core.proactive import HybridProactivePolicy, SaliencyProactivePolicy
from ..core.qp_map import qp_map_statistics
from ..core.semantic_layers import SemanticLayeredEncoder
from ..core.token_pruning import ContextAwareTokenPruner, PruningConfig
from ..devibench.dataset import DeViBench
from ..devibench.evaluate import BenchmarkEvaluator, coarse_qa_breakage_rate
from ..devibench.pipeline import PipelineReport, build_benchmark
from ..devibench.videos import VideoCollection
from ..mllm.clip import MobileClip
from ..mllm.model import MODE_MULTIPLE_CHOICE, SimulatedMLLM
from ..mllm.sampler import (
    DEFAULT_MAX_FPS,
    ReceiverSampler,
    perceived_throughput_bps,
    sender_throughput_bps,
)
from ..mllm.tokenizer import (
    DiscreteTokenizer,
    TokenizerConfig,
    compare_token_stream_bitrates,
    drop_and_recover_tokens,
)
from ..net.emulator import (
    BandwidthTrace,
    BernoulliLoss,
    LossModel,
    PathConfig,
    expected_loss_rate,
)
from ..net.control import (
    controller_from_spec,
    controller_to_spec,
    preset_controller_spec,
)
from ..net.fec import FecConfig
from ..net.jitter_buffer import JitterBuffer, PassthroughBuffer, frames_in_capture_order
from ..net.transport import (
    FixedBitrateWorkload,
    TransportConfig,
    VideoTransportSession,
    drive_closed_loop,
    run_fixed_bitrate_session,
)
from ..video.frames import VideoFrame
from ..video.quality import region_quality
from ..video.scene import Scene, make_park_scene, make_sports_scene
from .latency import budget_for_scenario, default_budget_scenarios, headline_subtraction
from .registry import experiment


# ---------------------------------------------------------------------------
# Figure 2 — sender vs MLLM-perceived throughput (redundancy)
# ---------------------------------------------------------------------------


@experiment("figure2_redundancy", description="Sender vs MLLM-perceived throughput (capture redundancy)")
def run_figure2_redundancy(
    capture_fps: float = 60.0,
    duration_s: float = 2.0,
    height: int = 360,
    width: int = 640,
    seed: int = 0,
    loss_model: Optional[LossModel] = None,
) -> dict[str, float]:
    """How much of the captured stream the MLLM actually perceives.

    With a ``loss_model``, captured frames are dropped on the (emulated)
    uplink before the receiver-side sampler sees them, so bursty links show
    up as reduced perceived throughput rather than a fixed redundancy ratio.
    """
    scene = replace(
        make_sports_scene(seed, height=height, width=width), fps=capture_fps, duration_s=duration_s
    )
    source = scene.to_source()
    frames = [source.frame_at(index) for index in range(source.frame_count())]
    captured_count = len(frames)
    sampler = ReceiverSampler()
    if loss_model is not None:
        model = copy.deepcopy(loss_model)
        rng = np.random.default_rng(seed)
        frames = [frame for frame in frames if not model.should_drop(rng)]
        if not frames:
            # A dead link delivers nothing: report it as such instead of
            # silently falling back to the lossless stream.
            return {
                "capture_fps": capture_fps,
                "mllm_fps": DEFAULT_MAX_FPS,
                "sender_throughput_bps": 0.0,
                "perceived_throughput_bps": 0.0,
                "frame_redundancy": 0.0,
                "pixel_redundancy": 0.0,
                "delivered_frame_fraction": 0.0,
            }
    _, report = sampler.prepare(frames)
    return {
        "capture_fps": capture_fps,
        "mllm_fps": DEFAULT_MAX_FPS,
        "sender_throughput_bps": sender_throughput_bps(report, duration_s),
        "perceived_throughput_bps": perceived_throughput_bps(report, duration_s),
        "frame_redundancy": report.frame_redundancy,
        "pixel_redundancy": report.pixel_redundancy,
        "delivered_frame_fraction": len(frames) / max(captured_count, 1),
    }


# ---------------------------------------------------------------------------
# Figure 3 — transmission latency vs bitrate and loss
# ---------------------------------------------------------------------------


@dataclass
class Figure3Row:
    """One point of the Figure 3 latency surface."""

    bitrate_bps: float
    loss_rate: float
    mean_latency_ms: float
    p95_latency_ms: float
    delivery_ratio: float


@experiment("figure3_latency", description="Frame transmission latency vs bitrate and loss")
def run_figure3_latency(
    bitrates_bps: Sequence[float] = (200_000, 1_000_000, 4_000_000, 8_000_000, 12_000_000),
    loss_rates: Sequence[float] = (0.0, 0.01, 0.05),
    duration_s: float = 20.0,
    fps: float = 30.0,
    bandwidth_bps: float = 10_000_000.0,
    one_way_delay_s: float = 0.030,
    seed: int = 1,
    loss_model: Optional[LossModel] = None,
    bandwidth_trace: Optional[BandwidthTrace] = None,
) -> list[Figure3Row]:
    """Measured frame transmission latency over the emulated 10 Mbps / 30 ms path.

    A ``loss_model`` replaces the Bernoulli sweep over ``loss_rates`` (rows
    are labelled with the model's long-run loss rate); a ``bandwidth_trace``
    makes the bottleneck time-varying.
    """
    if loss_model is not None:
        loss_rates = (expected_loss_rate(loss_model),)
    rows: list[Figure3Row] = []
    for loss in loss_rates:
        for bitrate in bitrates_bps:
            # Stateful models (Gilbert-Elliott) are copied so each session
            # starts from the same chain state.
            model = copy.deepcopy(loss_model) if loss_model is not None else BernoulliLoss(loss)
            stats = run_fixed_bitrate_session(
                bitrate_bps=bitrate,
                duration_s=duration_s,
                fps=fps,
                uplink_config=PathConfig(
                    bandwidth_bps=bandwidth_bps,
                    propagation_delay_s=one_way_delay_s,
                    loss_model=model,
                    bandwidth_trace=bandwidth_trace,
                    seed=seed,
                ),
            )
            summary = stats.summary()
            rows.append(
                Figure3Row(
                    bitrate_bps=float(bitrate),
                    loss_rate=float(loss),
                    mean_latency_ms=summary.mean_ms,
                    p95_latency_ms=summary.p95_ms,
                    delivery_ratio=summary.delivery_ratio,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 4 — context dependence of quality sensitivity
# ---------------------------------------------------------------------------


@experiment("figure4_context_dependence", description="Coarse vs detail question survival across bitrates")
def run_figure4_context_dependence(
    high_bitrate_bps: float = 4_000_000.0,
    low_bitrate_bps: float = 200_000.0,
    rate_fps: float = 2.0,
    seed: int = 0,
    height: int = 360,
    width: int = 640,
) -> dict[str, dict[str, bool]]:
    """Coarse question survives 200 Kbps; detail question does not (Figure 4)."""
    scene = make_sports_scene(seed, height=height, width=width)
    frame = scene.to_source().frame_at(0)
    baseline = UniformStreamer()
    mllm = SimulatedMLLM(seed=seed)
    coarse_fact = next(fact for fact in scene.facts if fact.key == "action")
    detail_fact = next(fact for fact in scene.facts if fact.key == "logo")

    results: dict[str, dict[str, bool]] = {}
    for label, bitrate in (("high_bitrate", high_bitrate_bps), ("low_bitrate", low_bitrate_bps)):
        outcome = baseline.encode_frame(frame, target_bitrate_bps=bitrate, fps=rate_fps)
        decoded = [VideoFrame(frame.frame_id, frame.timestamp, outcome.decoded)]
        originals = [frame]
        results[label] = {
            "coarse_question_correct": mllm.answer_question(
                coarse_fact, scene, decoded * 2, originals * 2
            ).correct,
            "detail_question_correct": mllm.answer_question(detail_fact, scene, decoded, originals).correct,
        }
    return results


# ---------------------------------------------------------------------------
# Figure 5 — CLIP correlation maps point at chat-relevant regions
# ---------------------------------------------------------------------------


@dataclass
class Figure5Case:
    """One dialogue of Figure 5: the query and per-region correlations."""

    question: str
    target_object: str
    target_correlation: float
    best_other_correlation: float
    region_correlations: dict[str, float]

    @property
    def target_is_most_relevant(self) -> bool:
        return self.target_correlation >= self.best_other_correlation


@experiment("figure5_correlation_maps", description="CLIP correlation maps point at chat-relevant regions")
def run_figure5_correlation_maps(seed: int = 0, height: int = 360, width: int = 640) -> list[Figure5Case]:
    """The three Figure 5 style dialogues, including the indirect season→grass case."""
    clip = MobileClip()
    cases: list[tuple[Scene, str, str]] = []
    park = make_park_scene(seed, height=height, width=width)
    sports = make_sports_scene(seed, height=height, width=width)
    cases.append((park, "Is the dog in the video erect-eared or floppy-eared?", "dog_head"))
    cases.append((sports, "Could you tell me the present score of the game?", "scoreboard"))
    cases.append((park, "Infer what season it might be in the video", "grass"))

    results = []
    for scene, question, target in cases:
        frame = scene.render(0)
        correlation = clip.correlation_map(scene, question, frame_pixels=frame, original_pixels=frame)
        region_correlations = {}
        for obj in scene.objects:
            region = obj.pixel_region(scene.height, scene.width)
            region_correlations[obj.name] = correlation.region_mean(region)
        target_corr = region_correlations[target]
        other = max(value for name, value in region_correlations.items() if name != target)
        results.append(
            Figure5Case(
                question=question,
                target_object=target,
                target_correlation=target_corr,
                best_other_correlation=other,
                region_correlations=region_correlations,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Section 2.3 text — only ~8 % of coarse QA break at 200 Kbps
# ---------------------------------------------------------------------------


@experiment("section23_coarse_qa", description="Fraction of coarse QA broken at 200 Kbps")
def run_section23_coarse_qa(video_count: int = 6, seed: int = 0) -> dict[str, float]:
    collection = VideoCollection.synthetic(video_count=video_count, seed=seed)
    return coarse_qa_breakage_rate(collection)


# ---------------------------------------------------------------------------
# Table 1 / Figure 6 / Figure 8 — the DeViBench pipeline
# ---------------------------------------------------------------------------


@experiment("table1_pipeline", description="DeViBench construction pipeline report")
def run_table1_pipeline(video_count: int = 8, seed: int = 0) -> PipelineReport:
    return build_benchmark(video_count=video_count, seed=seed)


# ---------------------------------------------------------------------------
# Figure 9 — accuracy vs bitrate, baseline vs context-aware
# ---------------------------------------------------------------------------


@dataclass
class Figure9Point:
    method: str
    target_bitrate_bps: float
    achieved_bitrate_bps: float
    accuracy: float


@experiment("figure9_accuracy", description="MLLM accuracy vs bitrate, baseline vs context-aware")
def run_figure9_accuracy(
    benchmark: Optional[DeViBench] = None,
    bitrates_bps: Sequence[float] = (850_000.0, 430_000.0, 200_000.0),
    mode: str = MODE_MULTIPLE_CHOICE,
    video_count: int = 8,
    seed: int = 0,
    max_samples: Optional[int] = None,
    loss_model: Optional[LossModel] = None,
    bandwidth_trace: Optional[BandwidthTrace] = None,
) -> list[Figure9Point]:
    """Accuracy/bitrate points for the uniform baseline and context-aware streaming.

    Scenario hooks: a ``loss_model`` scales each target bitrate by the link's
    long-run delivery ratio (lost bytes contribute no decodable quality) and
    a ``bandwidth_trace`` caps the target at the trace's mean rate, so bursty
    and time-varying links shift every operating point into scarcer regimes.
    """
    if benchmark is None:
        benchmark = build_benchmark(video_count=video_count, seed=seed).benchmark
    evaluator = BenchmarkEvaluator(benchmark, mode=mode)
    delivery_ratio = 1.0
    if loss_model is not None:
        delivery_ratio = max(0.0, 1.0 - expected_loss_rate(loss_model))
    rate_cap = float("inf")
    if bandwidth_trace is not None:
        rate_cap = bandwidth_trace.mean_rate_bps
    points: list[Figure9Point] = []
    for context_aware in (False, True):
        for bitrate in bitrates_bps:
            effective = max(1_000.0, min(float(bitrate), rate_cap) * delivery_ratio)
            result = evaluator.evaluate(effective, context_aware=context_aware, max_samples=max_samples)
            points.append(
                Figure9Point(
                    method="context-aware" if context_aware else "baseline",
                    target_bitrate_bps=float(bitrate),
                    achieved_bitrate_bps=result.mean_achieved_bitrate_bps,
                    accuracy=result.accuracy,
                )
            )
    return points


# ---------------------------------------------------------------------------
# Figure 10 — bit allocation at matched bitrate
# ---------------------------------------------------------------------------


@experiment("figure10_qp_allocation", description="Per-region bit allocation at matched bitrate")
def run_figure10_qp_allocation(
    target_bitrate_bps: float = 430_000.0,
    rate_fps: float = 2.0,
    seed: int = 2,
    height: int = 360,
    width: int = 640,
) -> dict[str, dict[str, float]]:
    """Per-region bits and quality for matched-bitrate baseline vs context-aware encodes."""
    scene = make_sports_scene(seed, height=height, width=width)
    frame = scene.to_source().frame_at(0)
    fact = next(f for f in scene.facts if f.key == "score")
    streamer = ContextAwareStreamer()
    baseline = UniformStreamer()

    ours = streamer.encode_frame(
        scene, frame, fact.question, target_bitrate_bps=target_bitrate_bps, fps=rate_fps
    )
    base = baseline.encode_frame(frame, target_bitrate_bps=target_bitrate_bps, fps=rate_fps)

    important_region = scene.object_by_name(fact.object_name).pixel_region(height, width)
    irrelevant_region = scene.object_by_name("court").pixel_region(height, width)

    def describe(outcome) -> dict[str, float]:
        return {
            "bitrate_bps": outcome.encoded.bitrate_bps(rate_fps),
            "important_region_bits": outcome.encoded.bits_in_region(*important_region),
            "irrelevant_region_bits": outcome.encoded.bits_in_region(*irrelevant_region),
            "important_region_quality": region_quality(
                frame.pixels, outcome.decoded, important_region
            ).readable_score,
            "irrelevant_region_quality": region_quality(
                frame.pixels, outcome.decoded, irrelevant_region
            ).readable_score,
            **{f"qp_{k}": v for k, v in qp_map_statistics(outcome.qp_map).items()},
        }

    return {"baseline": describe(base), "context_aware": describe(ours)}


# ---------------------------------------------------------------------------
# Section 2.1 — the four differences between AI video chat and traditional RTC
# ---------------------------------------------------------------------------


@experiment("section21_jitter_invariance", description="Jitter buffer latency vs MLLM input invariance")
def run_section21_jitter_invariance(seed: int = 0, frame_count: int = 30) -> dict[str, float]:
    """Jitter changes human-buffer latency but not the MLLM's input order."""
    rng = np.random.default_rng(seed)
    captures = [index / 30.0 for index in range(frame_count)]
    smooth_arrivals = [capture + 0.035 for capture in captures]
    jittered_arrivals = [capture + 0.035 + float(rng.uniform(0, 0.08)) for capture in captures]

    human_buffer = JitterBuffer()
    ai_buffer = PassthroughBuffer()
    smooth_passthrough = PassthroughBuffer()
    for index, capture in enumerate(captures):
        human_buffer.push(index, capture, jittered_arrivals[index])
        ai_buffer.push(index, capture, jittered_arrivals[index])
        smooth_passthrough.push(index, capture, smooth_arrivals[index])
    human_buffer.pop_ready(now=1e9)

    jittered_order = [f.frame_id for f in frames_in_capture_order(ai_buffer.released)]
    smooth_order = [f.frame_id for f in frames_in_capture_order(smooth_passthrough.released)]
    return {
        "jitter_buffer_added_latency_ms": human_buffer.added_latency() * 1000.0,
        "passthrough_added_latency_ms": ai_buffer.added_latency() * 1000.0,
        "mllm_input_identical": float(jittered_order == smooth_order),
    }


@experiment("section21_throughput_asymmetry", description="Uplink/downlink throughput asymmetry")
def run_section21_throughput_asymmetry(seed: int = 0) -> dict[str, float]:
    """Receiver (MLLM) throughput ≪ sender throughput; downlink ≪ uplink."""
    redundancy = run_figure2_redundancy(seed=seed)
    reply_tokens = 40
    bits_per_token = 16 * 8  # a text/audio token is a few bytes
    downlink_bps = reply_tokens * bits_per_token / 1.0
    return {
        "sender_throughput_bps": redundancy["sender_throughput_bps"],
        "receiver_perceived_bps": redundancy["perceived_throughput_bps"],
        "downlink_reply_bps": downlink_bps,
        "uplink_to_downlink_ratio": redundancy["sender_throughput_bps"] / downlink_bps,
    }


# ---------------------------------------------------------------------------
# Section 1 — the response-latency budget
# ---------------------------------------------------------------------------


@experiment("section1_latency_budget", description="Response-latency budget breakdown")
def run_section1_latency_budget() -> dict[str, dict[str, float]]:
    results = {"headline": headline_subtraction()}
    for scenario in default_budget_scenarios():
        results[scenario.name] = budget_for_scenario(scenario).breakdown()
    return results


# ---------------------------------------------------------------------------
# Section 4 ablations and feasibility analyses
# ---------------------------------------------------------------------------


@experiment("ablation_gamma", description="Regional quality as the temperature gamma varies")
def run_ablation_gamma(
    gammas: Sequence[float] = (1.0, 3.0, 6.0),
    target_bitrate_bps: float = 300_000.0,
    seed: int = 3,
    height: int = 360,
    width: int = 640,
) -> dict[float, float]:
    """Accuracy-relevant regional quality as the temperature γ varies."""
    scene = make_sports_scene(seed, height=height, width=width)
    frame = scene.to_source().frame_at(0)
    fact = next(f for f in scene.facts if f.key == "score")
    region = scene.object_by_name(fact.object_name).pixel_region(height, width)
    results = {}
    for gamma in gammas:
        streamer = ContextAwareStreamer(StreamingConfig(gamma=gamma))
        outcome = streamer.encode_frame(
            scene, frame, fact.question, target_bitrate_bps=target_bitrate_bps, fps=2.0
        )
        results[float(gamma)] = region_quality(frame.pixels, outcome.decoded, region).readable_score
    return results


@experiment("ablation_patch_size", description="Client CLIP compute cost vs patch size")
def run_ablation_patch_size(
    patch_sizes: Sequence[int] = (16, 32, 64),
    seed: int = 3,
    height: int = 360,
    width: int = 640,
) -> dict[int, float]:
    """Client-side CLIP compute cost versus patch size (Section 4 discussion)."""
    scene = make_park_scene(seed, height=height, width=width)
    frame = scene.render(0)
    results = {}
    for patch in patch_sizes:
        streamer = ContextAwareStreamer(StreamingConfig(patch_size=patch))
        correlation = streamer.correlation_for(scene, "Is the dog erect-eared?", frame)
        results[int(patch)] = correlation.compute_latency_ms
    return results


@experiment("ablation_proactive", description="Proactive vs reactive importance maps")
def run_ablation_proactive(seed: int = 4, height: int = 360, width: int = 640) -> dict[str, float]:
    """Proactive importance maps versus the reactive (user-word) map."""
    scene = make_park_scene(seed, height=height, width=width)
    frame = scene.to_source().frame_at(0)
    fact = next(f for f in scene.facts if f.key == "ear_type")
    region = scene.object_by_name(fact.object_name).pixel_region(height, width)

    streamer = ContextAwareStreamer()
    reactive = streamer.correlation_for(scene, fact.question, frame)
    saliency = SaliencyProactivePolicy(patch_size=streamer.config.patch_size).importance_map(frame)
    hybrid_policy = HybridProactivePolicy(patch_size=streamer.config.patch_size)
    hybrid_policy.observe(reactive)
    hybrid = hybrid_policy.importance_map(frame)

    def rank_of_region(correlation) -> float:
        return correlation.region_mean(region) - float(np.median(correlation.values))

    return {
        "reactive_margin": rank_of_region(reactive),
        "saliency_margin": rank_of_region(saliency),
        "hybrid_margin": rank_of_region(hybrid),
    }


@experiment("ablation_token_pruning", description="Latency saving and retention under token pruning")
def run_ablation_token_pruning(
    keep_ratios: Sequence[float] = (1.0, 0.5, 0.3, 0.1),
    seed: int = 5,
    height: int = 360,
    width: int = 640,
) -> dict[float, dict[str, float]]:
    """Latency saving and important-region retention under token pruning."""
    scene = make_sports_scene(seed, height=height, width=width)
    frame = scene.to_source().frame_at(0)
    fact = next(f for f in scene.facts if f.key == "score")
    region = scene.object_by_name(fact.object_name).pixel_region(height, width)
    streamer = ContextAwareStreamer()
    correlation = streamer.correlation_for(scene, fact.question, frame)

    results = {}
    for ratio in keep_ratios:
        pruner = ContextAwareTokenPruner(PruningConfig(keep_ratio=ratio))
        pruning = pruner.prune(frame, correlation)
        results[float(ratio)] = {
            "kept_ratio": pruning.kept_ratio,
            "latency_saving_ms": pruning.latency_saving_ms,
            "important_region_kept": pruning.region_kept_fraction(
                region, pruner.config.token_patch_size
            ),
        }
    return results


@experiment("ablation_semantic_layers", description="Base-layer-only vs full reconstruction")
def run_ablation_semantic_layers(seed: int = 6, height: int = 360, width: int = 640) -> dict[str, float]:
    """Base-layer-only versus full reconstruction quality and bitrate split."""
    scene = make_sports_scene(seed, height=height, width=width)
    frame = scene.to_source().frame_at(0)
    fact = next(f for f in scene.facts if f.key == "score")
    region = scene.object_by_name(fact.object_name).pixel_region(height, width)
    streamer = ContextAwareStreamer()
    correlation = streamer.correlation_for(scene, fact.question, frame)

    encoder = SemanticLayeredEncoder()
    layered = encoder.encode(frame.pixels, correlation)
    base_only = encoder.reconstruct(layered, received_layers=[0])
    everything = encoder.reconstruct(layered, received_layers=list(range(len(layered.layers))))
    bitrates = encoder.layer_bitrates_bps(layered, fps=2.0)
    return {
        "base_layer_bps": bitrates["base"],
        "total_bps": sum(bitrates.values()),
        "base_only_important_quality": region_quality(frame.pixels, base_only, region).readable_score,
        "full_important_quality": region_quality(frame.pixels, everything, region).readable_score,
        "base_fraction_of_total": bitrates["base"] / max(sum(bitrates.values()), 1e-9),
    }


@experiment("token_streaming_feasibility", description="Token bitrates and loss resilience")
def run_token_streaming_feasibility(
    loss_fractions: Sequence[float] = (0.0, 0.5, 0.828),
    seed: int = 7,
    height: int = 360,
    width: int = 640,
) -> dict[str, object]:
    """Section 4 feasibility: token bitrates and loss resilience of discrete tokens."""
    scene = make_sports_scene(seed, height=height, width=width)
    frame = scene.render(0)
    fact = next(f for f in scene.facts if f.key == "action")
    coarse_region = scene.object_by_name(fact.object_name).pixel_region(height, width)

    config = TokenizerConfig()
    bitrates = compare_token_stream_bitrates(frame, fps=2.0, config=config)
    tokenizer = DiscreteTokenizer(config)
    tokenized = tokenizer.tokenize(frame)

    recovery_quality = {}
    for loss in loss_fractions:
        result = drop_and_recover_tokens(tokenized, loss, seed=seed)
        recovered = tokenizer.reconstruct(
            type(tokenized)(
                tokens=result.recovered_tokens,
                grid_shape=tokenized.grid_shape,
                frame_shape=tokenized.frame_shape,
                discrete=True,
                total_bits=tokenized.total_bits,
            )
        )
        trimmed = frame[: recovered.shape[0], : recovered.shape[1]]
        coarse = (
            min(coarse_region[1], recovered.shape[0]),
            min(coarse_region[3], recovered.shape[1]),
        )
        region = (coarse_region[0], coarse[0], coarse_region[2], coarse[1])
        recovery_quality[float(loss)] = region_quality(trimmed, recovered, region).readable_score
    return {"bitrates": bitrates, "recovery_quality": recovery_quality}


# ---------------------------------------------------------------------------
# Closed-loop sessions — receiver reports driving congestion control + ABR
# ---------------------------------------------------------------------------


@experiment(
    "closed_loop_session",
    description="Feedback-driven session: receiver reports, congestion control, ABR, FEC",
)
def run_closed_loop_session(
    controller: Optional[dict] = None,
    duration_s: float = 10.0,
    fps: float = 30.0,
    bandwidth_bps: float = 10_000_000.0,
    one_way_delay_s: float = 0.030,
    report_interval_s: float = 0.2,
    initial_bitrate_bps: float = 1_000_000.0,
    fec_group_size: int = 0,
    seed: int = 1,
    loss_model: Optional[LossModel] = None,
    bandwidth_trace: Optional[BandwidthTrace] = None,
) -> dict[str, object]:
    """One feedback-driven transport session over the emulated path.

    ``controller`` is a JSON-able spec (see
    :func:`repro.net.control.controller_from_spec`) so sweep cells carrying
    it stay content-hash cacheable; it defaults to the GCC × throughput-ABR
    composition.  ``fec_group_size`` > 0 enables FEC, whose redundancy the
    controller may then retune per report.  The ``action_digest`` field
    fingerprints the full ``(time, target, fec_overhead)`` action sequence —
    two runs (or the two delivery modes) agree on it iff the controller
    behaved bit-identically.
    """
    spec = controller if controller is not None else preset_controller_spec("gcc")
    sender_controller = controller_from_spec(spec)
    model = copy.deepcopy(loss_model) if loss_model is not None else BernoulliLoss(0.01)
    session = VideoTransportSession(
        uplink_config=PathConfig(
            bandwidth_bps=bandwidth_bps,
            propagation_delay_s=one_way_delay_s,
            loss_model=model,
            bandwidth_trace=bandwidth_trace,
            seed=seed,
        ),
        transport_config=TransportConfig(
            report_interval_s=report_interval_s,
            fec=FecConfig(group_size=fec_group_size) if fec_group_size else None,
        ),
        controller=sender_controller,
    )
    drive_closed_loop(
        session, FixedBitrateWorkload(bitrate_bps=initial_bitrate_bps, fps=fps), duration_s
    )
    summary = session.stats.summary()
    actions = [
        [time, action.target_bitrate_bps, action.fec_overhead_ratio]
        for time, action in session.control_log
    ]
    targets = [row[1] for row in actions]
    delivered_bits = 8.0 * sum(event.size_bytes for event in session.receiver.delivered_frames)
    return {
        "controller": controller_to_spec(sender_controller),
        "frames_sent": summary.count,
        "frames_delivered": summary.delivered,
        "delivery_ratio": summary.delivery_ratio,
        "mean_latency_ms": summary.mean_ms,
        "p95_latency_ms": summary.p95_ms,
        "mean_retransmissions": summary.mean_retransmissions,
        "reports_received": session.reports_received,
        "actions_applied": len(actions),
        "mean_target_bitrate_bps": float(np.mean(targets)) if targets else float(initial_bitrate_bps),
        "final_target_bitrate_bps": float(targets[-1]) if targets else float(initial_bitrate_bps),
        "offered_rate_bps": 8.0 * session.sender.bytes_sent / duration_s,
        "delivered_rate_bps": delivered_bits / duration_s,
        "action_digest": hashlib.sha256(json.dumps(actions).encode()).hexdigest(),
    }


# ---------------------------------------------------------------------------
# End-to-end dialogue turns (Figure 1 narrative / Section 2.1 uplink argument)
# ---------------------------------------------------------------------------


@experiment("end_to_end_turn", description="One full dialogue turn with latency budget")
def run_end_to_end_turn(
    context_aware: bool = True,
    target_bitrate_bps: float = 400_000.0,
    loss_rate: float = 0.02,
    use_jitter_buffer: bool = False,
    seed: int = 0,
    height: int = 240,
    width: int = 432,
    loss_model: Optional[LossModel] = None,
    bandwidth_trace: Optional[BandwidthTrace] = None,
) -> dict[str, float]:
    """One full client→cloud dialogue turn with the measured latency budget.

    ``loss_model`` overrides the Bernoulli ``loss_rate`` shorthand and
    ``bandwidth_trace`` makes the uplink time-varying.
    """
    scene = make_sports_scene(seed, height=height, width=width)
    fact = next(f for f in scene.facts if f.key == "score")
    model = copy.deepcopy(loss_model) if loss_model is not None else BernoulliLoss(loss_rate)
    session = AIVideoChatSession(
        scene,
        session_config=ChatSessionConfig(
            target_bitrate_bps=target_bitrate_bps,
            context_aware=context_aware,
            use_jitter_buffer=use_jitter_buffer,
        ),
        uplink_config=PathConfig(loss_model=model, bandwidth_trace=bandwidth_trace, seed=seed),
    )
    result = session.run_turn(fact)
    breakdown = result.latency_budget.breakdown()
    return {
        "correct": float(result.correct),
        "achieved_bitrate_bps": result.achieved_bitrate_bps,
        "response_latency_ms": result.response_latency_ms,
        "transmission_ms": breakdown["transmission_ms"],
        "inference_ms": breakdown["inference_ms"],
        "jitter_buffer_ms": breakdown["jitter_buffer_ms"],
        "meets_300ms_target": float(result.meets_300ms_target),
    }
