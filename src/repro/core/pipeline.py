"""The end-to-end AI Video Chat pipeline (Figure 1 of the paper).

One :class:`AIVideoChatSession` wires every substrate together for a single
user↔MLLM dialogue turn:

1. the client captures frames of the scene and (optionally) runs the
   context-aware streamer so chat-important regions keep their quality;
2. the encoded frames are packetised and shipped over the emulated uplink
   with NACK-based loss recovery;
3. the receiver hands the delivered frames — ordered by capture timestamp,
   with or without a jitter buffer — to the MLLM, already at its ingestion
   rate;
4. the simulated MLLM answers the user's question from whatever visual
   evidence survived compression and transmission;
5. the response-latency budget of Section 1 is assembled from the measured
   pieces (encode, transmission, decode, buffering, inference).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..mllm.inference import LatencyBudget
from ..mllm.model import MllmAnswer, SimulatedMLLM
from ..mllm.sampler import DEFAULT_MAX_FPS
from ..net.emulator import PathConfig
from ..net.jitter_buffer import JitterBuffer, PassthroughBuffer, frames_in_capture_order
from ..net.transport import VideoTransportSession
from ..video.frames import VideoFrame
from ..video.scene import Scene, SceneFact
from .context_aware import ContextAwareStreamer, EncodeOutcome, UniformStreamer

#: Frame rate of the frames actually encoded and transmitted: the rate the
#: MLLM ingests, so no transmitted frame goes unseen.
MLLM_FPS = DEFAULT_MAX_FPS
#: Seconds of video preceding the question that are streamed for context.
WINDOW_S = 1.5
#: Client-side encode and receiver-side decode costs per frame.
ENCODE_MS_PER_FRAME = 8.0
DECODE_MS_PER_FRAME = 4.0
#: How long the transport simulation keeps running after the last frame.
DRAIN_S = 3.0


@dataclass
class ChatSessionConfig:
    """Configuration of one AI Video Chat session."""

    #: Target uplink video bitrate; None lets Equation (2) set the rate freely.
    target_bitrate_bps: Optional[float] = 400_000.0
    #: Whether the sender runs context-aware streaming or the uniform baseline.
    context_aware: bool = True
    #: Whether the receiver holds frames in a jitter buffer before the MLLM.
    use_jitter_buffer: bool = False


@dataclass
class ChatTurnResult:
    """Everything measured during one dialogue turn."""

    question: str
    answer: MllmAnswer
    context_aware: bool
    frames_sent: int
    frames_delivered: int
    achieved_bitrate_bps: float
    mean_transmission_latency_s: float
    last_frame_transmission_latency_s: float
    client_compute_ms: float
    jitter_buffer_delay_ms: float
    latency_budget: LatencyBudget
    encode_outcomes: list[EncodeOutcome] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.answer.correct

    @property
    def response_latency_ms(self) -> float:
        return self.latency_budget.total_ms

    @property
    def meets_300ms_target(self) -> bool:
        return self.latency_budget.meets_target


class AIVideoChatSession:
    """A single-scene AI Video Chat endpoint pair (client + cloud MLLM)."""

    def __init__(
        self,
        scene: Scene,
        session_config: Optional[ChatSessionConfig] = None,
        uplink_config: Optional[PathConfig] = None,
    ) -> None:
        self.scene = scene
        self.config = session_config or ChatSessionConfig()
        self.uplink_config = uplink_config or PathConfig()
        self.streamer = ContextAwareStreamer()
        self.baseline = UniformStreamer()
        self.mllm = SimulatedMLLM()
        #: One capture source per dialogue: every turn reuses its rendered frames.
        self.source = scene.to_source()

    # -- frame selection -------------------------------------------------------

    def _frames_for_turn(self) -> list[VideoFrame]:
        """Frames at the MLLM ingestion rate covering the context window."""
        stride = max(1, int(round(self.scene.fps / MLLM_FPS)))
        count = max(1, int(round(WINDOW_S * MLLM_FPS)))
        last_index = self.source.frame_count() - 1
        indices = [max(0, last_index - stride * offset) for offset in range(count)][::-1]
        return [self.source.frame_at(index) for index in dict.fromkeys(indices)]

    # -- one turn ----------------------------------------------------------------

    def run_turn(
        self,
        fact: SceneFact,
        user_words: Optional[str] = None,
        extra_concepts: Sequence[str] = (),
    ) -> ChatTurnResult:
        """Run one full dialogue turn for a question about ``fact``."""
        words = user_words if user_words is not None else fact.question
        originals = self._frames_for_turn()

        # 1. client-side encoding -------------------------------------------------
        outcomes: list[EncodeOutcome] = []
        for frame in originals:
            if self.config.context_aware:
                outcome = self.streamer.encode_frame(
                    self.scene,
                    frame,
                    words,
                    target_bitrate_bps=self.config.target_bitrate_bps,
                    fps=MLLM_FPS,
                    extra_concepts=extra_concepts,
                )
            else:
                outcome = self.baseline.encode_frame(
                    frame,
                    target_bitrate_bps=self.config.target_bitrate_bps,
                    fps=MLLM_FPS,
                )
            outcomes.append(outcome)

        # 2. transmission over the emulated uplink --------------------------------
        session = VideoTransportSession(uplink_config=self.uplink_config)
        interval = 1.0 / MLLM_FPS
        for order, (frame, outcome) in enumerate(zip(originals, outcomes)):
            send_at = order * interval

            def _send(frame_id=frame.frame_id, size=outcome.encoded.size_bytes, t=send_at) -> None:
                session.send_frame(frame_id, size, capture_time=t)

            session.loop.schedule_at(send_at, _send)
        horizon = len(originals) * interval + DRAIN_S
        session.run(until=horizon)

        records = {record.frame_id: record for record in session.stats.frames}
        delivered_ids = {fid for fid, record in records.items() if record.delivered}

        # 3. receiver-side buffering and ordering ----------------------------------
        buffer = JitterBuffer() if self.config.use_jitter_buffer else PassthroughBuffer()
        buffered = []
        for frame, outcome in zip(originals, outcomes):
            record = records.get(frame.frame_id)
            if record is None or not record.delivered:
                continue
            buffered.append(
                buffer.push(
                    frame.frame_id,
                    capture_time=record.capture_time,
                    arrival_time=record.complete_time,
                    payload=(frame, outcome),
                )
            )
        ordered = frames_in_capture_order(buffered)
        delivered_originals = [entry.payload[0] for entry in ordered]
        delivered_decoded = [
            VideoFrame(
                frame_id=entry.frame_id,
                timestamp=entry.payload[0].timestamp,
                pixels=entry.payload[1].decoded,
            )
            for entry in ordered
        ]

        # 4. MLLM answer -------------------------------------------------------------
        answer = self.mllm.answer_question(fact, self.scene, delivered_decoded, delivered_originals)

        # 5. latency budget ------------------------------------------------------------
        latencies = [
            records[fid].transmission_latency
            for fid in delivered_ids
            if records[fid].transmission_latency is not None
        ]
        last_latency = 0.0
        if ordered:
            last_record = records[ordered[-1].frame_id]
            if last_record.transmission_latency is not None:
                last_latency = last_record.transmission_latency
        jitter_delay_ms = buffer.added_latency() * 1000.0
        total_bits = sum(outcome.encoded.total_bits for outcome in outcomes)
        achieved_bitrate = total_bits / max(len(outcomes), 1) * MLLM_FPS

        budget = LatencyBudget(
            capture_ms=0.5 * 1000.0 / max(self.scene.fps, 1.0),
            encode_ms=ENCODE_MS_PER_FRAME
            + (outcomes[-1].client_compute_ms if self.config.context_aware else 0.0),
            transmission_ms=last_latency * 1000.0,
            decode_ms=DECODE_MS_PER_FRAME,
            jitter_buffer_ms=jitter_delay_ms,
            inference_ms=answer.inference_latency_ms,
            downlink_ms=self.uplink_config.propagation_delay_s * 1000.0,
        )

        return ChatTurnResult(
            question=words,
            answer=answer,
            context_aware=self.config.context_aware,
            frames_sent=len(originals),
            frames_delivered=len(delivered_ids),
            achieved_bitrate_bps=achieved_bitrate,
            mean_transmission_latency_s=float(np.mean(latencies)) if latencies else float("nan"),
            last_frame_transmission_latency_s=last_latency,
            client_compute_ms=outcomes[-1].client_compute_ms if outcomes else 0.0,
            jitter_buffer_delay_ms=jitter_delay_ms,
            latency_budget=budget,
            encode_outcomes=outcomes,
        )

    def run_dialogue(
        self, facts: Sequence[SceneFact], user_words: Optional[Sequence[str]] = None
    ) -> list[ChatTurnResult]:
        """Run one turn per fact (a multi-turn dialogue over the same scene)."""
        if user_words is not None and len(user_words) != len(facts):
            raise ValueError("user_words must align with facts")
        results = []
        for index, fact in enumerate(facts):
            words = user_words[index] if user_words is not None else None
            results.append(self.run_turn(fact, user_words=words))
        return results
