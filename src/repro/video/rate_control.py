"""Rate control: hit a target bitrate by searching over QP.

The paper's footnote to Figure 9 describes exactly this problem: "During
Kvazaar encoding, the target bitrate often differs greatly from the actual
bitrate.  So we use a trial-and-error approach to ensure that the actual
bitrates of ours and the baseline are comparable."  We implement that
trial-and-error loop as a bisection over a QP offset applied either to a
uniform QP (the baseline) or on top of a context-aware QP map (ours), so
matched-bitrate comparisons are possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .codec import MAX_QP, MIN_QP, BlockCodec, EncodedFrame


@dataclass
class RateControlResult:
    """Outcome of a rate-control search for a single frame."""

    encoded: EncodedFrame
    qp_offset: float
    target_bits: float
    achieved_bits: float
    iterations: int

    @property
    def relative_error(self) -> float:
        if self.target_bits <= 0:
            return float("inf")
        return abs(self.achieved_bits - self.target_bits) / self.target_bits


def _clamped_qp(base: Union[float, np.ndarray], offset: float) -> Union[float, np.ndarray]:
    return np.clip(np.asarray(base, dtype=float) + offset, MIN_QP, MAX_QP)


def encode_at_target_bitrate(
    codec: BlockCodec,
    pixels: np.ndarray,
    target_bitrate_bps: float,
    fps: float,
    base_qp_map: Union[int, float, np.ndarray] = 30,
    tolerance: float = 0.05,
    max_iterations: int = 12,
    frame_id: int = 0,
    timestamp: float = 0.0,
) -> RateControlResult:
    """Encode one frame so its bit budget approximates ``target_bitrate / fps``.

    A scalar offset is added to ``base_qp_map`` (which may be a scalar for
    uniform encoding, or a context-aware per-block map) and bisected until
    the achieved size is within ``tolerance`` of the per-frame budget, or the
    iteration limit is reached (the trial-and-error loop the paper uses).
    """
    if target_bitrate_bps <= 0 or fps <= 0:
        raise ValueError("target_bitrate_bps and fps must be positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    if not tolerance >= 0:  # NaN fails too
        raise ValueError("tolerance must be non-negative")
    target_bits = target_bitrate_bps / fps

    base = np.asarray(base_qp_map, dtype=float)

    low_offset = float(MIN_QP - base.max())
    high_offset = float(MAX_QP - base.min())

    frame = codec.transform(pixels)  # every trial quantises the same coefficients
    best: Optional[tuple[float, EncodedFrame, float]] = None
    iterations = 0
    offset = 0.0
    for iterations in range(1, max_iterations + 1):
        offset = (low_offset + high_offset) / 2.0
        encoded = codec.encode(
            frame,
            _clamped_qp(base_qp_map, offset),
            frame_id=frame_id,
            timestamp=timestamp,
        )
        error = abs(encoded.total_bits - target_bits)
        if best is None or error < best[2]:
            best = (offset, encoded, error)
        if encoded.total_bits > target_bits:
            low_offset = offset  # too many bits -> raise QP
        else:
            high_offset = offset  # too few bits -> lower QP
        if target_bits > 0 and error / target_bits <= tolerance:
            break

    assert best is not None  # max_iterations >= 1 guarantees at least one encode
    chosen_offset, encoded, _ = best
    return RateControlResult(
        encoded=encoded,
        qp_offset=chosen_offset,
        target_bits=target_bits,
        achieved_bits=encoded.total_bits,
        iterations=iterations,
    )


def encode_sequence_at_target_bitrate(
    codec: BlockCodec,
    frames: list[np.ndarray],
    target_bitrate_bps: float,
    fps: float,
    base_qp_maps: Optional[list[Union[int, float, np.ndarray]]] = None,
    tolerance: float = 0.05,
    max_iterations: int = 10,
) -> list[RateControlResult]:
    """Rate-control every frame of a sequence to the same per-frame budget."""
    results = []
    for index, pixels in enumerate(frames):
        base = 30 if base_qp_maps is None else base_qp_maps[index]
        results.append(
            encode_at_target_bitrate(
                codec,
                pixels,
                target_bitrate_bps,
                fps,
                base_qp_map=base,
                tolerance=tolerance,
                max_iterations=max_iterations,
                frame_id=index,
                timestamp=index / fps,
            )
        )
    return results


def achieved_bitrate_bps(results: list[RateControlResult], fps: float) -> float:
    """Average bitrate actually achieved by a rate-controlled sequence."""
    if not results:
        return 0.0
    total_bits = sum(result.achieved_bits for result in results)
    return total_bits * fps / len(results)
