"""Correlation-to-QP mapping (Equation 2 of the paper).

Given the semantic correlation ρ_mn ∈ [−1, 1] of each region, the paper
derives its quantisation parameter as

    QP_mn = 51 · (1 − ((ρ_mn + 1) / 2)^γ)

with temperature γ = 3 "to aggressively penalise irrelevant regions".
This module implements that mapping, its clamping, optional floors/ceilings
(a minimum quality for every region so the frame stays decodable), and the
resampling from CLIP patch grid to codec block grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..video.codec import MAX_QP, MIN_QP

#: Temperature used in the paper's evaluation.
PAPER_GAMMA = 3.0


@dataclass
class QpMapConfig:
    """Configuration of the correlation→QP mapping."""

    gamma: float = PAPER_GAMMA
    max_qp: float = float(MAX_QP)
    #: Optional QP floor for the most important regions (0 = allow lossless-ish).
    min_qp: float = float(MIN_QP)
    #: Optional cap applied after the mapping so no region is *completely*
    #: destroyed (useful for the semantic-layer base stream); defaults to the
    #: paper's behaviour of allowing QP up to 51.
    qp_ceiling: Optional[float] = None

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not MIN_QP <= self.min_qp <= MAX_QP:
            raise ValueError(f"min_qp must be within [{MIN_QP}, {MAX_QP}]")
        if not MIN_QP <= self.max_qp <= MAX_QP:
            raise ValueError(f"max_qp must be within [{MIN_QP}, {MAX_QP}]")
        if self.min_qp > self.max_qp:
            raise ValueError("min_qp must not exceed max_qp")
        if self.qp_ceiling is not None and not MIN_QP <= self.qp_ceiling <= MAX_QP:
            raise ValueError("qp_ceiling must be within the QP range")


def correlation_to_qp(
    correlation: Union[float, np.ndarray],
    config: Optional[QpMapConfig] = None,
) -> Union[float, np.ndarray]:
    """Apply Equation (2): map semantic correlation to QP.

    Accepts scalars or arrays; correlations are clipped to [−1, 1] first.
    Larger correlation → smaller QP → more bits for that region.
    """
    config = config or QpMapConfig()
    rho = np.clip(np.asarray(correlation, dtype=float), -1.0, 1.0)
    normalised = (rho + 1.0) / 2.0
    qp = config.max_qp * (1.0 - np.power(normalised, config.gamma))
    qp = np.clip(qp, config.min_qp, config.max_qp)
    if config.qp_ceiling is not None:
        qp = np.minimum(qp, config.qp_ceiling)
    if np.isscalar(correlation):
        return float(qp)
    return qp


def qp_to_expected_correlation(qp: Union[float, np.ndarray], config: Optional[QpMapConfig] = None) -> Union[float, np.ndarray]:
    """Invert Equation (2) (useful for analysing an observed QP map)."""
    config = config or QpMapConfig()
    qp_arr = np.clip(np.asarray(qp, dtype=float), MIN_QP, config.max_qp)
    normalised = np.power(1.0 - qp_arr / config.max_qp, 1.0 / config.gamma)
    rho = 2.0 * normalised - 1.0
    if np.isscalar(qp):
        return float(rho)
    return rho


def uniform_qp_map(shape: tuple[int, int], qp: float) -> np.ndarray:
    """The context-agnostic baseline: one QP everywhere."""
    if not MIN_QP <= qp <= MAX_QP:
        raise ValueError(f"qp must be within [{MIN_QP}, {MAX_QP}]")
    return np.full(shape, float(qp))


def qp_map_statistics(qp_map: np.ndarray) -> dict[str, float]:
    """Summary statistics of a QP map (used in Figure 10-style reports)."""
    qp_map = np.asarray(qp_map, dtype=float)
    return {
        "min_qp": float(qp_map.min()),
        "max_qp": float(qp_map.max()),
        "mean_qp": float(qp_map.mean()),
        "std_qp": float(qp_map.std()),
        "fraction_at_ceiling": float(np.mean(qp_map >= MAX_QP - 0.5)),
        "fraction_high_quality": float(np.mean(qp_map <= 20.0)),
    }
