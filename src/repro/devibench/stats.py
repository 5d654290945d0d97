"""Benchmark statistics: Table 1 rows and the Figure 8 distribution.

Table 1 of the paper summarises DeViBench (1,074 samples, 6×2 types,
180,000 s of video, $68.47, 99,471 s); Figure 8 shows the category mix
(text-rich 54.84 %, action 17.03 %, attribute 14.43 %, counting 6 %, object
5.9 %, spatial 1.8 %) and the single-/multi-frame split (34.45 % multi).
This module produces the same rows for a benchmark we construct, side by
side with the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..video.scene import CATEGORIES, PAPER_CATEGORY_DISTRIBUTION, PAPER_MULTI_FRAME_FRACTION
from .dataset import DeViBench
from .pipeline import (
    PAPER_SAMPLE_COUNT,
    PAPER_TOTAL_DURATION_S,
    PAPER_TOTAL_MONEY_USD,
    PAPER_TOTAL_TIME_S,
    PipelineReport,
)


@dataclass
class Table1Row:
    """One row of the Table 1 comparison."""

    metric: str
    paper_value: float
    reproduced_value: float


def table1_rows(report: PipelineReport) -> list[Table1Row]:
    """Build the Table 1 comparison for a constructed benchmark."""
    benchmark = report.benchmark
    return [
        Table1Row("Number of QA samples", float(PAPER_SAMPLE_COUNT), float(len(benchmark))),
        Table1Row("QA sample types", 12.0, float(benchmark.sample_type_count())),
        Table1Row(
            "Total duration (s)", PAPER_TOTAL_DURATION_S, float(report.total_video_duration_s)
        ),
        Table1Row("Total money spent ($)", PAPER_TOTAL_MONEY_USD, float(report.estimated_money_usd)),
        Table1Row("Total time cost (s)", PAPER_TOTAL_TIME_S, float(report.estimated_time_s)),
    ]


@dataclass
class DistributionRow:
    """One slice of the Figure 8 distribution comparison."""

    category: str
    paper_fraction: float
    reproduced_fraction: float
    reproduced_count: int


def figure8_distribution(benchmark: DeViBench) -> list[DistributionRow]:
    """The category distribution of a benchmark next to the paper's Figure 8."""
    distribution = benchmark.category_distribution()
    rows = []
    for category in CATEGORIES:
        rows.append(
            DistributionRow(
                category=category,
                paper_fraction=PAPER_CATEGORY_DISTRIBUTION[category],
                reproduced_fraction=distribution[category],
                reproduced_count=len(benchmark.by_category(category)),
            )
        )
    return rows


def figure8_temporal_split(benchmark: DeViBench) -> dict[str, float]:
    """The single-frame / multi-frame split of Figure 8's inner ring."""
    multi = benchmark.multi_frame_fraction()
    return {
        "multi_frame_fraction": multi,
        "single_frame_fraction": 1.0 - multi,
        "paper_multi_frame_fraction": PAPER_MULTI_FRAME_FRACTION,
        "paper_single_frame_fraction": 1.0 - PAPER_MULTI_FRAME_FRACTION,
    }


def format_table1(report: PipelineReport) -> str:
    """Human-readable Table 1 comparison."""
    lines = [f"{'Metric':<28}{'Paper':>14}{'Reproduced':>14}"]
    for row in table1_rows(report):
        lines.append(f"{row.metric:<28}{row.paper_value:>14.2f}{row.reproduced_value:>14.2f}")
    funnel = report.funnel()
    lines.append("")
    lines.append(f"{'Funnel stage':<28}{'Paper':>14}{'Reproduced':>14}")
    lines.append(
        f"{'Filter acceptance':<28}{funnel['paper_filter_acceptance_rate']:>14.4f}"
        f"{funnel['filter_acceptance_rate']:>14.4f}"
    )
    lines.append(
        f"{'Cross-verification pass':<28}{funnel['paper_verification_approval_rate']:>14.4f}"
        f"{funnel['verification_approval_rate']:>14.4f}"
    )
    lines.append(
        f"{'Overall yield':<28}{funnel['paper_overall_yield']:>14.4f}{funnel['overall_yield']:>14.4f}"
    )
    return "\n".join(lines)


def format_figure8(benchmark: DeViBench) -> str:
    """Human-readable Figure 8 comparison."""
    lines = [f"{'Category':<22}{'Paper':>10}{'Reproduced':>12}{'Count':>8}"]
    for row in figure8_distribution(benchmark):
        lines.append(
            f"{row.category:<22}{row.paper_fraction:>10.3f}{row.reproduced_fraction:>12.3f}"
            f"{row.reproduced_count:>8d}"
        )
    split = figure8_temporal_split(benchmark)
    lines.append("")
    lines.append(
        f"multi-frame: paper {split['paper_multi_frame_fraction']:.3f} "
        f"vs reproduced {split['multi_frame_fraction']:.3f}"
    )
    return "\n".join(lines)
