"""DeViBench: the Degraded Video Understanding Benchmark (Section 3.1).

The five-step automatic construction pipeline (collect → preprocess →
generate → filter → cross-verify), the benchmark data model, the evaluation
harness used by Figure 9, and Table 1 / Figure 8 statistics.
"""

from .dataset import OPTION_LETTERS, BenchmarkSummary, DeViBench, QASample
from .evaluate import (
    BenchmarkEvaluator,
    EvaluationResult,
    SampleEvaluation,
    coarse_qa_breakage_rate,
)
from .filtering import FilterDecision, FilterReport, QAFilter
from .generation import (
    QA_GENERATION_PROMPT,
    CandidateQA,
    GenerationConfig,
    QAGenerator,
)
from .pipeline import (
    PAPER_FILTER_ACCEPTANCE,
    PAPER_OVERALL_YIELD,
    PAPER_SAMPLE_COUNT,
    PAPER_VERIFICATION_APPROVAL,
    DeViBenchPipeline,
    PipelineReport,
    build_benchmark,
)
from .stats import (
    DistributionRow,
    Table1Row,
    figure8_distribution,
    figure8_temporal_split,
    format_figure8,
    format_table1,
    table1_rows,
)
from .verification import CrossVerifier, VerificationDecision, VerificationReport
from .videos import (
    DEFAULT_LOW_BITRATE_BPS,
    SAMPLING_FPS,
    PreparedVideo,
    VideoCollection,
)

__all__ = [
    "BenchmarkEvaluator",
    "BenchmarkSummary",
    "CandidateQA",
    "CrossVerifier",
    "DEFAULT_LOW_BITRATE_BPS",
    "DeViBench",
    "DeViBenchPipeline",
    "DistributionRow",
    "EvaluationResult",
    "FilterDecision",
    "FilterReport",
    "GenerationConfig",
    "OPTION_LETTERS",
    "PAPER_FILTER_ACCEPTANCE",
    "PAPER_OVERALL_YIELD",
    "PAPER_SAMPLE_COUNT",
    "PAPER_VERIFICATION_APPROVAL",
    "PipelineReport",
    "PreparedVideo",
    "QAFilter",
    "QAGenerator",
    "QASample",
    "QA_GENERATION_PROMPT",
    "SAMPLING_FPS",
    "SampleEvaluation",
    "Table1Row",
    "VerificationDecision",
    "VerificationReport",
    "VideoCollection",
    "build_benchmark",
    "coarse_qa_breakage_rate",
    "figure8_distribution",
    "figure8_temporal_split",
    "format_figure8",
    "format_table1",
    "table1_rows",
]
