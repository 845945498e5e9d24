"""Evaluation harnesses reproducing §IV: precision (Fig. 4, Table I) and
performance (Fig. 5), plus text renderers for paper-style output."""

from .diff import (
    OperatorDelta,
    PrecisionDiff,
    diff_reports,
    render_diff,
    render_diff_markdown,
)
from .performance import (
    TimingResult,
    generate_pairs,
    speedup_summary,
    time_algorithms,
)
from .precision import (
    MUL_ALGORITHMS,
    REJECT_COST_BITS,
    OperatorStats,
    PrecisionComparison,
    PrecisionReport,
    TrendRow,
    compare_precision,
    gamma_bits,
    precision_cdf,
    precision_trend,
)
from .report import (
    render_cdf_ascii,
    render_comparison,
    render_fig4,
    render_fig5,
    render_precision_markdown,
    render_precision_report,
    render_table1,
)
from .stats import cdf_points, log2_ratio, percentile, summarize

__all__ = [
    "compare_precision",
    "precision_cdf",
    "precision_trend",
    "PrecisionComparison",
    "TrendRow",
    "MUL_ALGORITHMS",
    "time_algorithms",
    "generate_pairs",
    "speedup_summary",
    "TimingResult",
    "OperatorStats",
    "PrecisionReport",
    "REJECT_COST_BITS",
    "gamma_bits",
    "OperatorDelta",
    "PrecisionDiff",
    "diff_reports",
    "render_diff",
    "render_diff_markdown",
    "render_table1",
    "render_fig4",
    "render_fig5",
    "render_cdf_ascii",
    "render_comparison",
    "render_precision_report",
    "render_precision_markdown",
    "cdf_points",
    "percentile",
    "summarize",
    "log2_ratio",
]
