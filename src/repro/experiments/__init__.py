"""Experiment runners: one per paper table and figure."""

from .ablations import (
    AblationPoint,
    sweep_bandwidth_estimator,
    sweep_clustering_sigma,
    sweep_frame_rate_ladder,
    sweep_ladder,
    sweep_mpc_horizon,
    sweep_qoe_tolerance,
    sweep_edge_cache,
    sweep_resilience,
    sweep_robust,
    sweep_shared_cache,
    sweep_viewport_predictor,
)
from .artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    RESULTS_SCHEMA_VERSION,
    ArtifactStats,
    ArtifactStore,
    content_digest,
    default_cache_dir,
    results_shard_key,
    session_job_digest,
    structural_fingerprint,
    sweep_context_digest,
)
from .analysis import (
    BootstrapCI,
    PairedComparison,
    bootstrap_ci,
    compare_schemes,
    paired_comparison,
)
from .fig2 import Fig2Result, run_fig2
from .full_report import ReportConfig, generate_report
from .fig4 import Fig4Result, run_fig4
from .fig5 import Fig5Result, run_fig5
from .fig6 import Fig6Result, make_wide_cluster, run_fig6
from .fig7 import Fig7Result, run_fig7
from .fig8 import Fig8Result, PAPER_MEDIANS, run_fig8
from .fig9 import EnergyComparison, run_fig9, summarize_energy
from .fig11 import QoEComparison, summarize_qoe
from .population import PopulationSummary, run_population
from .report import print_lines
from .runner import (
    JobFailure,
    JobTiming,
    SessionJob,
    SweepContext,
    SweepRun,
    parallel_map,
    resolve_chunk_size,
    resolve_workers,
    run_session_jobs,
)
from .setup import (
    ExperimentSetup,
    SCHEME_ORDER,
    build_sweep,
    make_schemes,
    make_setup,
    run_comparison,
)
from .tables import Table2Result, run_table2, table1_rows, table3_rows

__all__ = [
    "AblationPoint",
    "sweep_bandwidth_estimator",
    "sweep_clustering_sigma",
    "sweep_frame_rate_ladder",
    "sweep_ladder",
    "sweep_mpc_horizon",
    "sweep_qoe_tolerance",
    "sweep_edge_cache",
    "sweep_resilience",
    "sweep_robust",
    "sweep_shared_cache",
    "sweep_viewport_predictor",
    "BootstrapCI",
    "PairedComparison",
    "bootstrap_ci",
    "compare_schemes",
    "paired_comparison",
    "ARTIFACT_SCHEMA_VERSION",
    "RESULTS_SCHEMA_VERSION",
    "ArtifactStats",
    "ArtifactStore",
    "content_digest",
    "default_cache_dir",
    "results_shard_key",
    "session_job_digest",
    "structural_fingerprint",
    "sweep_context_digest",
    "Fig2Result",
    "run_fig2",
    "ReportConfig",
    "generate_report",
    "Fig4Result",
    "run_fig4",
    "Fig5Result",
    "run_fig5",
    "Fig6Result",
    "make_wide_cluster",
    "run_fig6",
    "Fig7Result",
    "run_fig7",
    "Fig8Result",
    "PAPER_MEDIANS",
    "run_fig8",
    "EnergyComparison",
    "run_fig9",
    "summarize_energy",
    "QoEComparison",
    "summarize_qoe",
    "PopulationSummary",
    "run_population",
    "print_lines",
    "JobFailure",
    "JobTiming",
    "SessionJob",
    "SweepContext",
    "SweepRun",
    "parallel_map",
    "resolve_chunk_size",
    "resolve_workers",
    "run_session_jobs",
    "ExperimentSetup",
    "SCHEME_ORDER",
    "build_sweep",
    "make_schemes",
    "make_setup",
    "run_comparison",
    "Table2Result",
    "run_table2",
    "table1_rows",
    "table3_rows",
]
