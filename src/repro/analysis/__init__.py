"""Experiment engine, sweep aggregation and report formatting.

The analysis layer turns (topology, workload config, schemes) into the
paper's figures: :class:`ExperimentEngine` executes the (point x try x
scheme) task grid — serially or over a process pool, cached in a resumable
:class:`RunStore` — :class:`SweepResult` aggregates the metrics, and the
report helpers render the paper-style tables.
"""

from .artifacts import (
    DEFAULT_SCHEMES,
    SpecPoint,
    SpecRunResult,
    SweepSpec,
    build_schemes,
    export_artifacts,
    load_spec,
    provenance,
    result_from_store,
    run_spec,
    spec_from_dict,
    stats_summary,
)
from .engine import EngineRunStats, ExperimentEngine, ExperimentTask
from .fabric import (
    MergeStats,
    ShardedRunStore,
    Worker,
    WorkerStats,
    expand_sources,
    merge_stores,
    write_merged,
)
from .report import (
    csv_report,
    failure_rows,
    format_csv,
    format_markdown,
    format_table,
    improvement_summary,
    ratio_table,
    render_report,
    sweep_table,
)
from .runstore import RunStore, run_key
from .sweep import SweepPoint, SweepResult

__all__ = [
    "ExperimentEngine",
    "ExperimentTask",
    "EngineRunStats",
    "RunStore",
    "run_key",
    "SweepPoint",
    "SweepResult",
    "format_table",
    "format_markdown",
    "format_csv",
    "sweep_table",
    "ratio_table",
    "improvement_summary",
    "csv_report",
    "failure_rows",
    "render_report",
    "DEFAULT_SCHEMES",
    "build_schemes",
    "SpecPoint",
    "SpecRunResult",
    "SweepSpec",
    "spec_from_dict",
    "load_spec",
    "run_spec",
    "result_from_store",
    "stats_summary",
    "provenance",
    "export_artifacts",
    "ShardedRunStore",
    "Worker",
    "WorkerStats",
    "MergeStats",
    "expand_sources",
    "merge_stores",
    "write_merged",
]
