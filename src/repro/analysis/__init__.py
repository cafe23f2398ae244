"""Experiment engine, sweep aggregation and report formatting.

The analysis layer turns (topology, workload config, schemes) into the
paper's figures: :class:`ExperimentEngine` executes the (point x try x
scheme) task grid — serially or over a process pool, cached in a resumable
:class:`RunStore` — :class:`SweepResult` aggregates the metrics, and the
report helpers render the paper-style tables.

The sweep fabric (:mod:`repro.analysis.fabric`: sharded run stores, shard
workers and the merge) loads on first access to one of its names, through
a PEP 562 module ``__getattr__``, so a process that runs a sweep in one
process never imports it (DESIGN.md §8, "What a process imports").
"""

from importlib import import_module

from .artifacts import (
    DEFAULT_SCHEMES,
    SpecPoint,
    SpecRunResult,
    SweepSpec,
    build_schemes,
    export_artifacts,
    load_spec,
    provenance,
    replay_spec,
    run_spec,
    spec_from_dict,
    stats_summary,
)
from .engine import EngineRunStats, ExperimentEngine, ExperimentTask, replay
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

#: The fabric's public names, resolved on first access by ``__getattr__``.
_FABRIC = (
    "ShardedRunStore",
    "Worker",
    "WorkerStats",
    "MergeStats",
    "expand_sources",
    "merge_stores",
    "write_merged",
)

__all__ = [
    "ExperimentEngine",
    "ExperimentTask",
    "EngineRunStats",
    "replay",
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
    "replay_spec",
    "stats_summary",
    "provenance",
    "export_artifacts",
    *_FABRIC,
]


def __getattr__(name):
    if name == "fabric":
        return import_module(f"{__name__}.fabric")
    if name not in _FABRIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.fabric"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, "fabric"})
