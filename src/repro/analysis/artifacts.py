"""Declarative sweep specs, scheme resolution and artifact export.

This module is the data layer behind the ``repro`` CLI: it turns a *sweep
spec* — a YAML/JSON document naming a scenario grid and the schemes to
compare — into engine runs, and turns the resulting run store into durable
on-disk artifacts (run metadata with full provenance, plus
text/Markdown/CSV table renders).

A spec has two interchangeable shapes:

* **parameter sweep** (Figures 3 and 4)::

      name: fig3
      title: Figure 3 — coflow width sweep
      schemes: [LP-Based, Route-only, Schedule-only, Baseline]
      tries: 2
      base: {topology: "fat_tree(k=4)", num_coflows: 6, seed: 3000}
      sweep: {parameter: coflow_width, values: [4, 8, 16], label: "{value} flows"}

* **explicit point matrix** (the scenario matrix)::

      name: scenario-matrix
      schemes: [LP-Based, Baseline]
      points:
        - label: poisson/fat-tree
          config: {topology: "fat_tree(k=4)", seed: 7000}
        - label: incast/leaf-spine
          config: {topology: "leaf_spine(num_leaves=4)", endpoint_distribution: incast, seed: 7200}

Entries of ``schemes`` are scheme *specs* — legacy alias names or composed
``"pipeline(router=..., order=..., alloc=..., online=...)"`` expressions
(see :mod:`repro.baselines.spec` and ``specs/pipeline-matrix.yaml``), so a
spec document can enumerate stage cross-products declaratively.

Every point resolves to a full :class:`~repro.workloads.generator.
WorkloadConfig` (the ``base`` mapping is merged under each point's
``config``), and every config must carry a ``topology`` spec string so the
document alone describes the experiment.  Points may use different
topologies; :func:`spec_engines` makes one engine per topology, all sharing
the spec's run store (store keys embed the topology fingerprint, so this is
safe).

:func:`replay_spec` reads a spec's results back from a run store *without
executing anything*: :func:`run_spec` reads its own run through it, as do
``repro report`` and the sharded sweep, which is why reports re-rendered
from the store are byte-identical to the ones written when the sweep ran.
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .. import __version__
from ..baselines.base import Scheme
from ..baselines.spec import SCHEME_ALIASES, known_scheme_names, scheme_from_spec
from ..core.network import Network
from ..core.topologies import from_spec, parse_spec
from ..faults import FaultConfig
from ..sim.simulator import check_metric
from ..workloads.generator import WorkloadConfig
from .engine import EngineRunStats, ExperimentEngine, ExperimentTask, PointSpec, replay
from .report import REPORT_FORMATS, render_report
from .runstore import RunStore
from .sweep import SweepResult

_NOT_LOADED = object()
#: PyYAML, imported at the first YAML document (:func:`load_document`);
#: ``None`` where it is not installed.  It is optional: JSON specs always
#: work, YAML when it is present.
_yaml: Any = _NOT_LOADED

__all__ = [
    "SCHEME_ALIASES",
    "DEFAULT_SCHEMES",
    "build_schemes",
    "known_scheme_names",
    "scheme_from_spec",
    "SpecPoint",
    "SweepSpec",
    "SpecRunResult",
    "spec_from_dict",
    "strict_config_from_dict",
    "load_document",
    "load_spec",
    "spec_networks",
    "spec_engines",
    "run_spec",
    "replay_spec",
    "stats_summary",
    "provenance",
    "provenance_lines",
    "export_artifacts",
    "file_text",
    "ARTIFACT_FORMATS",
]

#: The four schemes of Section 4.3, in the paper's table order.
DEFAULT_SCHEMES: Tuple[str, ...] = (
    "LP-Based",
    "Route-only",
    "Schedule-only",
    "Baseline",
)

#: File extensions written by :func:`export_artifacts`, per report format.
ARTIFACT_FORMATS: Dict[str, str] = {"text": "txt", "markdown": "md", "csv": "csv"}


def build_schemes(names: Sequence[str]) -> List[Scheme]:
    """Instantiate schemes from spec strings (alias names or pipelines).

    Each entry is resolved through the spec grammar of
    :mod:`repro.baselines.spec`: a legacy alias name (``"Baseline"``,
    ``"Online-SEBF"``) or a raw composition such as
    ``"pipeline(router=lp, order=sebf, alloc=max-min)"``.  The first
    unresolvable entry raises ``ValueError`` naming the bad stage or
    scheme and listing the valid choices.

    Example::

        >>> [s.name for s in build_schemes(["Baseline", "LP-Based"])]
        ['Baseline', 'LP-Based']
    """
    return [scheme_from_spec(name) for name in names]


# -------------------------------------------------------------------- specs

def strict_config_from_dict(
    data: Mapping[str, Any], where: str = "config"
) -> WorkloadConfig:
    """Strict ``WorkloadConfig`` construction: unknown keys are an error.

    (The run store's ``config_from_dict`` is deliberately lenient so old
    stores survive new config fields; spec files and CLI inputs are
    hand-written, where silently dropping a typo would corrupt an
    experiment.)
    """
    known = {f.name for f in fields(WorkloadConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown workload config key(s) {unknown} in {where} "
            f"(known: {', '.join(sorted(known))})"
        )
    return WorkloadConfig(**dict(data))


@dataclass(frozen=True)
class SpecPoint:
    """One labelled cell of a sweep spec: a display label plus its config."""

    label: str
    config: WorkloadConfig


@dataclass(frozen=True)
class SweepSpec:
    """A fully resolved experiment declaration (see the module docstring).

    ``points`` carry complete workload configs (topology spec included);
    ``tries`` random instances are drawn per point by offsetting each
    config's seed, exactly like :meth:`ExperimentEngine.run`.  ``schemes``
    entries are scheme specs — alias names or ``pipeline(...)``
    compositions — validated eagerly at construction, as are the points'
    topology specs (:func:`~repro.core.topologies.parse_spec`) and the
    metric names (:data:`~repro.sim.simulator.METRICS`).
    """

    name: str
    points: Tuple[SpecPoint, ...]
    schemes: Tuple[str, ...] = DEFAULT_SCHEMES
    tries: int = 2
    metric: str = "weighted_completion_time"
    #: Additional metric columns aggregated from the same run records and
    #: appended to reports (e.g. the per-coflow slowdown summaries
    #: ``mean_slowdown`` / ``max_slowdown``).
    extra_metrics: Tuple[str, ...] = ()
    reference: Optional[str] = "Baseline"
    title: Optional[str] = None
    #: Optional fault-injection spec string (``"rate=0.1,seed=7"``) baked
    #: into the document — chaos suites are declarative too.  The CLI's
    #: ``--inject-faults`` overrides it.
    faults: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("spec needs a name")
        if not self.points:
            raise ValueError(f"spec {self.name!r} declares no points")
        if not self.schemes:
            raise ValueError(f"spec {self.name!r} declares no schemes")
        if self.tries < 1:
            raise ValueError("tries must be at least 1")
        for metric in (self.metric, *self.extra_metrics):
            check_metric(metric)
        if self.faults is not None:
            try:
                FaultConfig.from_spec(self.faults)
            except ValueError as error:
                raise ValueError(
                    f"spec {self.name!r} has an invalid faults spec: {error}"
                )
        build_schemes(self.schemes)  # fail fast on unknown names
        if self.reference is not None and self.reference not in self.schemes:
            raise ValueError(
                f"reference scheme {self.reference!r} is not among the spec's "
                f"schemes {list(self.schemes)}"
            )
        for point in self.points:
            if point.config.topology is None:
                raise ValueError(
                    f"point {point.label!r} of spec {self.name!r} has no "
                    "topology; specs must be self-contained (set `topology` "
                    "in `base` or in the point's config)"
                )
            try:
                parse_spec(point.config.topology)
            except ValueError as error:
                raise ValueError(
                    f"point {point.label!r} of spec {self.name!r}: {error}"
                ) from None

    # ------------------------------------------------------------- expansion
    def point_specs(self) -> List[PointSpec]:
        """Expand to the engine's ``(label, [config per try])`` point list."""
        return [
            (
                point.label,
                [
                    point.config.with_seed(point.config.seed + k)
                    for k in range(self.tries)
                ],
            )
            for point in self.points
        ]

    def total_tasks(self) -> int:
        """Number of (point x try x scheme) tasks this spec expands to."""
        return len(self.points) * self.tries * len(self.schemes)

    def display_title(self) -> str:
        """The report title: the explicit ``title`` or the spec name."""
        return self.title or self.name

    def smoke(self) -> "SweepSpec":
        """A CI-sized copy: 1 try, at most 2 coflows of width 2 per point.

        Smoke runs still cross every point with every scheme — they shrink
        the instances, not the grid — so an end-to-end smoke exercises the
        same topology builders, LP solves and store keys as the real sweep,
        in seconds.  A field that *varies* across points is the swept axis
        and is left untouched (clamping it would collapse the sweep into
        identical points).
        """
        def varies(field_name: str) -> bool:
            values = {getattr(p.config, field_name) for p in self.points}
            return len(values) > 1

        clamps = {
            name: 2
            for name in ("num_coflows", "coflow_width")
            if not varies(name)
        }
        points = tuple(
            SpecPoint(
                label=point.label,
                config=replace(
                    point.config,
                    **{
                        name: min(getattr(point.config, name), limit)
                        for name, limit in clamps.items()
                    },
                ),
            )
            for point in self.points
        )
        return replace(self, points=points, tries=1, name=f"{self.name}-smoke")

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """A JSON/YAML-safe dict that :func:`spec_from_dict` inverts."""
        from ..workloads.serialization import config_to_dict

        data: Dict[str, Any] = {
            "name": self.name,
            "schemes": list(self.schemes),
            "tries": self.tries,
            "metric": self.metric,
            "reference": self.reference,
            "points": [
                {"label": p.label, "config": config_to_dict(p.config)}
                for p in self.points
            ],
        }
        if self.extra_metrics:
            data["extra_metrics"] = list(self.extra_metrics)
        if self.title is not None:
            data["title"] = self.title
        if self.faults is not None:
            data["faults"] = self.faults
        return data


_SPEC_KEYS = {
    "name",
    "title",
    "schemes",
    "tries",
    "metric",
    "extra_metrics",
    "reference",
    "base",
    "sweep",
    "points",
    "faults",
}
_SWEEP_KEYS = {"parameter", "values", "label"}


def spec_from_dict(data: Mapping[str, Any]) -> SweepSpec:
    """Parse a spec document (already loaded from YAML/JSON) into a spec.

    Exactly one of ``sweep`` (parameter grid over ``base``) and ``points``
    (explicit labelled configs, each merged over ``base``) must be present;
    unknown keys anywhere are an error.
    """
    unknown = sorted(set(data) - _SPEC_KEYS)
    if unknown:
        raise ValueError(
            f"unknown spec key(s) {unknown} (known: {', '.join(sorted(_SPEC_KEYS))})"
        )
    name = data.get("name")
    if not name:
        raise ValueError("spec needs a `name`")
    base = dict(data.get("base") or {})
    has_sweep = "sweep" in data
    has_points = "points" in data
    if has_sweep == has_points:
        raise ValueError(
            f"spec {name!r} must declare exactly one of `sweep` and `points`"
        )

    points: List[SpecPoint] = []
    if has_sweep:
        sweep = data["sweep"]
        unknown = sorted(set(sweep) - _SWEEP_KEYS)
        if unknown:
            raise ValueError(f"unknown sweep key(s) {unknown} in spec {name!r}")
        parameter = sweep.get("parameter")
        values = sweep.get("values")
        if not parameter or not values:
            raise ValueError(
                f"spec {name!r}: `sweep` needs `parameter` and a non-empty `values`"
            )
        label_format = sweep.get("label", "{value}")
        base_config = strict_config_from_dict(base, f"spec {name!r} base")
        for value in values:
            config = ExperimentEngine._with_parameter(base_config, parameter, value)
            points.append(SpecPoint(label_format.format(value=value), config))
    else:
        for index, entry in enumerate(data["points"]):
            extra = sorted(set(entry) - {"label", "config"})
            if extra:
                raise ValueError(
                    f"unknown point key(s) {extra} in spec {name!r} point {index}"
                )
            merged = {**base, **dict(entry.get("config") or {})}
            label = entry.get("label") or f"point {index}"
            points.append(
                SpecPoint(label, strict_config_from_dict(merged, f"point {label!r}"))
            )

    kwargs: Dict[str, Any] = {}
    if "schemes" in data:
        kwargs["schemes"] = tuple(data["schemes"])
    if "tries" in data:
        kwargs["tries"] = int(data["tries"])
    if "metric" in data:
        kwargs["metric"] = str(data["metric"])
    if "extra_metrics" in data:
        kwargs["extra_metrics"] = tuple(str(m) for m in data["extra_metrics"])
    if "reference" in data:
        kwargs["reference"] = data["reference"]
    if "faults" in data and data["faults"] is not None:
        kwargs["faults"] = str(data["faults"])
    return SweepSpec(
        name=str(name),
        title=data.get("title"),
        points=tuple(points),
        **kwargs,
    )


def load_document(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a YAML or JSON mapping from disk (extension decides the parser).

    YAML needs PyYAML; when it is absent, ``.json`` documents keep working
    and ``.yaml``/``.yml`` raise ``RuntimeError`` with a pointer to the JSON
    fallback.  A document that does not parse, or is not a mapping, raises
    ``ValueError`` with a one-line reason (for YAML, the first line of the
    parser's message).  The CLI turns each into a one-line exit
    (``repro.cli.sweep.read_spec``, ``repro.cli.run.build_config``).
    """
    global _yaml
    path = Path(path)
    text = path.read_text()
    if path.suffix in (".yaml", ".yml"):
        if _yaml is _NOT_LOADED:
            try:
                import yaml as _yaml
            except ImportError:  # pragma: no cover - yaml-less installs only
                _yaml = None
        if _yaml is None:
            raise RuntimeError(
                "PyYAML is not installed (use a .json document instead)"
            )
        try:
            data = _yaml.safe_load(text)
        except _yaml.YAMLError as error:
            reason = str(error).partition("\n")[0]
            raise ValueError(f"malformed YAML: {reason}") from error
    else:
        data = json.loads(text)
    if not isinstance(data, Mapping):
        raise ValueError(f"{path} does not contain a mapping")
    return dict(data)


def load_spec(path: Union[str, Path]) -> SweepSpec:
    """Load a sweep spec from a ``.yaml``/``.yml`` or ``.json`` file."""
    return spec_from_dict(load_document(path))


# --------------------------------------------------------------------- runs

def spec_networks(spec: SweepSpec) -> Dict[str, Network]:
    """Each distinct topology of ``spec`` built once, by spec string, in
    the order the points first name them.

    A spec checks its topology strings when it is built
    (:func:`~repro.core.topologies.parse_spec`), but only a builder knows
    which values it takes: ``fat_tree(k=3)`` parses and fails here, with a
    ``ValueError`` that names the first point using it.
    :func:`spec_engines` builds every topology here before its first
    engine.
    """
    networks: Dict[str, Network] = {}
    for point in spec.points:
        topology = point.config.topology
        if topology not in networks:
            try:
                networks[topology] = from_spec(topology)
            except ValueError as error:
                raise ValueError(
                    f"point {point.label!r} of spec {spec.name!r}: {error}"
                ) from None
    return networks


#: One engine of a spec: its topology spec string, the engine, and its
#: share of the grid's tasks (with the spec's point indices).
SpecEngine = Tuple[str, ExperimentEngine, List[ExperimentTask]]


def spec_engines(
    spec: SweepSpec,
    store: RunStore,
    faults: Union[FaultConfig, str, None] = None,
    **knobs: Any,
) -> List[SpecEngine]:
    """One engine per distinct topology of ``spec``, in the order the
    points first name them, each with its share of the grid's tasks.

    Every engine shares ``store``, whose keys embed the topology
    fingerprint.  ``faults=None`` falls back to the spec's own ``faults``
    entry; ``knobs`` (``workers``, ``max_retries``, ...) go to every
    :class:`ExperimentEngine`.
    """
    point_specs = spec.point_specs()
    engines: List[SpecEngine] = []
    for topology, network in spec_networks(spec).items():
        engine = ExperimentEngine(
            network,
            build_schemes(spec.schemes),
            tries=spec.tries,
            metric=spec.metric,
            store=store,
            faults=spec.faults if faults is None else faults,
            **knobs,
        )
        indices = [
            index
            for index, point in enumerate(spec.points)
            if point.config.topology == topology
        ]
        tasks = engine.tasks_for([point_specs[i] for i in indices], indices)
        engines.append((topology, engine, tasks))
    return engines


@dataclass
class SpecRunResult:
    """A spec's results read back from its run store (:func:`replay_spec`),
    and their accounting."""

    spec: SweepSpec
    result: SweepResult
    stats: EngineRunStats
    #: topology spec string -> network fingerprint actually used.
    fingerprints: Dict[str, str] = field(default_factory=dict)
    #: extra metric name -> its aggregate (one per ``spec.extra_metrics``).
    extras: Dict[str, SweepResult] = field(default_factory=dict)


def replay_spec(
    spec: SweepSpec, store: RunStore, engines: Optional[List[SpecEngine]] = None
) -> SpecRunResult:
    """Read a spec's results back from ``store``, running nothing.

    Replays the tasks of ``engines`` (default: :func:`spec_engines`, which
    builds every topology to hash the keys) for the spec's metric and its
    ``extra_metrics``.  ``stats`` count the grid, its failed and missing
    cells and the store's skipped lines, so ``stats.coverage`` is the
    coverage every exit code and ``run.json`` read.
    """
    if engines is None:
        engines = spec_engines(spec, store)
    tasks = [task for _, _, group in engines for task in group]
    results, missing = replay(
        tasks,
        store,
        [point.label for point in spec.points],
        [spec.metric, *spec.extra_metrics],
    )
    result = results[spec.metric]
    return SpecRunResult(
        spec=spec,
        result=result,
        stats=EngineRunStats(
            total_tasks=len(tasks),
            failed=result.total_failures(),
            missing=missing,
            skipped_records=store.skipped_lines,
        ),
        fingerprints={
            topology: engine.topology_fingerprint for topology, engine, _ in engines
        },
        extras={metric: results[metric] for metric in spec.extra_metrics},
    )


def run_spec(
    spec: SweepSpec,
    store: Union[RunStore, str, Path, None] = None,
    workers: Optional[int] = None,
    faults: Union[FaultConfig, str, None] = None,
    max_retries: int = 2,
    task_timeout: Optional[float] = None,
    retry_failed: bool = False,
    lp_time_limit: Optional[float] = None,
) -> SpecRunResult:
    """Execute a sweep spec on the experiment engine, then read it back.

    Runs each engine of :func:`spec_engines` over its tasks (tasks already
    in the store are never re-run, so a warm store is pure replay) and
    returns :func:`replay_spec` of the same engines, which rebuilds no
    topology and rehashes no key, with their accounting.

    The fault-tolerance knobs mirror :class:`ExperimentEngine`'s:
    ``faults`` enables deterministic injection (``None`` falls back to the
    spec's own ``faults`` entry), ``max_retries``/``task_timeout`` bound
    transient retries and per-task wall-clock, ``retry_failed`` re-runs
    stored failure records, ``lp_time_limit`` budgets every HiGHS solve.
    """
    if not isinstance(store, RunStore):
        store = RunStore(store)
    engines = spec_engines(
        spec,
        store,
        faults,
        workers=workers,
        max_retries=max_retries,
        task_timeout=task_timeout,
        retry_failed=retry_failed,
        lp_time_limit=lp_time_limit,
    )
    ran = [engine.run_tasks(tasks) for _, engine, tasks in engines]
    run = replay_spec(spec, store, engines)
    run.stats.workers = workers or 1
    for name in ("cached", "executed", "seconds", "retried", "pool_restarts"):
        setattr(run.stats, name, sum(getattr(stats, name) for stats in ran))
    return run


def stats_summary(stats: EngineRunStats) -> str:
    """One-line cache/parallelism report for a finished spec run.

    Failure accounting (failed / retried tasks, pool restarts) is appended
    only when non-zero, so clean runs keep the historical line format.
    """
    line = (
        f"engine: {stats.total_tasks} tasks, {stats.cached} cached, "
        f"{stats.executed} executed, {stats.workers} worker(s), "
        f"{stats.seconds:.2f}s"
    )
    trouble = []
    if stats.failed:
        trouble.append(f"{stats.failed} failed")
    if stats.retried:
        trouble.append(f"{stats.retried} retried")
    if stats.pool_restarts:
        trouble.append(f"{stats.pool_restarts} pool restart(s)")
    if stats.skipped_records:
        trouble.append(f"{stats.skipped_records} skipped record(s)")
    if trouble:
        line += " [" + ", ".join(trouble) + "]"
    return line


# --------------------------------------------------------------- provenance

def provenance() -> Dict[str, Any]:
    """Environment + deviation fingerprint stamped into every artifact.

    Records the package version, the interpreter and core dependency
    versions, the LP solve path actually in use (the direct HiGHS path or
    the ``linprog`` fallback) with the HiGHS version, and the deliberate
    deviations from the paper (DESIGN.md sections) — so a result file is
    interpretable long after the run.  A process that built no LP scheme
    has not loaded :mod:`repro.lp.solver`; its record names HiGHS without
    loading the solver for it, and it imports nothing the run has not
    (DESIGN.md §8).
    """
    import numpy
    import scipy

    solver = sys.modules.get("repro.lp.solver")
    solve_path = (
        solver.solver_description()
        if solver is not None
        else "HiGHS via scipy, not loaded (no LP scheme in this process)"
    )
    return {
        "package": "repro",
        "version": __version__,
        "paper": (
            "Jahanjou, Kantor & Rajaraman — Asymptotically Optimal "
            "Approximation Algorithms for Coflow Scheduling (SPAA 2017)"
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "solver": f"{solve_path} (paper: IBM CPLEX)",
        "deviations": [
            "LP solver: open-source HiGHS replaces IBM CPLEX (DESIGN.md §1)",
            "evaluation: flow-level simulator, not a packet-level testbed (DESIGN.md §6)",
            "rounding constants: feasible (alpha=0.49, D=4, eps=0.55), not the "
            "paper's optimized triple (DESIGN.md §4)",
            "Srinivasan–Teo replaced by the practical delay+list-scheduling "
            "recipe (DESIGN.md §5)",
            "interval bandwidth normalised by interval length (DESIGN.md §3)",
        ],
    }


def provenance_lines() -> List[str]:
    """The ``repro --version`` output: version, the solve path, the compiled
    cores (each loaded from its cache path, or unavailable with the reason,
    built through the shared loader if need be), and the deviation list.
    It loads the LP solver, so the solve path is named with its HiGHS
    version."""
    from ..core.network import PATH_CORE
    from ..lp import solver  # noqa: F401  (names the HiGHS version)
    from ..sim.kernel_jit import CORE as KERNEL_CORE

    info = provenance()
    lines = [
        f"repro {info['version']} — {info['paper']}",
        f"python {info['python']}, numpy {info['numpy']}, scipy {info['scipy']}",
        f"solver: {info['solver']}",
        f"simulator kernel: {KERNEL_CORE.describe()}",
        f"path core (Yen's): {PATH_CORE.describe()}",
        "deliberate deviations from the paper:",
    ]
    lines.extend(f"  - {deviation}" for deviation in info["deviations"])
    return lines


# ---------------------------------------------------------------- artifacts

def file_text(rendered: str) -> str:
    """A rendered report as its file holds it: ending in one newline (CSV
    already does, the tables do not).  ``repro report`` writes stdout by
    the same rule, so its output equals the file byte for byte."""
    return rendered if rendered.endswith("\n") else rendered + "\n"


def export_artifacts(
    out_dir: Union[str, Path],
    spec: SweepSpec,
    result: SweepResult,
    stats: Optional[EngineRunStats] = None,
    fingerprints: Optional[Mapping[str, str]] = None,
    store: Optional[RunStore] = None,
    extras: Optional[Mapping[str, SweepResult]] = None,
    extra_metadata: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Path]:
    """Write a sweep's durable artifacts under ``out_dir/<spec.name>/``.

    Files written (returned as ``{kind: path}``):

    * ``run.json`` — spec document, provenance, engine statistics, topology
      fingerprints and the store location: everything needed to interpret
      or exactly re-run the sweep;
    * ``report.txt`` / ``report.md`` / ``report.csv`` — the paper-style
      tables in every format of
      :data:`~repro.analysis.report.REPORT_FORMATS`.

    ``extra_metadata`` entries are merged into ``run.json`` top-level —
    the sharded sweep coordinator records its fleet accounting there
    (shard count, per-shard stats, lost shards).
    """
    target = Path(out_dir) / spec.name
    target.mkdir(parents=True, exist_ok=True)
    paths: Dict[str, Path] = {}

    metadata: Dict[str, Any] = {
        "spec": spec.to_dict(),
        "provenance": provenance(),
        "topology_fingerprints": dict(fingerprints or {}),
        "store": str(store.path) if store is not None and store.path else None,
        "total_tasks": spec.total_tasks(),
    }
    if extra_metadata:
        metadata.update(dict(extra_metadata))
    if stats is not None:
        metadata["engine"] = {
            "total_tasks": stats.total_tasks,
            "cached": stats.cached,
            "executed": stats.executed,
            "workers": stats.workers,
            "seconds": round(stats.seconds, 3),
            "failed": stats.failed,
            "retried": stats.retried,
            "pool_restarts": stats.pool_restarts,
            "skipped_records": stats.skipped_records,
            "coverage": round(stats.coverage, 6),
        }
    paths["run"] = target / "run.json"
    paths["run"].write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")

    for fmt in REPORT_FORMATS:
        rendered = render_report(
            result,
            spec.display_title(),
            reference=spec.reference,
            fmt=fmt,
            extras=extras,
        )
        path = target / f"report.{ARTIFACT_FORMATS[fmt]}"
        path.write_text(file_text(rendered))
        paths[fmt] = path
    return paths
