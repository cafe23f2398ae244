"""``repro bench`` — the paper-figure suites as CLI-driven sweeps.

Each suite regenerates one table or figure of the paper; a sweep suite
runs its ``specs/<suite>.yaml`` through the same spec/engine/artifact
pipeline as ``repro sweep`` (``headline`` pools ``headline-width.yaml`` and
``headline-count.yaml``):

* ``fig3``            — coflow-width sweep (Figure 3, both panels);
* ``fig4``            — number-of-coflows sweep (Figure 4, both panels);
* ``headline``        — the Section 1.2/4.3 average-improvement summary;
* ``table1``          — measured approximation ratios vs the LP lower
  bounds for the four model variants (Table 1);
* ``scenario-matrix`` — every scheme crossed with four scenario families
  (heavy-tailed, incast, skewed hotspots) on four topologies;
* ``online``          — static vs arrival-driven re-planning schemes with
  per-coflow slowdown columns;
* ``simulator``       — events/sec of the kernel tiers (array and jit)
  vs the reference event loop, static vs online, on a pinned leaf-spine
  instance plus a 100k-flow gate instance (``specs/simulator-100k.yaml``);
  appends every run to ``BENCH_simulator.json`` at the repo root;
* ``streaming``       — the streaming scheduler service: the LP replanner
  batched vs re-planning per arrival on a pinned arrival stream
  (``specs/streaming.yaml``), reporting replans/sec, arrivals per
  planning second, p99 decision latency, per-re-plan epoch-setup cost and
  online events/sec, with every flow's completion and the staleness-bound
  invariant asserted; plus the 100k-flow session stream
  (``specs/streaming-100k.yaml``): one resident kernel session re-planning
  at every arrival, its online events/sec recorded, every flow's
  completion and the staleness bound asserted; appends to
  ``BENCH_simulator.json``;
* ``pipeline-matrix`` — a router x orderer x allocator cross-product swept
  as composed ``pipeline(...)`` specs, one report column per composition;
* ``pipeline``        — per-stage plan-time breakdown (route vs order vs
  LP solve) of representative compositions on a pinned leaf-spine
  instance.

``specs/`` (read with PyYAML) defines what the suites run, the sweeps
scaled down to keep each comparison's shape in minutes; ``--paper-scale``
reads ``specs/paper/`` instead (k=8 fat-tree, widths up to 32, slow with an
open-source solver), ignored by a suite with no file there.  ``repro bench
<suite>`` is each suite's one entry point; the scripts under
``benchmarks/`` measure what no suite covers (LP assembly and scaling, the
Figure-1 example, two ablations).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.artifacts import (
    SpecRunResult,
    SweepSpec,
    export_artifacts,
    load_document,
    provenance,
    run_spec,
    stats_summary,
)
from ..analysis.report import (
    format_csv,
    format_markdown,
    format_table,
    improvement_summary,
    render_report,
)
from ..analysis.runstore import RunStore
from .main import bounded
from .sweep import read_spec

SUITES = (
    "fig3",
    "fig4",
    "headline",
    "table1",
    "scenario-matrix",
    "online",
    "simulator",
    "streaming",
    "pipeline-matrix",
    "pipeline",
)

#: The checked-in specs (``--paper-scale``: the ``paper/`` subdirectory).
SPECS_DIR = Path(__file__).resolve().parents[3] / "specs"

#: The sweep suites, the only users of ``--tries``, and their spec files.
_SUITE_SPECS = {
    "fig3": ("fig3",),
    "fig4": ("fig4",),
    "headline": ("headline-width", "headline-count"),
    "scenario-matrix": ("scenario-matrix",),
    "online": ("online",),
    "pipeline-matrix": ("pipeline-matrix",),
}


def suite_specs(
    suite: str, paper_scale: bool = False, tries: Optional[int] = None, smoke: bool = False
) -> List[SweepSpec]:
    """The sweep specs a suite runs, read from ``specs/`` (``specs/paper/``
    when ``paper_scale``), with ``tries`` and then ``smoke`` applied."""
    directory = SPECS_DIR / "paper" if paper_scale else SPECS_DIR
    specs = []
    for name in _SUITE_SPECS[suite]:
        spec = read_spec(directory / f"{name}.yaml")
        if tries is not None:
            spec = replace(spec, tries=tries)
        specs.append(spec.smoke() if smoke else spec)
    return specs


def _write_static_report(
    target: Path,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str,
    metadata: Dict[str, Any],
) -> None:
    """Write a non-sweep suite's artifacts: the three report formats plus a
    ``run.json`` carrying the provenance block every artifact promises
    (DESIGN.md §8)."""
    target.mkdir(parents=True, exist_ok=True)
    (target / "report.txt").write_text(format_table(headers, rows, title=title) + "\n")
    (target / "report.md").write_text(format_markdown(headers, rows, title=title) + "\n")
    (target / "report.csv").write_text(format_csv(headers, rows))
    document = {"provenance": provenance(), **metadata}
    (target / "run.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )


# ------------------------------------------------------------- sweep suites

def run_sweep_suite(
    spec: SweepSpec,
    out_dir: Path,
    workers: int = 0,
    store: Optional[RunStore] = None,
) -> Tuple[SpecRunResult, Dict[str, Path]]:
    """Run one spec against its artifact-directory store and export."""
    if store is None:
        store = RunStore(Path(out_dir) / spec.name / "runstore.jsonl")
    run = run_spec(spec, store, workers=workers)
    paths = export_artifacts(
        out_dir, spec, run.result, run.stats, run.fingerprints, store,
        extras=run.extras,
    )
    return run, paths


def headline_improvements(
    width_run: SpecRunResult, count_run: SpecRunResult
) -> Dict[str, float]:
    """Average improvement of LP-Based over each heuristic, pooled across
    the two headline regimes (mean of the two sweeps' per-sweep averages)."""
    import numpy as np

    improvements = {}
    for reference in ("Baseline", "Schedule-only", "Route-only"):
        gains = [
            width_run.result.average_improvement("LP-Based", reference),
            count_run.result.average_improvement("LP-Based", reference),
        ]
        improvements[reference] = float(np.mean(gains))
    return improvements


def run_headline(
    out_dir: Path,
    workers: int = 0,
    paper_scale: bool = False,
    tries: Optional[int] = None,
    smoke: bool = False,
) -> Tuple[Dict[str, float], SpecRunResult, SpecRunResult]:
    """Run the headline pool (two sweeps mixing the Figure-3 and Figure-4
    regimes in one shared store) and export its summary table."""
    width_spec, count_spec = suite_specs("headline", paper_scale, tries, smoke)
    name = "headline-smoke" if smoke else "headline"
    target = Path(out_dir) / name
    store = RunStore(target / "runstore.jsonl")
    width_run, _ = run_sweep_suite(width_spec, out_dir, workers, store=store)
    count_run, _ = run_sweep_suite(count_spec, out_dir, workers, store=store)

    improvements = headline_improvements(width_run, count_run)
    title = (
        "Headline: average improvement of LP-Based (paper: 110-126% vs "
        "Baseline, 72-96% vs Schedule-only, 22-26% vs Route-only)"
    )
    _write_static_report(
        target,
        ["reference scheme", "avg improvement of LP-Based (%)"],
        [[name_, gain] for name_, gain in improvements.items()],
        title,
        {
            "suite": name,
            "pools": [width_spec.to_dict(), count_spec.to_dict()],
            "store": str(store.path),
            "engine": {
                "total_tasks": width_run.stats.total_tasks + count_run.stats.total_tasks,
                "cached": width_run.stats.cached + count_run.stats.cached,
                "executed": width_run.stats.executed + count_run.stats.executed,
                "workers": workers or 1,
            },
        },
    )
    return improvements, width_run, count_run


# ------------------------------------------------------------ table1 suite

def circuit_given_paths_ratio() -> Tuple[float, float]:
    """Circuit model, paths given: measured ratio and the proved blow-up."""
    from ..circuit import GivenPathsScheduler
    from ..core import topologies
    from ..workloads import CoflowGenerator, WorkloadConfig

    network = topologies.fat_tree(4)
    instance = CoflowGenerator(
        network, WorkloadConfig(num_coflows=4, coflow_width=4, seed=41)
    ).instance()
    routed = instance.with_paths(
        {
            fid: network.shortest_path(
                instance.flow(fid).source, instance.flow(fid).destination
            )
            for fid in instance.flow_ids()
        }
    )
    result = GivenPathsScheduler(routed, network).schedule()
    return result.approximation_ratio, result.parameters.blowup_factor


def circuit_routing_ratio() -> Tuple[float, float]:
    """Circuit model, paths not given: measured ratio and Chernoff bound."""
    from ..circuit import PathsNotGivenScheduler, chernoff_congestion_bound
    from ..core import topologies
    from ..workloads import CoflowGenerator, WorkloadConfig

    network = topologies.fat_tree(4)
    instance = CoflowGenerator(
        network, WorkloadConfig(num_coflows=4, coflow_width=4, seed=42)
    ).instance()
    scheduler = PathsNotGivenScheduler(instance, network, seed=0)
    plan, result = scheduler.schedule()
    ratio = result.objective / plan.lower_bound if plan.lower_bound > 0 else 1.0
    return ratio, chernoff_congestion_bound(network.num_edges)


def packet_given_paths_ratio() -> float:
    """Packet model, paths given: measured ratio vs the job-shop LP bound."""
    from ..core import topologies
    from ..packet import PacketGivenPathsScheduler
    from ..workloads import CoflowGenerator, WorkloadConfig

    network = topologies.fat_tree(4)
    instance = CoflowGenerator(
        network,
        WorkloadConfig(
            num_coflows=4, coflow_width=3, unit_sizes=True, release_rate=None, seed=43
        ),
    ).instance()
    routed = instance.with_paths(
        {
            fid: network.shortest_path(
                instance.flow(fid).source, instance.flow(fid).destination
            )
            for fid in instance.flow_ids()
        }
    )
    return PacketGivenPathsScheduler(routed, network).schedule().approximation_ratio


def packet_routing_ratio() -> float:
    """Packet model, paths not given: measured ratio on the time-expanded LP."""
    from ..core import topologies
    from ..packet import PacketRoutingScheduler
    from ..workloads import CoflowGenerator, WorkloadConfig

    network = topologies.ring(6)
    instance = CoflowGenerator(
        network,
        WorkloadConfig(
            num_coflows=3, coflow_width=3, unit_sizes=True, release_rate=None, seed=44
        ),
    ).instance()
    return PacketRoutingScheduler(instance, network, seed=0).schedule().approximation_ratio


def table1_ratios() -> Dict[str, Tuple[float, str]]:
    """Measured approximation ratios for the four model variants of Table 1.

    Returns ``{variant: (measured ratio, paper guarantee)}``; the measured
    ratios are small constants far below the worst-case analysis.
    """
    circuit_given, circuit_given_bound = circuit_given_paths_ratio()
    circuit_routed, congestion_bound = circuit_routing_ratio()
    return {
        "circuit / given": (circuit_given, f"O(1): {circuit_given_bound:.1f}"),
        "circuit / not given": (
            circuit_routed,
            f"O(log E / log log E): 1+delta = {congestion_bound:.1f}",
        ),
        "packet / given": (packet_given_paths_ratio(), "O(1)"),
        "packet / not given": (packet_routing_ratio(), "O(1)"),
    }


def run_table1(out_dir: Path) -> Dict[str, Tuple[float, str]]:
    """Run the Table-1 measurements and export text/Markdown/CSV renders."""
    ratios = table1_ratios()
    _write_static_report(
        Path(out_dir) / "table1",
        ["model / paths", "measured ratio vs LP bound", "paper guarantee"],
        [[model, measured, bound] for model, (measured, bound) in ratios.items()],
        "Table 1 — approximation ratios (measured against the LP lower bound)",
        {"suite": "table1"},
    )
    return ratios


# ----------------------------------------------------------- simulator suite

#: The pinned simulator benchmark instance: 8 coflows x 48 flows each on a
#: 32-host leaf-spine fabric (``--smoke`` shrinks it for CI).
_SIMULATOR_BENCH = {
    "topology": "leaf_spine(num_leaves=4, num_spines=4, hosts_per_leaf=8)",
    "num_coflows": 8,
    "coflow_width": 48,
    "mean_flow_size": 6.0,
    "release_rate": 1.0,
    "seed": 123,
}
_SIMULATOR_BENCH_SMOKE = {
    "topology": "leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=4)",
    "num_coflows": 2,
    "coflow_width": 8,
    "mean_flow_size": 6.0,
    "release_rate": 1.0,
    "seed": 123,
}

#: The compiled-tier gate instance is ``specs/simulator-100k.yaml``, the
#: scale the jit backend exists for; ``--smoke`` runs this one instead.
_SIMULATOR_BENCH_100K_SMOKE = {
    "topology": "leaf_spine(num_leaves=4, num_spines=4, hosts_per_leaf=8)",
    "num_coflows": 50,
    "coflow_width": 40,
    "mean_flow_size": 6.0,
    "release_rate": 1.0,
    "coflow_arrival_rate": 0.05,
    "seed": 123,
}

#: Reference-loop calibration slice: the dict loop is O(n) per event, so at
#: 100k flows it would run for hours; its events/sec is measured on this
#: same-family 2k-flow slice instead.  Conservative — the reference's
#: per-event cost *grows* with instance size, so the reported jit-vs-
#: reference ratio underestimates the true 100k-flow speedup.
_SIMULATOR_BENCH_REF_CAL = {
    "topology": "leaf_spine(num_leaves=8, num_spines=8, hosts_per_leaf=16)",
    "num_coflows": 20,
    "coflow_width": 100,
    "mean_flow_size": 6.0,
    "release_rate": 1.0,
    "coflow_arrival_rate": 0.02,
    "seed": 123,
}
_SIMULATOR_BENCH_REF_CAL_SMOKE = {
    "topology": "leaf_spine(num_leaves=4, num_spines=4, hosts_per_leaf=8)",
    "num_coflows": 5,
    "coflow_width": 40,
    "mean_flow_size": 6.0,
    "release_rate": 1.0,
    "coflow_arrival_rate": 0.05,
    "seed": 123,
}


def _bench_json_path() -> Path:
    """Where the accumulating ``BENCH_simulator.json`` lives.

    ``REPRO_BENCH_FILE`` overrides; otherwise the enclosing repository root
    (nearest ancestor with a ``.git``), falling back to the working
    directory.
    """
    import os

    override = os.environ.get("REPRO_BENCH_FILE", "").strip()
    if override:
        return Path(override)
    cwd = Path.cwd()
    for candidate in (cwd, *cwd.parents):
        if (candidate / ".git").exists():
            return candidate / "BENCH_simulator.json"
    return cwd / "BENCH_simulator.json"


@contextmanager
def _bench_file_lock(path: Path):
    """Exclusive advisory lock serializing bench-file read-modify-write.

    Concurrent recorders (parallel bench jobs, shard workers benchmarking
    on one host) would otherwise interleave the load/append/rewrite cycle
    and drop each other's runs.  Locks a ``.lock`` sibling rather than the
    data file, so the atomic-rename rewrite never swaps the inode being
    locked.  On platforms without ``fcntl`` (Windows) it degrades to the
    historical unlocked behaviour.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX fallback
        yield
        return
    lock_path = path.with_suffix(path.suffix + ".lock")
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    with lock_path.open("w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def _persist_bench_run(record: Dict[str, Any]) -> Path:
    """Append one bench run's metrics to ``BENCH_simulator.json``.

    The file holds ``{"runs": [...]}`` — every recorded run, oldest first —
    so the perf trajectory accumulates across commits.  A corrupt or
    foreign file is renamed aside rather than overwritten.  The whole
    read-modify-write runs under an exclusive file lock and the rewrite is
    a temp-file + atomic rename, so concurrent recorders append instead of
    clobbering each other and a crash mid-write never corrupts the file.
    """
    import os
    import time

    path = _bench_json_path()
    with _bench_file_lock(path):
        document: Dict[str, Any] = {"runs": []}
        if path.exists():
            try:
                loaded = json.loads(path.read_text())
                if isinstance(loaded, dict) and isinstance(
                    loaded.get("runs"), list
                ):
                    document = loaded
                else:
                    path.rename(path.with_suffix(".json.bak"))
            except (OSError, json.JSONDecodeError):
                path.rename(path.with_suffix(".json.bak"))
        # The harness (CI, a sweep driver) may pass the run's timestamp in
        # so recorded trajectories line up with its own logs.
        stamp = os.environ.get("REPRO_BENCH_TIMESTAMP", "").strip()
        if not stamp:
            stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        document["runs"].append({"timestamp": stamp, **record})
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        tmp.replace(path)
    return path


def _best_of(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` (noise-resistant)."""
    import time

    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run_simulator(
    out_dir: Path, smoke: bool = False, min_speedup: Optional[float] = None
) -> Dict[str, float]:
    """Benchmark the kernel tiers against the reference event loop.

    Two sections:

    * the classic pinned leaf-spine instance (8 coflows x 48 flows), two
      regimes (backlogged / arrivals), timing the reference loop, the array
      kernel, the jit (compiled) kernel when available, and the online
      re-planning engine — with a bit-identity assert across all of them;
    * the 100k-flow gate instance (``specs/simulator-100k.yaml``): array vs
      jit wall time of a one-epoch session's ``kernel.run()`` plus its
      segment drain, with loading the plan untimed and the collector
      paused (as in ``FlowLevelSimulator.run``), asserting identical
      completions.  The reference loop is O(n) per event —
      infeasible at this scale — so its events/sec comes from the 2k-flow
      calibration slice (``_SIMULATOR_BENCH_REF_CAL``), which
      *underestimates* the true jit-vs-reference ratio.

    Hard gates (full scale only): the array kernel beats the reference by
    ``min_speedup`` on both classic regimes; the jit kernel runs (a C
    toolchain is part of the bench contract), beats the array kernel >= 3x
    and the calibrated reference >= 20x on the 100k instance.  Every run —
    smoke included — appends its per-backend events/sec to
    ``BENCH_simulator.json`` at the repo root so the perf trajectory
    accumulates across commits.

    Returns ``{regime: speedup}`` plus online and 100k-tier accounting.
    """
    from ..analysis.artifacts import strict_config_from_dict
    from ..baselines import scheme_from_spec
    from ..sim import (
        FlowLevelSimulator,
        kernel_jit,
        kernel_tier,
        make_kernel,
        paused_gc,
    )
    from ..sim.simulator import load_plan
    from ..workloads import CoflowGenerator

    jit_available = kernel_jit.available()
    base = dict(_SIMULATOR_BENCH_SMOKE if smoke else _SIMULATOR_BENCH)
    gate_cfg = (
        dict(_SIMULATOR_BENCH_100K_SMOKE) if smoke
        else read_spec(SPECS_DIR / "simulator-100k.yaml", load_document)
    )
    repeats = (3, 1) if smoke else (7, 3)  # (kernel, reference) timing runs
    regimes = [
        ("backlogged", base),
        ("arrivals", {**base, "coflow_arrival_rate": 0.1}),
    ]
    headers = [
        "regime",
        "event loop",
        "events",
        "best ms",
        "events/sec",
        "speedup vs reference",
    ]
    rows: List[List[Any]] = []
    speedups: Dict[str, float] = {}
    for label, payload in regimes:
        config = strict_config_from_dict(payload, f"simulator bench {label!r}")
        network = config.build_network()
        instance = CoflowGenerator(network, config).instance()
        plan = scheme_from_spec("SEBF").plan(instance, network)
        simulator = FlowLevelSimulator(network)

        kernel_result = simulator.run(instance, plan, backend="array")
        reference_result = simulator.run_reference(instance, plan)
        results = {"array": kernel_result}
        if jit_available:
            results["jit"] = simulator.run(instance, plan, backend="jit")
        for backend, result in results.items():
            mismatched = [
                fid
                for fid, completion in reference_result.flow_completion.items()
                if result.flow_completion[fid] != completion
            ]
            assert not mismatched, (
                f"{backend} kernel diverged from run_reference() on "
                f"{label}: {mismatched[:5]}"
            )
            assert result.events == reference_result.events

        kernel_time = _best_of(
            lambda: simulator.run(instance, plan, backend="array"), repeats[0]
        )
        reference_time = _best_of(
            lambda: simulator.run_reference(instance, plan), repeats[1]
        )
        speedup = reference_time / kernel_time
        speedups[label] = speedup
        events = kernel_result.events
        rows.append(
            [label, "reference", events, reference_time * 1e3,
             events / reference_time, 1.0]
        )
        rows.append(
            [label, "kernel (array)", events, kernel_time * 1e3,
             events / kernel_time, speedup]
        )
        if jit_available:
            jit_time = _best_of(
                lambda: simulator.run(instance, plan, backend="jit"), repeats[0]
            )
            speedups[f"{label}_jit"] = reference_time / jit_time
            rows.append(
                [label, "kernel (jit)", events, jit_time * 1e3,
                 events / jit_time, reference_time / jit_time]
            )
        if label == "arrivals":
            online_scheme = scheme_from_spec("Online-SEBF")
            online_result = online_scheme.simulate(instance, network)
            online_time = _best_of(
                lambda: online_scheme.simulate(instance, network), repeats[0]
            )
            speedups["online_events_per_sec"] = online_result.events / online_time
            rows.append(
                [label, "online (kernel epochs)", online_result.events,
                 online_time * 1e3, online_result.events / online_time,
                 float("nan")]
            )

    # ------------------------------------------------- 100k-flow gate tier
    cal_cfg = dict(
        _SIMULATOR_BENCH_REF_CAL_SMOKE if smoke else _SIMULATOR_BENCH_REF_CAL
    )
    config = strict_config_from_dict(gate_cfg, "simulator bench '100k'")
    network = config.build_network()
    instance = CoflowGenerator(network, config).instance()
    plan = scheme_from_spec("SEBF").plan(instance, network).normalized(instance)
    plan.validate(instance, network)
    gate_label = "100k" if not smoke else "100k (smoke-scaled)"

    def time_kernel(backend: str, reps: int):
        """Best-of wall time of the event loop plus the segment drain; the
        plan loading stays untimed (the jit tier accelerates the event
        loop, and at this scale result assembly would otherwise dominate
        the comparison)."""
        import time as _time

        best = float("inf")
        kernel = None
        for _ in range(reps):
            kernel = make_kernel(network, plan.allocator, backend=backend)
            load_plan(kernel, instance, plan)
            with paused_gc():
                started = _time.perf_counter()
                kernel.run()
                for _sid, _segments in kernel.drain_all_segments():
                    pass
                best = min(best, _time.perf_counter() - started)
        return best, kernel

    gate_reps = 1 if smoke else 3
    array_time, array_kernel = time_kernel("array", gate_reps)
    gate_events = array_kernel.events
    array_evps = gate_events / array_time
    events_per_sec: Dict[str, float] = {"array": array_evps}
    rows.append(
        [gate_label, "kernel (array)", gate_events, array_time * 1e3,
         array_evps, float("nan")]
    )
    if jit_available:
        jit_time, jit_kernel = time_kernel("jit", gate_reps)
        assert jit_kernel.events == gate_events
        assert dict(jit_kernel.harvest_epoch()[0]) == dict(
            array_kernel.harvest_epoch()[0]
        ), "jit kernel diverged from the array kernel on the 100k instance"
        jit_evps = gate_events / jit_time
        events_per_sec["jit"] = jit_evps
        speedups["100k_jit_vs_array"] = array_time / jit_time
        rows.append(
            [gate_label, "kernel (jit)", gate_events, jit_time * 1e3,
             jit_evps, float("nan")]
        )

    cal_config = strict_config_from_dict(cal_cfg, "simulator bench 'ref-cal'")
    cal_network = cal_config.build_network()
    cal_instance = CoflowGenerator(cal_network, cal_config).instance()
    cal_plan = scheme_from_spec("SEBF").plan(cal_instance, cal_network)
    cal_sim = FlowLevelSimulator(cal_network)
    cal_result = cal_sim.run_reference(cal_instance, cal_plan)
    cal_time = _best_of(
        lambda: cal_sim.run_reference(cal_instance, cal_plan), repeats[1]
    )
    ref_cal_evps = cal_result.events / cal_time
    events_per_sec["reference (2k-flow calibration)"] = ref_cal_evps
    rows.append(
        ["ref-calibration", "reference", cal_result.events, cal_time * 1e3,
         ref_cal_evps, 1.0]
    )
    if jit_available:
        speedups["100k_jit_vs_reference"] = events_per_sec["jit"] / ref_cal_evps

    name = "simulator-smoke" if smoke else "simulator"
    title = (
        "Simulator event-loop benchmark — kernel tiers vs reference "
        f"({'smoke' if smoke else 'pinned'} instances: classic "
        f"{base['num_coflows']}x{base['coflow_width']} flows + gate "
        f"{gate_cfg['num_coflows']}x{gate_cfg['coflow_width']} flows, leaf-spine)"
    )
    _write_static_report(
        Path(out_dir) / name,
        headers,
        rows,
        title,
        {
            "suite": name,
            "instance": base,
            "gate_instance": gate_cfg,
            "speedups": speedups,
            "jit_available": jit_available,
            "events_per_sec_100k": events_per_sec,
        },
    )
    bench_path = _persist_bench_run(
        {
            "suite": name,
            "smoke": smoke,
            "instance_shape": {
                "topology": gate_cfg["topology"],
                "num_coflows": gate_cfg["num_coflows"],
                "coflow_width": gate_cfg["coflow_width"],
                "flows": gate_cfg["num_coflows"] * gate_cfg["coflow_width"],
                "events": gate_events,
            },
            "jit_available": jit_available,
            # The tier unpinned rows (the online row) ran on.
            "default_backend": kernel_tier(),
            "events_per_sec": events_per_sec,
            "speedups": speedups,
        }
    )
    print(f"perf trajectory appended -> {bench_path}")

    if min_speedup is not None:
        for label in ("backlogged", "arrivals"):
            assert speedups[label] >= min_speedup, (
                f"kernel speedup {speedups[label]:.2f}x on the {label} regime "
                f"is below the required {min_speedup:.2f}x"
            )
    if not smoke:
        # The compiled tier is the point of the 100k gate: at full scale a
        # missing C toolchain fails the bench instead of silently skipping.
        assert jit_available, (
            "the jit backend is unavailable at full bench scale: "
            f"{kernel_jit.unavailable_reason()}"
        )
        assert speedups["100k_jit_vs_array"] >= 3.0, (
            f"jit kernel is only {speedups['100k_jit_vs_array']:.2f}x over "
            "the array kernel on the 100k instance (gate: 3x)"
        )
        assert speedups["100k_jit_vs_reference"] >= 20.0, (
            f"jit kernel is only {speedups['100k_jit_vs_reference']:.2f}x "
            "over the calibrated reference loop (gate: 20x)"
        )
    return speedups


# ---------------------------------------------------------- streaming suite

#: The pinned streaming-service gate instance is ``specs/streaming.yaml``;
#: ``--smoke`` runs this one instead.
_STREAMING_BENCH_SMOKE = {
    "topology": "leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=4)",
    "num_coflows": 5,
    "coflow_width": 4,
    "mean_flow_size": 6.0,
    "release_rate": 1.0,
    "coflow_arrival_rate": 1.0,
    "seed": 777,
}

#: The batching policy the suite benchmarks (vs batch-size-1): close a batch
#: at its 6th pending arrival or 6 time units after it opened.
_STREAMING_POLICY = {"max_batch": 6, "max_delay": 6.0}

#: The 100k session stream is ``specs/streaming-100k.yaml``, the regime the
#: resident kernel session exists for; ``--smoke`` runs this one instead.
_STREAMING_BENCH_100K_SMOKE = {
    "topology": "leaf_spine(num_leaves=4, num_spines=4, hosts_per_leaf=8)",
    "num_coflows": 40,
    "coflow_width": 10,
    "mean_flow_size": 6.0,
    "release_rate": 1.0,
    "coflow_arrival_rate": 0.5,
    "seed": 123,
}


def _timed_streaming(session, instance, label: str):
    """Submit + drain (the streamed online phase) timed; splice untimed.

    Timing :meth:`StreamingScheduler.drain` instead of :meth:`finish`
    keeps the final result materialisation out of the engine's online
    rate, per the docstring contract of ``drain``.
    """
    import time as _time

    session.name = label
    started = _time.perf_counter()
    for coflow in instance.coflows:
        session.submit(coflow)
    session.drain()
    wall = _time.perf_counter() - started
    return session.finish(), wall


def run_streaming(
    out_dir: Path,
    smoke: bool = False,
    min_throughput_ratio: Optional[float] = None,
) -> Dict[str, Dict[str, float]]:
    """Benchmark the streaming scheduler service on the pinned streams.

    Two sections:

    * the classic pinned stream (``specs/streaming.yaml``) through the LP
      replanner in two configurations — re-plan per arrival, and batched
      per :data:`_STREAMING_POLICY` — reporting each session's replans/sec,
      arrivals per planning second, p99 decision latency, observed
      staleness, mean epoch-setup cost and online events/sec (events over
      the streamed phase's wall time minus planning time);
    * the 100k-flow session stream (``specs/streaming-100k.yaml``): one
      resident kernel session re-planning at every arrival on the jit
      backend, reporting its online events/sec.

    Invariants asserted on every run, smoke included:

    * every flow of every session completes;
    * every session's observed staleness respects its policy's declared
      bound (``staleness_report()["within_bound"]``);
    * the batch-size-1 re-plan count equals the number of distinct coflow
      release times (the online-engine semantics).

    Hard gate (full scale only): the batched session processes arrivals
    per planning second at least ``min_throughput_ratio`` times the
    per-arrival session.  Every run — smoke included — appends its metrics
    (the 100k session's online events/sec among them) to
    ``BENCH_simulator.json``.

    Returns ``{configuration: streaming_metrics()}`` plus the ratios under
    the ``"_gate"`` key.
    """
    from ..analysis.artifacts import strict_config_from_dict
    from ..baselines import scheme_from_spec
    from ..circuit.given_paths import _default_horizon
    from ..sim import (
        BatchPolicy,
        LPReplanner,
        StaticPlanReplanner,
        StreamingScheduler,
        kernel_jit,
        kernel_tier,
    )
    from ..workloads import CoflowGenerator

    if smoke:
        base = dict(_STREAMING_BENCH_SMOKE)
        gate_cfg = dict(_STREAMING_BENCH_100K_SMOKE)
    else:
        base = read_spec(SPECS_DIR / "streaming.yaml", load_document)
        gate_cfg = read_spec(SPECS_DIR / "streaming-100k.yaml", load_document)
    config = strict_config_from_dict(base, "streaming bench")
    network = config.build_network()
    instance = CoflowGenerator(network, config).instance()
    # Both sessions share one pinned interval grid: the full instance's
    # default horizon (sub-instance volumes only shrink, so it stays safe).
    routed = instance.with_paths(
        {
            fid: network.shortest_path(
                instance.flow(fid).source, instance.flow(fid).destination
            )
            for fid in instance.flow_ids()
        }
    )
    horizon = _default_horizon(routed, network)
    configurations = [
        ("per-arrival", BatchPolicy(max_batch=1)),
        ("batched", BatchPolicy(**_STREAMING_POLICY)),
    ]
    headers = [
        "configuration",
        "replans",
        "arrivals",
        "plan s",
        "replans/sec",
        "arrivals/plan-sec",
        "p99 decision ms",
        "max staleness",
        "setup ms/replan",
        "online events/sec",
    ]
    rows: List[List[Any]] = []
    metrics: Dict[str, Dict[str, float]] = {}

    def record(label: str, session, stream, result, wall: float) -> Dict[str, float]:
        """One session's report row + metrics entry (shared by both
        streams), after asserting that every flow of ``stream`` completed."""
        unfinished = [
            fid for fid in stream.flow_ids() if fid not in result.flow_completion
        ]
        assert not unfinished, (
            f"{label}: {len(unfinished)} flow(s) never completed: "
            f"{unfinished[:5]}"
        )
        staleness = session.staleness_report()
        assert staleness["within_bound"] == 1.0, (
            f"{label}: observed staleness {staleness['max_staleness']:.3f} "
            f"exceeds the declared bound {staleness['bound']:.3f}"
        )
        report = session.streaming_metrics()
        # Online events/sec over the streamed phase: everything the wall
        # clock saw except the planner itself — the engine-side rate.
        engine_seconds = max(wall - report["plan_seconds"], 1e-12)
        report = {
            **report,
            "online_wall_seconds": wall,
            "online_events_per_sec": report["events"] / engine_seconds,
        }
        metrics[label] = report
        rows.append(
            [
                label,
                int(report["replans"]),
                int(report["arrivals"]),
                report["plan_seconds"],
                report["replans_per_sec"],
                report["arrivals_per_plan_sec"],
                report["p99_decision_latency"] * 1e3,
                report["max_staleness"],
                report["epoch_setup_seconds"] * 1e3,
                report["online_events_per_sec"],
            ]
        )
        return report

    for label, policy in configurations:
        session = StreamingScheduler(
            network, LPReplanner(network, horizon), policy=policy
        )
        result, wall = _timed_streaming(session, instance, label)
        record(label, session, instance, result, wall)

    releases = sorted({c.release_time for c in instance.coflows})
    assert metrics["per-arrival"]["replans"] == float(len(releases)), (
        "batch-size-1 must re-plan exactly once per distinct release time"
    )

    # ------------------------------------------------- 100k session stream
    gate_config = strict_config_from_dict(gate_cfg, "streaming bench '100k'")
    gate_network = gate_config.build_network()
    gate_instance = CoflowGenerator(gate_network, gate_config).instance()
    static_plan = scheme_from_spec("SEBF").plan(gate_instance, gate_network)
    jit_available = kernel_jit.available()
    if not smoke:
        # The 100k rate is a compiled-tier number: at full scale a missing
        # C toolchain fails the bench instead of silently skipping.
        assert jit_available, (
            "the jit backend is unavailable at full bench scale: "
            f"{kernel_jit.unavailable_reason()}"
        )
    gate_suffix = "100k" if not smoke else "100k (smoke-scaled)"
    session = StreamingScheduler(
        gate_network,
        StaticPlanReplanner(static_plan),
        policy=BatchPolicy(max_batch=1),
    )
    result, wall = _timed_streaming(
        session, gate_instance, f"resident / {gate_suffix}"
    )
    res_report = record("resident / 100k", session, gate_instance, result, wall)

    ratio = (
        metrics["batched"]["arrivals_per_plan_sec"]
        / metrics["per-arrival"]["arrivals_per_plan_sec"]
    )
    metrics["_gate"] = {"throughput_ratio": ratio}

    name = "streaming-smoke" if smoke else "streaming"
    title = (
        "Streaming scheduler benchmark — batched vs per-arrival LP "
        f"re-planning, plus the 100k session stream "
        f"({'smoke' if smoke else 'pinned'} streams: "
        f"{base['num_coflows']} coflows x {base['coflow_width']} flows, "
        f"batch policy {_STREAMING_POLICY['max_batch']} / "
        f"{_STREAMING_POLICY['max_delay']:g}; session stream "
        f"{gate_cfg['num_coflows']} x {gate_cfg['coflow_width']} flows, "
        "re-plan per arrival)"
    )
    _write_static_report(
        Path(out_dir) / name,
        headers,
        rows,
        title,
        {
            "suite": name,
            "instance": base,
            "gate_instance": gate_cfg,
            "policy": dict(_STREAMING_POLICY),
            "metrics": metrics,
        },
    )
    bench_path = _persist_bench_run(
        {
            "suite": name,
            "smoke": smoke,
            "instance_shape": {
                "topology": base["topology"],
                "num_coflows": base["num_coflows"],
                "coflow_width": base["coflow_width"],
                "flows": base["num_coflows"] * base["coflow_width"],
            },
            "gate_instance_shape": {
                "topology": gate_cfg["topology"],
                "num_coflows": gate_cfg["num_coflows"],
                "coflow_width": gate_cfg["coflow_width"],
                "flows": gate_cfg["num_coflows"] * gate_cfg["coflow_width"],
                "events": res_report["events"],
            },
            "gate_backend": kernel_tier(static_plan.allocator),
            # The tier the unpinned per-arrival and batched sessions ran on.
            "default_backend": kernel_tier(),
            "policy": dict(_STREAMING_POLICY),
            "streaming": {
                label: report
                for label, report in metrics.items()
                if label != "_gate"
            },
            "throughput_ratio": ratio,
        }
    )
    print(f"perf trajectory appended -> {bench_path}")

    if min_throughput_ratio is not None:
        assert ratio >= min_throughput_ratio, (
            f"batched throughput is only {ratio:.2f}x the per-arrival "
            f"baseline (gate: {min_throughput_ratio:.1f}x)"
        )
    return metrics


# ----------------------------------------------------------- pipeline suite

#: The pinned pipeline-stage benchmark instance: 6 coflows x 8 flows each on
#: a 24-host leaf-spine fabric (``--smoke`` shrinks it for CI).
_PIPELINE_BENCH = {
    "topology": "leaf_spine(num_leaves=4, num_spines=2, hosts_per_leaf=4)",
    "num_coflows": 6,
    "coflow_width": 8,
    "mean_flow_size": 6.0,
    "release_rate": 1.0,
    "seed": 321,
}
_PIPELINE_BENCH_SMOKE = {
    "topology": "leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=4)",
    "num_coflows": 2,
    "coflow_width": 4,
    "mean_flow_size": 6.0,
    "release_rate": 1.0,
    "seed": 321,
}

#: Compositions timed by the pipeline suite, chosen so the table separates
#: the cost centres: pure-heuristic stages, the LP solve inside the order
#: stage, the LP solve inside the route stage, and the hinted lp+lp case
#: where one solve serves both stages.
_PIPELINE_BENCH_SPECS = (
    "pipeline(router=random, order=mct)",
    "pipeline(router=balanced, order=sebf)",
    "pipeline(router=balanced, order=lp)",
    "pipeline(router=lp, order=lp)",
)


def run_pipeline_bench(out_dir: Path, smoke: bool = False) -> Dict[str, Dict[str, float]]:
    """Benchmark per-stage plan time (route vs order vs LP solve).

    For each composition of :data:`_PIPELINE_BENCH_SPECS`, times the router
    and orderer stages separately on the pinned leaf-spine instance
    (best-of-``repeats`` wall time), plus the end-to-end
    :meth:`~repro.baselines.pipeline.PipelineScheme.plan` call.  The ``lp``
    stages' time *is* the LP solve time, so the rows read as a breakdown:
    ``router=balanced, order=lp`` isolates the ordering LP, ``router=lp,
    order=lp`` shows one solve serving both stages (the order stage
    consumes the router's completion-time hint — asserted, not just
    timed).

    Candidate paths are memoized on the network, so the best-of times are
    *warm*: one topology serves every repeat.  ``route_cold_ms`` is the
    first route call on a freshly built network (the build untimed), which
    includes the candidate-path enumeration a new topology pays once.

    Returns ``{composition: {"route_cold_ms", "route_ms", "order_ms",
    "plan_ms"}}`` and writes the usual report artifacts under
    ``out_dir/pipeline[-smoke]/``.
    """
    from ..analysis.artifacts import scheme_from_spec, strict_config_from_dict
    from ..baselines.stages import PlanContext
    from ..workloads import CoflowGenerator

    base = dict(_PIPELINE_BENCH_SMOKE if smoke else _PIPELINE_BENCH)
    repeats = 2 if smoke else 5
    config = strict_config_from_dict(base, "pipeline bench")
    network = config.build_network()
    instance = CoflowGenerator(network, config).instance()

    headers = [
        "composition", "route cold ms", "route ms", "order ms", "plan ms", "lp solve in",
    ]
    rows: List[List[Any]] = []
    timings: Dict[str, Dict[str, float]] = {}
    for spec_text in _PIPELINE_BENCH_SPECS:
        scheme = scheme_from_spec(spec_text)

        # Only the first route call on a network is cold, hence one call.
        fresh = config.build_network()
        route_cold_time = _best_of(
            lambda: scheme.router.route(PlanContext(instance, fresh)), 1
        )
        route_time = _best_of(
            lambda: scheme.router.route(PlanContext(instance, network)), repeats
        )
        # One routed context is prepared outside the timer so the order
        # stage is measured alone (LPOrderer re-solves on every call when
        # it has no hint, which is exactly the cost being isolated).
        context = PlanContext(instance, network)
        context.paths = scheme.router.route(context)
        order_time = _best_of(lambda: scheme.orderer.order(context), repeats)
        plan_time = _best_of(lambda: scheme.plan(instance, network), repeats)

        hinted = context.order_hint is not None
        if scheme.router.key == "lp":
            assert hinted, "lp router must publish its order hint"
            lp_in = "route (hinted order)"
        elif scheme.orderer.key == "lp":
            lp_in = "order"
        else:
            lp_in = "-"
        timings[spec_text] = {
            "route_cold_ms": route_cold_time * 1e3,
            "route_ms": route_time * 1e3,
            "order_ms": order_time * 1e3,
            "plan_ms": plan_time * 1e3,
        }
        rows.append([scheme.name, *timings[spec_text].values(), lp_in])

    name = "pipeline-smoke" if smoke else "pipeline"
    title = (
        f"Pipeline stage benchmark — per-stage plan time, warm best of {repeats} "
        "on one network; route cold = first call on a fresh network "
        f"({'smoke' if smoke else 'pinned'} instance: {base['num_coflows']} "
        f"coflows x {base['coflow_width']} flows, leaf-spine)"
    )
    _write_static_report(
        Path(out_dir) / name,
        headers,
        rows,
        title,
        {"suite": name, "instance": base, "timings": timings},
    )
    return timings


# ------------------------------------------------------------- smoke passes

def smoke_scenario_matrix(spec: SweepSpec, workers: int = 2) -> None:
    """Tiny end-to-end pass: build -> solve -> simulate -> store -> resume.

    Runs ``spec`` (the smoke-sized scenario matrix) twice against one
    temporary store with a worker pool and asserts the second pass
    re-simulates nothing and reproduces identical values — the CI guarantee
    for the engine's parallel + resume path.
    """
    with tempfile.TemporaryDirectory() as tmp:
        store = RunStore(Path(tmp) / "runstore.jsonl")
        print(f"scenario smoke: cold pass ({workers} workers)")
        cold = run_spec(spec, store, workers=workers)
        print(f"  {stats_summary(cold.stats)}")
        print("scenario smoke: warm pass (resume from store)")
        warm = run_spec(spec, store, workers=workers)
        print(f"  {stats_summary(warm.stats)}")
        assert cold.stats.executed > 0, "cold pass executed nothing"
        assert warm.stats.executed == 0, "warm run re-simulated tasks"
        for a, b in zip(cold.result.points, warm.result.points):
            assert a.values == b.values, a.label
    print("scenario smoke: OK (parallel sweep + resume verified)")


# ---------------------------------------------------------------- dispatch

def _warn_ignored(suite: str, flags: Dict[str, bool]) -> None:
    """Tell the operator which flags the chosen suite does not use —
    silently dropping them would misrepresent what actually ran."""
    ignored = [name for name, is_set in flags.items() if is_set]
    if ignored:
        print(
            f"repro bench: suite {suite!r} does not use {', '.join(ignored)} "
            "(ignored)",
            file=sys.stderr,
        )


def run_suite(
    suite: str,
    out_dir: Path,
    workers: int = 0,
    tries: Optional[int] = None,
    paper_scale: bool = False,
    smoke: bool = False,
) -> int:
    """Run one named suite and print its report; returns an exit code.

    ``tries=None`` keeps each spec's own tries-per-point.  An explicit
    ``tries`` is named among the ignored flags wherever no sweep uses it:
    the single-instance suites, and every ``smoke`` pass (1 try).
    """
    out_dir = Path(out_dir)
    tries_ignored = tries is not None and (smoke or suite not in _SUITE_SPECS)
    # The flags a suite that runs no engine sweep leaves unused.
    unswept = {
        "--workers": workers != 0,
        "--tries": tries_ignored,
        "--paper-scale": paper_scale,
    }
    if suite == "table1":
        # Table 1 measures four fixed single instances: no engine, no sweep.
        _warn_ignored(suite, {**unswept, "--smoke": smoke})
        run_table1(out_dir)
        print((out_dir / "table1" / "report.txt").read_text())
        return 0
    if suite == "simulator":
        # A wall-clock microbenchmark: no engine, no sweep.  The hard >= 5x
        # gate only applies to the full pinned instance — CI smoke runs are
        # on shared, noisy machines and only require the kernel to win.
        _warn_ignored(suite, unswept)
        speedups = run_simulator(
            out_dir, smoke=smoke, min_speedup=1.0 if smoke else 5.0
        )
        name = "simulator-smoke" if smoke else "simulator"
        print((Path(out_dir) / name / "report.txt").read_text())
        print(
            f"array kernel speedup: {speedups['backlogged']:.2f}x backlogged, "
            f"{speedups['arrivals']:.2f}x with arrivals"
        )
        if "100k_jit_vs_array" in speedups:
            print(
                f"jit kernel, 100k-flow gate: "
                f"{speedups['100k_jit_vs_array']:.2f}x over array, "
                f"{speedups['100k_jit_vs_reference']:.2f}x over the "
                "calibrated reference"
            )
        return 0
    if suite == "streaming":
        # A wall-clock service benchmark: no engine, no sweep.  The hard
        # >= 3x throughput gate only applies at full scale — CI smoke runs
        # are on shared, noisy machines and only require batching to win.
        _warn_ignored(suite, unswept)
        metrics = run_streaming(
            out_dir,
            smoke=smoke,
            min_throughput_ratio=1.0 if smoke else 3.0,
        )
        name = "streaming-smoke" if smoke else "streaming"
        print((Path(out_dir) / name / "report.txt").read_text())
        print(
            "batched vs per-arrival throughput: "
            f"{metrics['_gate']['throughput_ratio']:.2f}x "
            f"(p99 decision latency "
            f"{metrics['batched']['p99_decision_latency'] * 1e3:.1f} ms)"
        )
        session = metrics["resident / 100k"]
        print(
            "resident session, 100k-flow stream: "
            f"{session['online_events_per_sec']:.0f} online events/sec "
            f"(setup {session['epoch_setup_seconds'] * 1e3:.2f} ms/replan)"
        )
        return 0
    if suite == "pipeline":
        # A wall-clock stage microbenchmark: no engine, no sweep.
        _warn_ignored(suite, unswept)
        run_pipeline_bench(out_dir, smoke=smoke)
        name = "pipeline-smoke" if smoke else "pipeline"
        print((out_dir / name / "report.txt").read_text())
        return 0

    # The sweep suites; --paper-scale needs their files under specs/paper/.
    paper = [SPECS_DIR / "paper" / f"{name}.yaml" for name in _SUITE_SPECS[suite]]
    paper_scale_ignored = paper_scale and not all(path.exists() for path in paper)
    _warn_ignored(
        suite, {"--tries": tries_ignored, "--paper-scale": paper_scale_ignored}
    )
    paper_scale = paper_scale and not paper_scale_ignored
    if suite == "headline":
        _, width_run, count_run = run_headline(
            out_dir, workers, paper_scale, tries, smoke=smoke
        )
        name = "headline-smoke" if smoke else "headline"
        print((out_dir / name / "report.txt").read_text())
        print(stats_summary(width_run.stats), " [width pool]")
        print(stats_summary(count_run.stats), " [count pool]")
        return 0
    if suite == "scenario-matrix" and smoke:
        (spec,) = suite_specs(suite, smoke=True)
        smoke_scenario_matrix(spec, workers=max(workers, 2))
        return 0
    (spec,) = suite_specs(suite, paper_scale, tries, smoke)
    run, paths = run_sweep_suite(spec, out_dir, workers)
    print(
        render_report(
            run.result,
            spec.display_title(),
            spec.reference,
            fmt="text",
            extras=run.extras,
        )
    )
    if "LP-Based" in spec.schemes:
        references = [s for s in spec.schemes if s != "LP-Based"]
        print()
        print(improvement_summary(run.result, "LP-Based", references))
    print()
    print(stats_summary(run.stats))
    for kind in ("run", "text", "markdown", "csv"):
        print(f"  {kind:<8} -> {paths[kind]}")
    return 0


def configure(subparsers: argparse._SubParsersAction) -> None:
    """Register the ``bench`` subparser."""
    parser = subparsers.add_parser(
        "bench",
        help=f"run a benchmark suite ({', '.join(SUITES)})",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("suite", choices=SUITES, help="which suite to run")
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("artifacts"),
        help="artifact directory (default: ./artifacts)",
    )
    parser.add_argument(
        "--workers", type=bounded(int, 0), default=0, help="engine worker processes"
    )
    parser.add_argument(
        "--tries",
        type=bounded(int, 1),
        help="random tries per sweep point (default: 2)",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="read specs/paper/: the paper's parameters (k=8 fat-tree; slow)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized pass (for scenario-matrix: includes the resume check)",
    )
    parser.set_defaults(func=execute)


def execute(args: argparse.Namespace) -> int:
    """Dispatch ``repro bench`` to the named suite."""
    return run_suite(
        args.suite,
        out_dir=args.out,
        workers=args.workers,
        tries=args.tries,
        paper_scale=args.paper_scale,
        smoke=args.smoke,
    )
