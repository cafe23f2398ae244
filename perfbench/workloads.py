"""One benchmark pass: set up a workload's inputs, run it timed, check it.

``run.py`` starts this file in a fresh interpreter for every pass, so each
pass pays its own imports and reports its own set-up time and peak memory::

    python3 perfbench/workloads.py --workload lp-sweep --seed 1 --pass-index 0 \
        --trace 0 --out .perfbench_out

The pass prints one JSON object on its last stdout line.  Everything it
writes (run store, report files, trace) stays under ``--out``.

Workloads (inputs derive from ``--seed`` and ``--pass-index`` only):

* ``lp-sweep`` — a Figure-3-style width sweep of LP-Based, Route-only,
  Schedule-only and Baseline on ``fat_tree(k=4)``, spec to written report
  through ``run_spec`` + ``export_artifacts``;
* ``heuristic-sweep`` — the same sweep path with SEBF and Baseline on a
  128-host leaf-spine, thousands of flows per instance, no LP at all;
* ``online-stream`` — one ``StreamingScheduler`` session re-planning
  ``pipeline(router=balanced, order=lp)`` at every arrival, driven by one
  closed-loop client (``submit`` then ``advance``; next arrival only after
  the call returns).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

#: Layer spans every sweep pass enters (see ``tracer.LAYER_METRICS``).
_SWEEP_LAYERS = [
    "analysis.engine", "analysis.report", "analysis.store_put", "baselines.order",
    "baselines.plan", "baselines.route", "sim.run", "workloads.generate",
]

#: Workload parameters.  ``layers`` are the spans a traced pass must enter:
#: if one stays empty its work has moved out of the traced boundaries and
#: the pass fails its ``traced_layers_visited`` check.  ``smoke`` entries
#: override the full ones for the seconds-long copies the self-tests run.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "lp-sweep": {
        "kind": "sweep",
        "topology": "fat_tree(k=4)",
        "schemes": ["LP-Based", "Route-only", "Schedule-only", "Baseline"],
        "headline": "LP-Based",
        "base": {"num_coflows": 10},
        "widths": [16, 24],
        "tries": 3,
        "layers": _SWEEP_LAYERS + ["circuit.round", "lp.build", "lp.solve"],
        "smoke": {"base": {"num_coflows": 3}, "widths": [4], "tries": 1},
    },
    "heuristic-sweep": {
        "kind": "sweep",
        "topology": "leaf_spine(num_leaves=8, num_spines=8, hosts_per_leaf=16)",
        "schemes": ["SEBF", "Baseline"],
        "headline": "SEBF",
        "base": {"num_coflows": 120},
        "widths": [25],
        "tries": 1,
        "layers": _SWEEP_LAYERS,
        "smoke": {"base": {"num_coflows": 10}, "widths": [5], "tries": 1},
    },
    "online-stream": {
        "kind": "stream",
        "topology": "leaf_spine(num_leaves=4, num_spines=2, hosts_per_leaf=2)",
        "scheme": "pipeline(router=balanced, order=lp)",
        "config": {"num_coflows": 200, "coflow_width": 8},
        "arrival_rate": 0.18,
        "layers": [
            "baselines.order", "baselines.plan", "baselines.route", "lp.build",
            "lp.solve", "sim.stream", "workloads.generate",
        ],
        "smoke": {"config": {"num_coflows": 12}},
    },
}


def workload_params(name: str, smoke: bool = False) -> Dict[str, Any]:
    """The parameters of workload ``name`` (smoke-sized when ``smoke``)."""
    params = dict(WORKLOADS[name])
    overrides = params.pop("smoke")
    if smoke:
        for key, value in overrides.items():
            params[key] = {**params[key], **value} if isinstance(value, dict) else value
    return params


def pass_seed(seed: int, pass_index: int) -> int:
    """Base workload seed of one pass; tries add 0..9 on top of it."""
    return seed * 10_000 + pass_index * 10


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_seconds() -> float:
    """Time a fixed mix of interpreter, dict and NumPy work (no package code).

    A pass runs it right before and right after its timed work; ``run.py``
    scales a run's times by how fast the machine ran it, median over the
    run's readings.  On a shared machine the same code runs a third slower
    for minutes at a time, and this reading moves with it.
    """
    import numpy

    started = time.perf_counter()
    total = 0
    for i in range(1_800_000):
        total += i * i % 7
    table: Dict[int, int] = {}
    for i in range(450_000):
        table[i % 1000] = table.get(i % 1000, 0) + i
    values = numpy.arange(100_000, dtype=float)
    for _ in range(180):
        values = numpy.sqrt(values * 1.0001 + 1.0)
    return time.perf_counter() - started


# ------------------------------------------------------------------ sweeps

def _sweep_spec(params: Dict[str, Any], name: str, seed: int):
    from repro.analysis import spec_from_dict

    return spec_from_dict(
        {
            "name": name,
            "schemes": params["schemes"],
            "tries": params["tries"],
            "reference": "Baseline",
            "base": {"topology": params["topology"], **params["base"], "seed": seed},
            "sweep": {"parameter": "coflow_width", "values": params["widths"]},
        }
    )


def run_sweep(params: Dict[str, Any], name: str, seed: int, work: Path, tracer) -> Dict[str, Any]:
    """Spec to written report; per-task latency from the store's put times."""
    import repro.analysis as analysis
    from repro.analysis import RunStore, run_key
    from repro.circuit.lower_bounds import weighted_transfer_lower_bound
    from repro.core.topologies import from_spec
    from repro.workloads import CoflowGenerator

    class TimedRunStore(RunStore):
        """A run store noting when each task's record lands."""

        def __init__(self, path: Path) -> None:
            super().__init__(path)
            self.put_times: List[float] = []

        def put(self, key, record) -> None:
            super().put(key, record)
            self.put_times.append(time.perf_counter())

    if tracer is not None:
        tracer.install()
    spec = _sweep_spec(params, name, seed)
    network = from_spec(params["topology"])
    store = TimedRunStore(work / "store.jsonl")
    setup_done = time.perf_counter()
    calibration = [calibration_seconds()]

    trace_start = time.perf_counter_ns()
    started = time.perf_counter()
    ran = analysis.run_spec(spec, store=store)
    analysis.export_artifacts(
        work / "artifacts", spec, ran.result, stats=ran.stats,
        fingerprints=ran.fingerprints, store=store, extras=ran.extras,
    )
    ended = time.perf_counter()
    trace_end = time.perf_counter_ns()
    peak_rss = _peak_rss_mb()
    calibration.append(calibration_seconds())
    if tracer is not None:
        tracer.restore()

    # ---- untimed: read every task back and check it against the bound
    marks = [started] + store.put_times
    steps_ms = [(b - a) * 1000.0 for a, b in zip(marks, marks[1:])]
    fingerprint = ran.fingerprints[params["topology"]]
    schemes = analysis.build_schemes(spec.schemes)
    attempted = failed = events = 0
    ratios: List[float] = []
    gains: List[float] = []
    for _label, configs in spec.point_specs():
        for config in configs:
            lower = weighted_transfer_lower_bound(
                CoflowGenerator(network, config).instance(), network
            )
            wct: Dict[str, float] = {}
            for scheme in schemes:
                attempted += 1
                record = store.peek(run_key(fingerprint, config, scheme.signature()))
                if record is None or record.get("failed"):
                    failed += 1
                    continue
                wct[scheme.name] = record["metrics"]["weighted_completion_time"]
                events += int(record["events"])
                ratios.append(wct[scheme.name] / lower)
            if params["headline"] in wct and "Baseline" in wct:
                gains.append((wct["Baseline"] / wct[params["headline"]] - 1.0) * 100.0)
    return {
        "setup_done": setup_done,
        "wall_s": ended - started,
        "steps_ms": steps_ms,
        "ratios": ratios,
        "gains": gains,
        "attempted": attempted,
        "failed": failed,
        "events": events,
        "replans": 0,
        "checks": {},
        "peak_rss_mb": peak_rss,
        "calibration_s": calibration,
        "trace_window": (trace_start, trace_end),
        "sim_mode": _sim_mode(None),
    }


# ------------------------------------------------------------------ stream

def periodic_arrivals(instance, rate: float):
    """Coflow ``i`` arrives at ``i / rate``; its flows keep their offsets.

    A fixed arrival clock keeps the offered load the same from seed to
    seed, so arrival latency measures the scheduler, not Poisson bursts.
    """
    import dataclasses

    from repro.core.flows import Coflow, CoflowInstance

    coflows = []
    for index, coflow in enumerate(instance.coflows):
        shift = index / rate - coflow.release_time
        flows = tuple(
            dataclasses.replace(flow, release_time=flow.release_time + shift)
            for flow in coflow.flows
        )
        coflows.append(Coflow(flows=flows, weight=coflow.weight, name=coflow.name))
    return CoflowInstance(coflows=coflows, name=instance.name)


def run_stream(params: Dict[str, Any], name: str, seed: int, work: Path, tracer) -> Dict[str, Any]:
    """One closed-loop client feeding a re-plan-per-arrival session."""
    from repro.baselines import scheme_from_spec
    from repro.circuit.lower_bounds import weighted_transfer_lower_bound
    from repro.core.topologies import from_spec
    from repro.sim import StreamingScheduler
    from repro.workloads import CoflowGenerator, WorkloadConfig

    if tracer is not None:
        tracer.install()
    network = from_spec(params["topology"])
    config = WorkloadConfig(topology=params["topology"], seed=seed, **params["config"])
    instance = periodic_arrivals(CoflowGenerator(network, config).instance(), params["arrival_rate"])
    scheme = scheme_from_spec(params["scheme"])
    feed = sorted(instance.coflows, key=lambda c: c.release_time)
    session = StreamingScheduler(
        network, lambda context: scheme.plan(context.instance, context.network), name=name
    )
    setup_done = time.perf_counter()
    calibration = [calibration_seconds()]

    trace_start = time.perf_counter_ns()
    steps_ms: List[float] = []
    started = time.perf_counter()
    for coflow in feed:
        sent = time.perf_counter()
        session.submit(coflow)
        session.advance(until=coflow.release_time)
        steps_ms.append((time.perf_counter() - sent) * 1000.0)
    result = session.finish()
    ended = time.perf_counter()
    trace_end = time.perf_counter_ns()
    peak_rss = _peak_rss_mb()
    calibration.append(calibration_seconds())
    if tracer is not None:
        tracer.restore()

    # ---- untimed: every flow done, staleness bound held, objective vs bounds
    unfinished = [
        fid for fid in instance.flow_ids()
        if not math.isfinite(result.flow_completion.get(fid, math.inf))
    ]
    unfinished_coflows = {fid[0] for fid in unfinished}
    baseline = scheme_from_spec("Baseline").simulate(instance, network)
    wct = result.weighted_completion_time
    lower = weighted_transfer_lower_bound(instance, network)
    return {
        "setup_done": setup_done,
        "wall_s": ended - started,
        "steps_ms": steps_ms,
        "ratios": [wct / lower],
        "gains": [(baseline.weighted_completion_time / wct - 1.0) * 100.0],
        "attempted": len(feed),
        "failed": len(unfinished_coflows),
        "events": int(result.events),
        "replans": session.replan_count,
        "checks": {
            "every_flow_completes": not unfinished,
            "staleness_within_bound": session.staleness_report()["within_bound"] == 1.0,
        },
        "peak_rss_mb": peak_rss,
        "calibration_s": calibration,
        "trace_window": (trace_start, trace_end),
        "sim_mode": _sim_mode(session),
    }


def _sim_mode(session) -> Dict[str, Any]:
    """The sim tier and streaming residency the defaults resolved to.

    Recorded, not enforced: a change of default should show up in the
    numbers.  Looked up defensively because the knobs may be removed.
    """
    import repro.sim as sim

    resolve_resident = getattr(sim, "resolve_resident", None)
    resident = getattr(session, "resident", None)
    if resident is None and resolve_resident is not None:
        resident = resolve_resident(None)
    return {"sim_tier": sim.resolve_backend(None), "sim_resident": resident}


# -------------------------------------------------------------------- main

def run_pass(workload: str, seed: int, pass_index: int, trace: bool, out: Path, smoke: bool = False) -> Dict[str, Any]:
    """Run one pass in this process and return its measurements."""
    import numpy
    import scipy

    import repro

    params = workload_params(workload, smoke)
    tag = f"{workload}-seed{seed}-pass{pass_index}-trace{int(trace)}"
    work = out / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
    runner = run_sweep if params["kind"] == "sweep" else run_stream
    try:
        outcome = runner(params, workload, pass_seed(seed, pass_index), work, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
    trace_start, trace_end = outcome.pop("trace_window")
    if tracer is not None:
        outcome["layers"] = tracer.layer_seconds()
        outcome["counts"] = dict(tracer.counts)
        outcome["covered_s"] = tracer.covered_seconds(trace_start, trace_end)
        outcome["checks"]["traced_layers_visited"] = set(params["layers"]) <= set(tracer.visited())
        trace_path = out / "traces" / f"{tag}.json"
        tracer.write_chrome_trace(trace_path)
        outcome["trace_file"] = str(trace_path)
    outcome["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
        "repro_path": str(Path(repro.__file__).resolve().parent),
        **outcome.pop("sim_mode"),
    }
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    outcome = run_pass(
        args.workload, args.seed, args.pass_index, bool(args.trace), args.out, args.smoke
    )
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
