"""Self-tests of the benchmark itself, on smoke-sized workloads.

Run from the repository root (the file name keeps it out of the package's
own test collection)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
#: counts present with and without tracing
SHARED_EXACT = ("sim.events", "sim.replans", "gains", "ratios")


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    """Run the benchmark CLI on smoke inputs; return (process, result, summary)."""
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        return done, None, None
    result = json.loads(done.stdout.strip().splitlines()[-1])
    summary_path = cwd / ".perfbench_out" / f"run-{workload}-seed{seed}-trace{trace}.json"
    return done, result, json.loads(summary_path.read_text())


@pytest.fixture(scope="module")
def runs():
    """Per workload: one untraced and two traced smoke runs."""
    out = {}
    for workload in WORKLOADS:
        for key, trace in (("plain", 0), ("traced", 1), ("traced_again", 1)):
            done, result, summary = bench(workload, trace)
            assert done.returncode == 0, done.stderr
            out[workload, key] = (result, summary)
    return out


def test_declared_metric_names_are_valid():
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in names


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("mode,section", [("plain", "end_to_end"), ("traced", "per_layer")])
def test_result_line_carries_every_declared_metric(runs, workload, mode, section):
    result, _summary = runs[workload, mode]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(NAME.match(name) for name in result["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_runs_and_tracing(runs, workload):
    plain = runs[workload, "plain"][1]["exact"]
    traced = runs[workload, "traced"][1]["exact"]
    again = runs[workload, "traced_again"][1]["exact"]
    assert traced == again
    assert {k: plain[k] for k in SHARED_EXACT} == {k: traced[k] for k in SHARED_EXACT}
    assert {"lp.rows", "lp.cols", "lp.nnz", "lp.solve_calls"} <= set(traced)


def test_traces_separate_the_layers(runs):
    heuristic = runs["heuristic-sweep", "traced"][0]["metrics"]
    assert heuristic["lp.solve_calls"]["value"] == 0
    stream = runs["online-stream", "traced"][0]["metrics"]
    assert stream["lp.solve_calls"]["value"] == stream["sim.replans"]["value"] > 0
    for workload in WORKLOADS:
        summary = runs[workload, "traced"][1]
        assert summary["checks"]["traced_layers_visited"]
        # Smoke inputs leave relatively more time in run_spec's own
        # bookkeeping; the full-size bound is checked on recorded.json.
        assert summary["metrics"]["trace.coverage"] >= 0.9


def test_recorded_trace_separates_the_layers():
    recorded = json.loads((HERE / "recorded.json").read_text())["workloads"]
    traced = {w: recorded[w]["traced"]["metrics"] for w in WORKLOADS}
    for metrics in traced.values():
        assert metrics["trace.coverage"] >= 0.95
    layers = list(tracer_module.LAYER_METRICS.values())
    lp_sweep = traced["lp-sweep"]
    assert max(layers, key=lp_sweep.get) == "lp.solve_s"
    heuristic = traced["heuristic-sweep"]
    assert heuristic["lp.solve_calls"] == 0
    top_two = sorted(layers, key=heuristic.get, reverse=True)[:2]
    assert set(top_two) == {"sim.run_s", "baselines.route_s"}
    assert traced["online-stream"]["lp.solve_calls"] >= 200


def test_missing_target_fails_the_install():
    import repro.lp.solver as solver
    from repro.sim.simulator import FlowLevelSimulator

    probe = tracer_module.Tracer()
    with pytest.raises(tracer_module.TracerTargetMissing, match="no_such_solve"):
        probe.wrap_function(solver, "no_such_solve", "lp.solve")
    with pytest.raises(tracer_module.TracerTargetMissing, match="no_such_run"):
        probe.wrap_method(FlowLevelSimulator, "no_such_run", "sim.run")
    assert probe._patches == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_chrome_trace_is_written(runs, workload):
    passes = runs[workload, "traced"][1]["pass_data"]
    trace = json.loads(Path(passes[0]["trace_file"]).read_text())
    events = trace["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)
    assert {e["name"] for e in events} <= set(tracer_module.LAYER_METRICS)


def _patched_attributes():
    """Every (owner, attribute) a tracer install replaces, with its value."""
    probe = tracer_module.Tracer().install()
    owners = [(owner, attr) for owner, attr, _original in probe._patches]
    probe.restore()
    return {(id(owner), attr): owner.__dict__[attr] for owner, attr in owners}


def test_restore_puts_back_every_original():
    before = _patched_attributes()
    import repro.circuit.given_paths as given_paths
    import repro.circuit.routing as routing
    import repro.lp.solver as solver

    installed = tracer_module.Tracer().install()
    try:
        for module in (solver, routing, given_paths):
            assert module.solve.__wrapped__ is solver.solve.__wrapped__
    finally:
        installed.restore()
    assert _patched_attributes() == before
    assert not hasattr(routing.solve, "__wrapped__")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrappers_leave_outputs_bit_identical(workload):
    out = ROOT / ".perfbench_out" / "selftest"
    plain = workloads.run_pass(workload, 5, 0, False, out, smoke=True)
    traced = workloads.run_pass(workload, 5, 0, True, out, smoke=True)
    for key in ("ratios", "gains", "events", "replans", "attempted", "failed"):
        assert plain[key] == traced[key], key


def test_sweep_records_bit_identical_under_tracing():
    import repro.analysis as analysis

    spec = workloads._sweep_spec(workloads.workload_params("lp-sweep", smoke=True), "t", 11)
    plain = analysis.RunStore()
    analysis.run_spec(spec, store=plain)
    installed = tracer_module.Tracer().install()
    try:
        traced = analysis.RunStore()
        analysis.run_spec(spec, store=traced)
    finally:
        installed.restore()
    assert json.dumps(plain._records, sort_keys=True) == json.dumps(traced._records, sort_keys=True)


def test_checkout_without_source_exits_nonzero():
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done, result, _summary = bench("lp-sweep", 0, cwd=bare)
        assert done.returncode != 0
        assert result is None and "{" not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
