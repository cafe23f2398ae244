"""Figure 1: the introductory triangle example.

Regenerates the three schedules discussed in the paper's introduction (fair
sharing, strict coflow priority, optimal) and shows that the LP-based pipeline
recovers the optimal total completion time of 7.  The benchmark times the full
LP + ordering + simulation pipeline on the example.
"""

import pytest

from repro.analysis import format_table
from repro.baselines import scheme_from_spec
from repro.core import CircuitSchedule, Coflow, CoflowInstance, Flow, topologies
from repro.sim import FlowLevelSimulator

from common import record


def figure1_instance() -> CoflowInstance:
    return CoflowInstance(
        coflows=[
            Coflow(
                flows=(
                    Flow("x", "y", size=2.0, path=["x", "y"]),
                    Flow("y", "z", size=1.0, path=["y", "z"]),
                ),
                weight=1.0,
                name="A",
            ),
            Coflow(flows=(Flow("y", "z", size=1.0, path=["y", "z"]),), weight=1.0, name="B"),
            Coflow(flows=(Flow("x", "y", size=2.0, path=["x", "y"]),), weight=1.0, name="C"),
        ]
    )


def hand_schedules(instance, network):
    """The (s1), (s2), (s3) schedules of Figure 1, as total completion times."""
    results = {}
    # (s1) fair sharing at rate 1/2
    s1 = CircuitSchedule()
    for (fid, horizon) in [((0, 0), 4.0), ((0, 1), 2.0), ((1, 0), 2.0), ((2, 0), 4.0)]:
        flow = instance.flow(fid)
        s1.set_path(fid, flow.path)
        s1.add_segment(fid, 0.0, horizon, 0.5)
    s1.validate(instance, network)
    results["(s1) fair sharing"] = sum(s1.coflow_completion_times(instance).values())
    # (s2) strict priority A > B > C
    s2 = CircuitSchedule()
    for fid, (start, end) in [
        ((0, 0), (0.0, 2.0)),
        ((0, 1), (0.0, 1.0)),
        ((1, 0), (1.0, 2.0)),
        ((2, 0), (2.0, 4.0)),
    ]:
        s2.set_path(fid, instance.flow(fid).path)
        s2.add_segment(fid, start, end, 1.0)
    s2.validate(instance, network)
    results["(s2) coflow priority"] = sum(s2.coflow_completion_times(instance).values())
    # (s3) optimal
    s3 = CircuitSchedule()
    for fid, (start, end) in [
        ((0, 0), (0.0, 2.0)),
        ((0, 1), (1.0, 2.0)),
        ((1, 0), (0.0, 1.0)),
        ((2, 0), (2.0, 4.0)),
    ]:
        s3.set_path(fid, instance.flow(fid).path)
        s3.add_segment(fid, start, end, 1.0)
    s3.validate(instance, network)
    results["(s3) optimal"] = sum(s3.coflow_completion_times(instance).values())
    return results


def lp_pipeline(instance, network) -> float:
    scheme = scheme_from_spec("LP-Based (given paths)")
    plan = scheme.plan(instance, network)
    result = FlowLevelSimulator(network).run(instance, plan)
    return result.total_completion_time


@pytest.mark.benchmark(group="fig1")
def test_fig1_intro_example(benchmark):
    network = topologies.triangle()
    instance = figure1_instance()

    value = benchmark.pedantic(
        lp_pipeline, args=(instance, network), rounds=3, iterations=1
    )

    rows = [[name, total] for name, total in hand_schedules(instance, network).items()]
    rows.append(["LP-Based (this work)", value])
    table = format_table(
        ["schedule", "total completion time"],
        rows,
        title="Figure 1 — triangle example (paper: 10 / 8 / 7)",
    )
    record("fig1_intro_example", table)

    assert value == pytest.approx(7.0, abs=1e-6)
