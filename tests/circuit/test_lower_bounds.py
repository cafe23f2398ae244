"""Tests for the combinatorial lower bounds."""

import pytest

from repro.circuit.lower_bounds import (
    coflow_transfer_lower_bound,
    flow_transfer_lower_bound,
    given_paths_congestion_lower_bound,
    weighted_transfer_lower_bound,
)
from repro.core import Coflow, CoflowInstance, Flow, topologies


@pytest.fixture
def triangle():
    return topologies.triangle()


def test_flow_transfer_bound(triangle):
    bound = flow_transfer_lower_bound("x", "y", size=2.0, release_time=1.0, network=triangle)
    assert bound == pytest.approx(3.0)  # 1 + 2 / capacity 1


def test_zero_size_flow_bound_is_release(triangle):
    assert flow_transfer_lower_bound("x", "y", 0.0, 4.0, triangle) == 4.0


def test_coflow_bound_is_max(triangle):
    instance = CoflowInstance(
        coflows=[
            Coflow(
                flows=(
                    Flow("x", "y", size=1.0),
                    Flow("y", "z", size=3.0),
                )
            )
        ]
    )
    assert coflow_transfer_lower_bound(instance, 0, triangle) == pytest.approx(3.0)


def test_weighted_bound(triangle):
    instance = CoflowInstance(
        coflows=[
            Coflow(flows=(Flow("x", "y", size=2.0),), weight=2.0),
            Coflow(flows=(Flow("y", "z", size=1.0),), weight=3.0),
        ]
    )
    assert weighted_transfer_lower_bound(instance, triangle) == pytest.approx(
        2.0 * 2.0 + 3.0 * 1.0
    )


def test_congestion_bound_requires_paths(triangle):
    instance = CoflowInstance(coflows=[Coflow(flows=(Flow("x", "y", size=1.0),))])
    with pytest.raises(ValueError):
        given_paths_congestion_lower_bound(instance, triangle)


def test_congestion_bound_value(triangle):
    instance = CoflowInstance(
        coflows=[
            Coflow(flows=(Flow("x", "y", size=2.0, path=["x", "y"]),)),
            Coflow(flows=(Flow("x", "y", size=3.0, path=["x", "y"]),)),
        ]
    )
    assert given_paths_congestion_lower_bound(instance, triangle) == pytest.approx(5.0)


def test_bounds_hold_against_simulated_schedules(triangle):
    """Combinatorial bounds never exceed what any executable scheme achieves."""
    from repro.baselines import scheme_from_spec
    from repro.sim import FlowLevelSimulator

    instance = CoflowInstance(
        coflows=[
            Coflow(flows=(Flow("x", "y", size=2.0), Flow("y", "z", size=1.0)), weight=1.5),
            Coflow(flows=(Flow("z", "x", size=2.0),), weight=1.0),
        ]
    )
    plan = scheme_from_spec("Baseline").plan(instance, triangle)
    result = FlowLevelSimulator(triangle).run(instance, plan)
    assert result.weighted_completion_time >= weighted_transfer_lower_bound(
        instance, triangle
    ) - 1e-9
