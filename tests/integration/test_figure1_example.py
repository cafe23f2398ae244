"""Integration test reproducing the Figure-1 example of the paper.

Three coflows on a unit-capacity triangle: coflow A has flows A1 (size 2) and
A2 (size 1); coflow B has one flow of size 1 sharing A2's edge; coflow C has
one flow of size 2 sharing A1's edge.  The paper discusses three schedules:

* fair sharing (every flow gets bandwidth 1/2): total completion time 10;
* strict coflow priority A > B > C: total completion time 8;
* the optimal schedule (B ahead of A2, C after A1): total completion time 7.

The tests below reproduce all three values with the library's schedule
representation and check that the LP-driven pipeline also reaches the optimal
total of 7 when simulated.
"""

import pytest

from repro.baselines import scheme_from_spec
from repro.circuit import GivenPathsScheduler
from repro.core import CircuitSchedule, Coflow, CoflowInstance, Flow, topologies
from repro.sim import FlowLevelSimulator, SimulationPlan


@pytest.fixture
def network():
    return topologies.triangle()


@pytest.fixture
def instance():
    return CoflowInstance(
        coflows=[
            Coflow(
                flows=(
                    Flow("x", "y", size=2.0, path=["x", "y"]),  # A1
                    Flow("y", "z", size=1.0, path=["y", "z"]),  # A2
                ),
                weight=1.0,
                name="A",
            ),
            Coflow(flows=(Flow("y", "z", size=1.0, path=["y", "z"]),), weight=1.0, name="B"),
            Coflow(flows=(Flow("x", "y", size=2.0, path=["x", "y"]),), weight=1.0, name="C"),
        ]
    )


def test_fair_sharing_schedule_costs_10(instance, network):
    """Schedule (s1): every flow gets bandwidth 1/2."""
    schedule = CircuitSchedule()
    durations = {(0, 0): 4.0, (0, 1): 2.0, (1, 0): 2.0, (2, 0): 4.0}
    for (i, j), horizon in durations.items():
        flow = instance.flow((i, j))
        schedule.set_path((i, j), flow.path)
        schedule.add_segment((i, j), 0.0, horizon, 0.5)
    schedule.validate(instance, network)
    completions = schedule.coflow_completion_times(instance)
    assert sum(completions.values()) == pytest.approx(10.0)


def test_priority_schedule_costs_8(instance, network):
    """Schedule (s2): priority A, then B, then C."""
    schedule = CircuitSchedule()
    schedule.set_path((0, 0), ["x", "y"])
    schedule.add_segment((0, 0), 0.0, 2.0, 1.0)
    schedule.set_path((0, 1), ["y", "z"])
    schedule.add_segment((0, 1), 0.0, 1.0, 1.0)
    schedule.set_path((1, 0), ["y", "z"])
    schedule.add_segment((1, 0), 1.0, 2.0, 1.0)
    schedule.set_path((2, 0), ["x", "y"])
    schedule.add_segment((2, 0), 2.0, 4.0, 1.0)
    schedule.validate(instance, network)
    completions = schedule.coflow_completion_times(instance)
    assert completions == pytest.approx({0: 2.0, 1: 2.0, 2: 4.0})
    assert sum(completions.values()) == pytest.approx(8.0)


def test_optimal_schedule_costs_7(instance, network):
    """Schedule (s3): B goes ahead of A2, C follows A1; total is 7."""
    schedule = CircuitSchedule()
    schedule.set_path((0, 0), ["x", "y"])
    schedule.add_segment((0, 0), 0.0, 2.0, 1.0)
    schedule.set_path((0, 1), ["y", "z"])
    schedule.add_segment((0, 1), 1.0, 2.0, 1.0)
    schedule.set_path((1, 0), ["y", "z"])
    schedule.add_segment((1, 0), 0.0, 1.0, 1.0)
    schedule.set_path((2, 0), ["x", "y"])
    schedule.add_segment((2, 0), 2.0, 4.0, 1.0)
    schedule.validate(instance, network)
    completions = schedule.coflow_completion_times(instance)
    assert completions == pytest.approx({0: 2.0, 1: 1.0, 2: 4.0})
    assert sum(completions.values()) == pytest.approx(7.0)


def test_lp_lower_bound_is_below_the_optimum(instance, network):
    relaxation = GivenPathsScheduler(instance, network).relax()
    assert relaxation.lower_bound <= 7.0 + 1e-6


def test_lp_ordered_simulation_matches_the_optimum(instance, network):
    """The LP ordering fed to the work-conserving simulator achieves 7."""
    scheme = scheme_from_spec("LP-Based (given paths)")
    plan = scheme.plan(instance, network)
    result = FlowLevelSimulator(network).run(instance, plan)
    assert result.total_completion_time == pytest.approx(7.0, abs=1e-6)


def test_interval_rounding_stays_within_provable_factor(instance, network):
    scheduler = GivenPathsScheduler(instance, network)
    result = scheduler.schedule()
    assert result.objective <= scheduler.parameters.blowup_factor * 7.0
