"""Integration tests for the qualitative claims of the evaluation section.

These are the shape checks DESIGN.md commits to: on random fat-tree workloads
(the Figure-3/4 regime scaled down for CI), the LP-Based scheme beats the
Baseline and Schedule-only heuristics on average, and every scheme's simulated
objective respects the LP and combinatorial lower bounds.  Absolute numbers
are not asserted — only the relationships the paper reports.
"""

import pytest

from repro.analysis import ExperimentEngine, build_schemes
from repro.circuit.lower_bounds import weighted_transfer_lower_bound
from repro.core import topologies
from repro.sim import FlowLevelSimulator
from repro.workloads import CoflowGenerator, WorkloadConfig


@pytest.fixture(scope="module")
def network():
    return topologies.fat_tree(4)


@pytest.fixture(scope="module")
def sweep_result(network):
    schemes = build_schemes(["Baseline", "Schedule-only", "Route-only", "LP-Based"])
    sweep = ExperimentEngine(network, schemes, tries=3)
    config = WorkloadConfig(num_coflows=6, coflow_width=6, seed=100)
    return sweep.run(config, "coflow_width", [4, 8], label_format="{value} flows")


def test_lp_based_beats_baseline_on_average(sweep_result):
    gain = sweep_result.average_improvement("LP-Based", "Baseline")
    assert gain > 10.0  # the paper reports ~110-126%


def test_lp_based_beats_schedule_only_on_average(sweep_result):
    gain = sweep_result.average_improvement("LP-Based", "Schedule-only")
    assert gain > 5.0  # the paper reports ~72-96%


def test_lp_based_at_least_matches_route_only_on_average(sweep_result):
    gain = sweep_result.average_improvement("LP-Based", "Route-only")
    assert gain > -5.0  # the paper reports ~22-26%; never materially worse


def test_every_point_ranks_lp_based_best_or_close(sweep_result):
    for point in sweep_result.points:
        lp = point.mean("LP-Based")
        assert lp <= point.mean("Baseline") * 1.05
        assert lp <= point.mean("Schedule-only") * 1.05


def test_all_schemes_respect_combinatorial_lower_bound(network):
    instance = CoflowGenerator(
        network, WorkloadConfig(num_coflows=5, coflow_width=5, seed=7)
    ).instance()
    lower = weighted_transfer_lower_bound(instance, network)
    simulator = FlowLevelSimulator(network)
    for scheme in build_schemes(
        [
            "pipeline(router=random(seed=1), order=random(seed=1))",
            "pipeline(router=random(seed=1), order=mct)",
            "Route-only",
            "pipeline(router=lp(seed=1), order=lp)",
        ]
    ):
        result = simulator.run(instance, scheme.plan(instance, network))
        assert result.weighted_completion_time >= lower - 1e-6


def test_lp_based_objective_respects_its_own_lp_bound(network):
    instance = CoflowGenerator(
        network, WorkloadConfig(num_coflows=4, coflow_width=6, seed=21)
    ).instance()
    (scheme,) = build_schemes(["pipeline(router=lp(seed=3), order=lp)"])
    plan = scheme.plan(instance, network)
    result = FlowLevelSimulator(network).run(instance, plan)
    assert result.weighted_completion_time >= scheme.last_plan.lower_bound - 1e-6
