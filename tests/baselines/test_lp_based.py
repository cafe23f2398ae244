"""Tests for the LP-Based schemes (the paper's evaluated algorithm)."""

import pytest

from repro.baselines import scheme_from_spec
from repro.core import Coflow, CoflowInstance, Flow, topologies
from repro.sim import FlowLevelSimulator
from repro.workloads import CoflowGenerator, WorkloadConfig


@pytest.fixture
def fat_tree():
    return topologies.fat_tree(4)


@pytest.fixture
def workload(fat_tree):
    return CoflowGenerator(
        fat_tree, WorkloadConfig(num_coflows=4, coflow_width=4, seed=9)
    ).instance()


class TestLPBasedScheme:
    def test_plan_valid(self, fat_tree, workload):
        scheme = scheme_from_spec("LP-Based")
        plan = scheme.plan(workload, fat_tree)
        plan.validate(workload, fat_tree)
        assert scheme.last_plan is not None
        assert scheme.last_plan.lower_bound > 0.0

    def test_simulated_objective_above_lp_lower_bound(self, fat_tree, workload):
        scheme = scheme_from_spec("LP-Based")
        plan = scheme.plan(workload, fat_tree)
        result = FlowLevelSimulator(fat_tree).run(workload, plan)
        assert result.weighted_completion_time >= scheme.last_plan.lower_bound - 1e-6

    def test_deterministic_given_seed(self, fat_tree, workload):
        seeded = "pipeline(router=lp(seed=4), order=lp)"
        plan_a = scheme_from_spec(seeded).plan(workload, fat_tree)
        plan_b = scheme_from_spec(seeded).plan(workload, fat_tree)
        assert plan_a.paths == plan_b.paths
        assert plan_a.order == plan_b.order

    def test_works_when_instance_already_has_paths(self, fat_tree, workload):
        routed = workload.with_paths(
            {
                fid: fat_tree.shortest_path(
                    workload.flow(fid).source, workload.flow(fid).destination
                )
                for fid in workload.flow_ids()
            }
        )
        plan = scheme_from_spec("LP-Based").plan(routed, fat_tree)
        plan.validate(routed, fat_tree)


class TestLPGivenPathsScheme:
    def test_requires_paths(self, fat_tree, workload):
        with pytest.raises(ValueError):
            scheme_from_spec("LP-Based (given paths)").plan(workload, fat_tree)

    def test_plan_on_switch(self):
        net = topologies.nonblocking_switch(6)
        instance = CoflowInstance(
            coflows=[
                Coflow(
                    flows=(
                        Flow("host_0", "host_1", size=2.0, path=["host_0", "switch", "host_1"]),
                        Flow("host_2", "host_3", size=1.0, path=["host_2", "switch", "host_3"]),
                    ),
                    weight=2.0,
                ),
                Coflow(
                    flows=(
                        Flow("host_4", "host_1", size=1.0, path=["host_4", "switch", "host_1"]),
                    ),
                    weight=1.0,
                ),
            ]
        )
        scheme = scheme_from_spec("LP-Based (given paths)")
        plan = scheme.plan(instance, net)
        plan.validate(instance, net)
        result = FlowLevelSimulator(net).run(instance, plan)
        assert result.weighted_completion_time >= scheme.last_relaxation.lower_bound - 1e-6
