"""Rate-allocator behaviour: greedy priority vs the fair-sharing policies."""

import dataclasses

import pytest

from repro.core import Coflow, CoflowInstance, Flow, topologies
from repro.sim import (
    ALLOCATORS,
    FlowLevelSimulator,
    GreedyPriorityAllocator,
    MaxMinFairAllocator,
    SimulationPlan,
    WeightedFairAllocator,
    resolve_allocator,
)


def shared_edge_instance(weights=(1.0, 1.0)):
    network = topologies.triangle()
    instance = CoflowInstance(
        coflows=[
            Coflow(flows=(Flow("x", "y", size=1.0),), weight=weights[0]),
            Coflow(flows=(Flow("x", "y", size=1.0),), weight=weights[1]),
        ]
    )
    plan = SimulationPlan(
        paths={(0, 0): ("x", "y"), (1, 0): ("x", "y")},
        order=[(0, 0), (1, 0)],
        name="test",
    )
    return network, instance, plan


class TestRegistry:
    def test_known_allocators(self):
        assert set(ALLOCATORS) == {"greedy", "max-min", "weighted"}
        assert isinstance(resolve_allocator("greedy"), GreedyPriorityAllocator)
        assert isinstance(resolve_allocator("max-min"), MaxMinFairAllocator)
        assert isinstance(resolve_allocator("weighted"), WeightedFairAllocator)

    def test_unknown_allocator_raises_with_known_names(self):
        with pytest.raises(ValueError, match="unknown rate allocator.*greedy"):
            resolve_allocator("fifo")

    def test_plan_validation_rejects_unknown_allocator(self):
        network, instance, plan = shared_edge_instance()
        plan = dataclasses.replace(plan, allocator="fifo")
        with pytest.raises(ValueError, match="unknown rate allocator"):
            FlowLevelSimulator(network).run(instance, plan)


class TestPolicies:
    def test_greedy_serialises_the_shared_edge(self):
        network, instance, plan = shared_edge_instance()
        result = FlowLevelSimulator(network).run(instance, plan)
        assert result.flow_completion[(0, 0)] == pytest.approx(1.0)
        assert result.flow_completion[(1, 0)] == pytest.approx(2.0)

    def test_max_min_splits_the_shared_edge_evenly(self):
        network, instance, plan = shared_edge_instance()
        plan = dataclasses.replace(plan, allocator="max-min")
        result = FlowLevelSimulator(network).run(instance, plan)
        # Both flows run at rate 1/2 and finish together.
        assert result.flow_completion[(0, 0)] == pytest.approx(2.0)
        assert result.flow_completion[(1, 0)] == pytest.approx(2.0)
        result.schedule.validate(instance, network)

    def test_max_min_ignores_priority_order(self):
        network, instance, plan = shared_edge_instance()
        reordered = dataclasses.replace(
            plan, order=[(1, 0), (0, 0)], allocator="max-min"
        )
        result = FlowLevelSimulator(network).run(instance, reordered)
        assert result.flow_completion[(0, 0)] == result.flow_completion[(1, 0)]

    def test_weighted_fair_shares_proportionally(self):
        network, instance, plan = shared_edge_instance(weights=(2.0, 1.0))
        plan = dataclasses.replace(plan, allocator="weighted")
        result = FlowLevelSimulator(network).run(instance, plan)
        # Rates 2/3 and 1/3 until t=1.5; the survivor then takes the edge.
        assert result.flow_completion[(0, 0)] == pytest.approx(1.5)
        assert result.flow_completion[(1, 0)] == pytest.approx(2.0)
        result.schedule.validate(instance, network)

    def test_weighted_with_equal_weights_is_max_min(self):
        network, instance, plan = shared_edge_instance()
        fair = FlowLevelSimulator(network).run(
            instance, dataclasses.replace(plan, allocator="max-min")
        )
        weighted = FlowLevelSimulator(network).run(
            instance, dataclasses.replace(plan, allocator="weighted")
        )
        assert fair.flow_completion == weighted.flow_completion

    def test_fair_policies_are_work_conserving(self):
        # Disjoint second flow must still get the full idle edge.
        network = topologies.triangle()
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=2.0),)),
                Coflow(flows=(Flow("y", "z", size=2.0),)),
            ]
        )
        plan = SimulationPlan(
            paths={(0, 0): ("x", "y"), (1, 0): ("y", "z")},
            order=[(0, 0), (1, 0)],
            allocator="max-min",
        )
        result = FlowLevelSimulator(network).run(instance, plan)
        assert result.makespan == pytest.approx(2.0)


class TestSchemeSelection:
    def test_schemes_propagate_the_allocator_to_their_plans(self):
        from repro.baselines import scheme_from_spec

        network = topologies.leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
        from repro.workloads import CoflowGenerator, WorkloadConfig

        instance = CoflowGenerator(
            network, WorkloadConfig(num_coflows=2, coflow_width=2, seed=1)
        ).instance()
        scheme = scheme_from_spec("SEBF-MaxMin")
        plan = scheme.plan(instance, network)
        assert plan.allocator == "max-min"
        # And the allocator is part of the scheme's cache signature.
        assert "max-min" in scheme.signature()
