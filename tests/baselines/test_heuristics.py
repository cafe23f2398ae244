"""Tests for the Section-4.3 heuristics and the SEBF extension."""

import pytest

from repro.baselines import load_balanced_route, random_route, scheme_from_spec
from repro.core import Coflow, CoflowInstance, Flow, topologies
from repro.core.network import path_edges
from repro.sim import FlowLevelSimulator
from repro.workloads import CoflowGenerator, WorkloadConfig


@pytest.fixture
def fat_tree():
    return topologies.fat_tree(4)


@pytest.fixture
def workload(fat_tree):
    return CoflowGenerator(
        fat_tree, WorkloadConfig(num_coflows=4, coflow_width=4, seed=3)
    ).instance()


ALL_SCHEMES = [
    scheme_from_spec(name) for name in ("Baseline", "Schedule-only", "Route-only", "SEBF")
]


class TestPlansAreValid:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_plan_valid_and_complete(self, scheme, fat_tree, workload):
        plan = scheme.plan(workload, fat_tree)
        plan.validate(workload, fat_tree)
        assert set(plan.paths) == set(workload.flow_ids())
        assert sorted(plan.order) == sorted(workload.flow_ids())

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_plan_runs_in_simulator(self, scheme, fat_tree, workload):
        plan = scheme.plan(workload, fat_tree)
        result = FlowLevelSimulator(fat_tree).run(workload, plan)
        result.schedule.validate(plan_instance(workload, plan), fat_tree)
        assert result.weighted_completion_time > 0.0


def plan_instance(instance, plan):
    """Attach the plan's paths so the realised schedule can be validated."""
    return instance.with_paths({fid: list(p) for fid, p in plan.paths.items()})


class TestRoutingHelpers:
    def test_random_route_deterministic_given_seed(self, fat_tree, workload):
        import random

        a = random_route(workload, fat_tree, random.Random(5))
        b = random_route(workload, fat_tree, random.Random(5))
        assert a == b

    def test_random_route_respects_existing_paths(self, fat_tree, workload):
        import random

        fixed = {(0, 0): tuple(fat_tree.shortest_path(
            workload.flow((0, 0)).source, workload.flow((0, 0)).destination
        ))}
        routed = workload.with_paths({k: list(v) for k, v in fixed.items()})
        paths = random_route(routed, fat_tree, random.Random(1))
        assert paths[(0, 0)] == fixed[(0, 0)]

    def test_load_balanced_route_spreads_over_cores(self, fat_tree):
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=tuple(Flow("host_0", "host_15", size=1.0) for _ in range(4)))
            ]
        )
        paths = load_balanced_route(instance, fat_tree)
        cores = {
            node
            for path in paths.values()
            for node in path
            if str(node).startswith("core_")
        }
        assert len(cores) >= 2

    def test_load_balanced_route_beats_single_path_congestion(self, fat_tree):
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=tuple(Flow("host_0", "host_15", size=1.0) for _ in range(8)))
            ]
        )
        paths = load_balanced_route(instance, fat_tree)
        core_load = {}
        for path in paths.values():
            for u, v in path_edges(list(path)):
                if str(u).startswith("agg_0") and str(v).startswith("core"):
                    core_load[(u, v)] = core_load.get((u, v), 0) + 1
        # 8 flows over >= 2 aggregation->core links
        assert max(core_load.values()) < 8


class TestOrderings:
    def test_schedule_only_orders_by_min_completion(self, fat_tree):
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("host_0", "host_1", size=10.0),)),
                Coflow(flows=(Flow("host_2", "host_3", size=1.0),)),
            ]
        )
        plan = scheme_from_spec("Schedule-only").plan(instance, fat_tree)
        assert plan.order[0] == (1, 0)  # the small flow first

    def test_schedule_only_accounts_for_release_times(self, fat_tree):
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("host_0", "host_1", size=1.0, release_time=50.0),)),
                Coflow(flows=(Flow("host_2", "host_3", size=2.0),)),
            ]
        )
        plan = scheme_from_spec("Schedule-only").plan(instance, fat_tree)
        assert plan.order[0] == (1, 0)

    def test_sebf_orders_by_coflow_bottleneck(self, fat_tree):
        light = Coflow(flows=(Flow("host_0", "host_1", size=1.0),), name="light")
        heavy = Coflow(
            flows=tuple(Flow("host_2", "host_3", size=8.0) for _ in range(3)),
            name="heavy",
        )
        instance = CoflowInstance(coflows=[heavy, light])
        plan = scheme_from_spec("SEBF").plan(instance, fat_tree)
        # all flows of the light coflow come before the heavy one
        positions = {fid: k for k, fid in enumerate(plan.order)}
        assert positions[(1, 0)] < min(positions[(0, j)] for j in range(3))

    def test_sebf_groups_coflows_contiguously(self, fat_tree, workload):
        plan = scheme_from_spec("SEBF").plan(workload, fat_tree)
        seen = []
        for i, _ in plan.order:
            if not seen or seen[-1] != i:
                seen.append(i)
        assert len(seen) == workload.num_coflows  # each coflow appears as one block

    def test_baseline_orders_differ_across_seeds(self, fat_tree, workload):
        seeded = "pipeline(router=random(seed={0}), order=random(seed={0}))"
        a = scheme_from_spec(seeded.format(1)).plan(workload, fat_tree).order
        b = scheme_from_spec(seeded.format(2)).plan(workload, fat_tree).order
        assert a != b

    def test_route_only_keeps_instance_order(self, fat_tree, workload):
        plan = scheme_from_spec("Route-only").plan(workload, fat_tree)
        assert plan.order == workload.flow_ids()
