"""Behavioural tests of online re-planning: a per-arrival streaming session."""

import math

import pytest

from repro.baselines import scheme_from_spec
from repro.core import Coflow, CoflowInstance, Flow, topologies
from repro.core.network import Network
from repro.sim import (
    FlowLevelSimulator,
    SimulationPlan,
    StreamingScheduler,
)
from repro.workloads import CoflowGenerator, WorkloadConfig


def two_coflow_contention():
    """Coflow A (size 10, t=0) and coflow B (size 1, arriving at t=4) share
    the unit-capacity edge x->y of the triangle."""
    network = topologies.triangle()
    instance = CoflowInstance(
        coflows=[
            Coflow(flows=(Flow("x", "y", size=10.0),)),
            Coflow(flows=(Flow("x", "y", size=1.0, release_time=4.0),)),
        ]
    )
    paths = {(0, 0): ("x", "y"), (1, 0): ("x", "y")}
    return network, instance, paths


class SRPTReplanner:
    """Order unfinished flows by remaining volume (smallest first)."""

    def __init__(self):
        self.contexts = []

    def __call__(self, context):
        self.contexts.append(context)
        order = sorted(
            context.instance.flow_ids(),
            key=lambda fid: (context.instance.flow(fid).size, fid),
        )
        paths = {
            fid: ("x", "y") for fid in context.instance.flow_ids()
        }
        return SimulationPlan(paths=paths, order=order, name="srpt")


class TestReplanningChangesTheSchedule:
    def test_replan_preempts_the_elephant(self):
        network, instance, paths = two_coflow_contention()
        static_plan = SimulationPlan(paths=paths, order=[(0, 0), (1, 0)], name="static")
        static = FlowLevelSimulator(network).run(instance, static_plan)
        assert static.flow_completion[(0, 0)] == pytest.approx(10.0)
        assert static.flow_completion[(1, 0)] == pytest.approx(11.0)

        replanner = SRPTReplanner()
        online = StreamingScheduler(network, replanner).run(instance)
        # At t=4 the mouse (remaining 1) preempts the elephant (remaining 6).
        assert online.flow_completion[(1, 0)] == pytest.approx(5.0)
        assert online.flow_completion[(0, 0)] == pytest.approx(11.0)
        online.schedule.validate(instance, network)

    def test_replanner_sees_remaining_volumes(self):
        network, instance, paths = two_coflow_contention()
        replanner = SRPTReplanner()
        StreamingScheduler(network, replanner).run(instance)
        assert len(replanner.contexts) == 2
        first, second = replanner.contexts
        assert first.now == pytest.approx(0.0)
        assert first.instance.num_flows == 1
        assert second.now == pytest.approx(4.0)
        # The elephant has moved 4 units by the second arrival.
        sizes = sorted(
            second.instance.flow(fid).size for fid in second.instance.flow_ids()
        )
        assert sizes == pytest.approx([1.0, 6.0])
        # The elephant is mid-transfer, so its path is pinned.
        assert second.pinned_paths == {(0, 0): ("x", "y")}

    def test_flows_that_moved_volume_keep_their_path(self):
        # Diamond: two disjoint 2-hop routes from s to t.
        network = Network()
        for u, v in [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")]:
            network.add_edge(u, v, capacity=1.0)
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("s", "t", size=4.0),)),
                Coflow(flows=(Flow("s", "t", size=1.0, release_time=1.0),)),
            ]
        )

        def reroute_everything(context):
            # Tries to push every flow onto the b-route at every arrival.
            fids = context.instance.flow_ids()
            return SimulationPlan(
                paths={fid: ("s", "b", "t") for fid in fids},
                order=list(fids),
                name="reroute",
            )

        result = StreamingScheduler(network, reroute_everything).run(instance)
        # Flow (0,0) transferred volume on s->b->t during epoch 0 (the first
        # plan routed it there), so later re-plans cannot move it; it simply
        # keeps its route and finishes undisturbed.
        assert result.schedule.path((0, 0)) == ("s", "b", "t")
        result.schedule.validate(instance, network)

    def test_zero_size_flows_complete_at_release(self):
        network = topologies.triangle()
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=0.0, release_time=2.0), Flow("x", "y", size=1.0),)),
            ]
        )
        replanner = SRPTReplanner()
        result = StreamingScheduler(network, replanner).run(instance)
        assert result.flow_completion[(0, 0)] == pytest.approx(2.0)
        assert result.flow_completion[(0, 1)] == pytest.approx(1.0)


class TestOnlineScheme:
    def test_online_scheme_runs_end_to_end_and_is_deterministic(self):
        network = topologies.leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=4)
        config = WorkloadConfig(
            num_coflows=4,
            coflow_width=3,
            mean_flow_size=4.0,
            release_rate=2.0,
            coflow_arrival_rate=0.3,
            seed=17,
        )
        instance = CoflowGenerator(network, config).instance()
        scheme = scheme_from_spec("Online-SEBF")
        first = scheme.simulate(instance, network)
        second = scheme.simulate(instance, network)
        assert first.plan_name == "Online-SEBF"
        assert first.flow_completion == second.flow_completion
        assert set(first.flow_completion) == set(instance.flow_ids())
        first.schedule.validate(instance, network)
        for fid, completion in first.flow_completion.items():
            assert completion >= instance.flow(fid).release_time - 1e-9
        assert first.mean_slowdown >= 0.0

    def test_signature_includes_the_inner_stages(self):
        seeded = "pipeline(router=random(seed={0}), order=random(seed={0}), online=true)"
        scheme = scheme_from_spec(seeded.format(3))
        assert scheme_from_spec("Online-Baseline").name == "Online-Baseline"
        assert scheme.online is True
        assert "router=random" in scheme.signature()
        assert "seed=3" in scheme.signature()
        assert "online=true" in scheme.signature()
        assert scheme.signature() == scheme_from_spec(seeded.format(3)).signature()
        assert scheme.signature() != scheme_from_spec(seeded.format(4)).signature()
        # The online flag distinguishes the signature from the static scheme.
        assert scheme.signature() != scheme.with_options(online=False).signature()

    def test_plan_returns_the_epoch_zero_decision(self):
        network = topologies.leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
        config = WorkloadConfig(num_coflows=2, coflow_width=2, seed=3)
        instance = CoflowGenerator(network, config).instance()
        scheme = scheme_from_spec("Online-SEBF")
        plan = scheme.plan(instance, network)
        assert plan.name == "Online-SEBF"
        # The epoch-zero decision matches the static composition's plan.
        static = scheme_from_spec("SEBF").plan(instance, network)
        assert plan.paths == static.paths
        assert plan.order == static.order
        plan.normalized(instance).validate(instance, network)
