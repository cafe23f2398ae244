"""Tests for the flow-level event-driven simulator."""

import pytest

from repro.core import Coflow, CoflowInstance, Flow, topologies
from repro.sim import (
    FlowLevelSimulator,
    RateAllocator,
    SimulationPlan,
    kernel_jit,
    make_kernel,
)
from repro.sim.simulator import load_plan


@pytest.fixture
def triangle():
    return topologies.triangle()


def plan_for(instance, network, order=None, name="test"):
    paths = {
        (i, j): tuple(network.shortest_path(f.source, f.destination))
        for i, j, f in instance.iter_flows()
    }
    return SimulationPlan(paths=paths, order=order or instance.flow_ids(), name=name)


class TestSingleFlow:
    def test_completion_is_size_over_capacity(self, triangle):
        instance = CoflowInstance(coflows=[Coflow(flows=(Flow("x", "y", size=3.0),))])
        result = FlowLevelSimulator(triangle).run(instance, plan_for(instance, triangle))
        assert result.flow_completion[(0, 0)] == pytest.approx(3.0)
        assert result.makespan == pytest.approx(3.0)

    def test_release_time_delays_start(self, triangle):
        instance = CoflowInstance(
            coflows=[Coflow(flows=(Flow("x", "y", size=2.0, release_time=5.0),))]
        )
        result = FlowLevelSimulator(triangle).run(instance, plan_for(instance, triangle))
        assert result.flow_start[(0, 0)] == pytest.approx(5.0)
        assert result.flow_completion[(0, 0)] == pytest.approx(7.0)

    def test_zero_size_flow(self, triangle):
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=0.0, release_time=2.0), Flow("y", "z", size=1.0)))
            ]
        )
        result = FlowLevelSimulator(triangle).run(instance, plan_for(instance, triangle))
        assert result.flow_completion[(0, 0)] == pytest.approx(2.0)
        assert result.flow_completion[(0, 1)] == pytest.approx(1.0)


class TestContention:
    def test_priority_order_serialises_shared_edge(self, triangle):
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=2.0),)),
                Coflow(flows=(Flow("x", "y", size=1.0),)),
            ]
        )
        plan = plan_for(instance, triangle, order=[(1, 0), (0, 0)])
        result = FlowLevelSimulator(triangle).run(instance, plan)
        # flow (1, 0) has priority: finishes at 1; flow (0, 0) then at 3
        assert result.flow_completion[(1, 0)] == pytest.approx(1.0)
        assert result.flow_completion[(0, 0)] == pytest.approx(3.0)

    def test_reversed_priority(self, triangle):
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=2.0),)),
                Coflow(flows=(Flow("x", "y", size=1.0),)),
            ]
        )
        plan = plan_for(instance, triangle, order=[(0, 0), (1, 0)])
        result = FlowLevelSimulator(triangle).run(instance, plan)
        assert result.flow_completion[(0, 0)] == pytest.approx(2.0)
        assert result.flow_completion[(1, 0)] == pytest.approx(3.0)

    def test_disjoint_paths_run_in_parallel(self, triangle):
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=2.0),)),
                Coflow(flows=(Flow("y", "z", size=2.0),)),
            ]
        )
        result = FlowLevelSimulator(triangle).run(instance, plan_for(instance, triangle))
        assert result.makespan == pytest.approx(2.0)

    def test_work_conservation_after_completion(self, triangle):
        """A blocked flow picks up the freed bandwidth immediately."""
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=1.0),)),
                Coflow(flows=(Flow("x", "y", size=1.0),)),
            ]
        )
        result = FlowLevelSimulator(triangle).run(instance, plan_for(instance, triangle))
        # back-to-back, no idle gap: second finishes exactly at 2
        assert result.flow_completion[(1, 0)] == pytest.approx(2.0)

    def test_later_release_backfills(self, triangle):
        """A later-released lower-priority flow cannot delay an earlier one."""
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=4.0),)),
                Coflow(flows=(Flow("x", "y", size=1.0, release_time=1.0),)),
            ]
        )
        plan = plan_for(instance, triangle, order=[(0, 0), (1, 0)])
        result = FlowLevelSimulator(triangle).run(instance, plan)
        assert result.flow_completion[(0, 0)] == pytest.approx(4.0)
        assert result.flow_completion[(1, 0)] == pytest.approx(5.0)


class TestRealisedSchedule:
    def test_schedule_is_feasible_and_matches_completions(self, triangle):
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=2.0), Flow("y", "z", size=1.0)), weight=2.0),
                Coflow(flows=(Flow("x", "y", size=1.0),), weight=1.0),
            ]
        )
        result = FlowLevelSimulator(triangle).run(instance, plan_for(instance, triangle))
        result.schedule.validate(instance, triangle)
        for fid, completion in result.flow_completion.items():
            flow = instance.flow(fid)
            if flow.size > 0:
                assert result.schedule.flow_completion_time(fid, size=flow.size) == pytest.approx(
                    completion, rel=1e-6
                )

    def test_breakdown_consistency(self, triangle):
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=2.0),), weight=3.0),
                Coflow(flows=(Flow("y", "z", size=1.0),), weight=1.0),
            ]
        )
        result = FlowLevelSimulator(triangle).run(instance, plan_for(instance, triangle))
        assert result.weighted_completion_time == pytest.approx(3.0 * 2.0 + 1.0 * 1.0)
        assert result.total_completion_time == pytest.approx(3.0)
        assert result.average_completion_time == pytest.approx(1.5)


KERNEL_TIERS = [
    "array",
    pytest.param(
        "jit",
        marks=pytest.mark.skipif(
            not kernel_jit.available(), reason="compiled kernel tier unavailable"
        ),
    ),
]


@pytest.mark.parametrize("backend", KERNEL_TIERS)
class TestKernelFlowLookups:
    """Per-flow kernel lookups are O(1) and name the flow on a miss."""

    def build_kernel(self, triangle, backend):
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=2.0), Flow("y", "z", size=1.0))),
            ],
            name="lookup-case",
        )
        plan = plan_for(instance, triangle).normalized(instance)
        kernel = make_kernel(triangle, backend=backend)
        ingested = load_plan(kernel, instance, plan)
        assert kernel.run()
        return kernel, ingested

    def test_slot_and_sid_map_every_flow(self, triangle, backend):
        kernel, ingested = self.build_kernel(triangle, backend)
        assert ingested == [(0, 0), (0, 1)]
        for k, fid in enumerate(ingested):
            assert kernel.slot_of(fid) == k
            assert kernel.sid_of(fid) == k

    def test_unknown_flow_raises_keyerror_naming_it(self, triangle, backend):
        kernel, _ingested = self.build_kernel(triangle, backend)
        with pytest.raises(KeyError, match=r"unknown flow \(7, 7\)"):
            kernel.slot_of((7, 7))
        with pytest.raises(KeyError, match=r"unknown flow \(7, 7\)"):
            kernel.sid_of((7, 7))

    def test_load_plan_needs_a_fresh_session(self, triangle, backend):
        kernel, _ingested = self.build_kernel(triangle, backend)
        instance = CoflowInstance(coflows=[Coflow(flows=(Flow("x", "y", size=1.0),))])
        plan = plan_for(instance, triangle).normalized(instance)
        with pytest.raises(ValueError, match="fresh kernel session"):
            load_plan(kernel, instance, plan)

    def test_drained_segments_are_coalesced_per_flow(self, triangle, backend):
        kernel, ingested = self.build_kernel(triangle, backend)
        segments = dict(kernel.drain_all_segments())
        assert set(segments) == {kernel.sid_of(fid) for fid in ingested}
        for segs in segments.values():
            assert segs and all(len(seg) == 3 for seg in segs)
            for before, after in zip(segs, segs[1:]):
                assert not (before[1] == after[0] and before[2] == after[2])


class TestPlanValidation:
    def test_missing_path_raises(self, triangle):
        instance = CoflowInstance(coflows=[Coflow(flows=(Flow("x", "y", size=1.0),))])
        plan = SimulationPlan(paths={}, order=[], name="broken")
        with pytest.raises(ValueError, match="missing paths"):
            FlowLevelSimulator(triangle).run(instance, plan)

    def test_wrong_endpoints_raise(self, triangle):
        instance = CoflowInstance(coflows=[Coflow(flows=(Flow("x", "y", size=1.0),))])
        plan = SimulationPlan(paths={(0, 0): ("y", "z")}, order=[(0, 0)], name="broken")
        with pytest.raises(ValueError, match="endpoints"):
            FlowLevelSimulator(triangle).run(instance, plan)

    def test_partial_order_is_completed(self, triangle):
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=1.0),)),
                Coflow(flows=(Flow("y", "z", size=1.0),)),
            ]
        )
        plan = plan_for(instance, triangle, order=[(1, 0)])
        result = FlowLevelSimulator(triangle).run(instance, plan)
        assert set(result.flow_completion) == {(0, 0), (1, 0)}

    def test_priority_rank(self, triangle):
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=1.0),)),
                Coflow(flows=(Flow("y", "z", size=1.0),)),
            ]
        )
        plan = plan_for(instance, triangle, order=[(1, 0), (0, 0)])
        assert plan.priority_rank() == {(1, 0): 0, (0, 0): 1}


RUN_PATHS = ["run", "run_reference"]


class _StarvingAllocator(RateAllocator):
    """Deliberately broken policy: grants nothing, ever (stall trigger)."""

    name = "starving"

    def allocate(self, residual, flows):
        return {key: 0.0 for key, _edges, _weight in flows}


class TestActionableErrors:
    """Satellite bugfix: stall / event-cap errors name the stuck flows."""

    @pytest.mark.parametrize("path", RUN_PATHS)
    def test_event_cap_error_names_flows_and_saturated_edges(self, triangle, path):
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=1.0),)),
                Coflow(flows=(Flow("x", "y", size=1.0),)),
            ]
        )
        plan = plan_for(instance, triangle)
        simulate = getattr(FlowLevelSimulator(triangle), path)
        with pytest.raises(RuntimeError) as excinfo:
            simulate(instance, plan, max_events=1)
        message = str(excinfo.value)
        assert "event cap (1)" in message
        assert "(1, 0)" in message  # the flow still unfinished
        assert "release=0" in message
        assert "remaining=1" in message
        assert "saturated edges" in message and "'x', 'y'" in message

    @pytest.mark.parametrize("path", RUN_PATHS)
    def test_stall_error_names_the_unfinished_flows(self, triangle, path):
        instance = CoflowInstance(
            coflows=[Coflow(flows=(Flow("x", "y", size=2.0),))]
        )
        plan = plan_for(instance, triangle)
        simulate = getattr(FlowLevelSimulator(triangle), path)
        with pytest.raises(RuntimeError) as excinfo:
            simulate(instance, plan, allocator=_StarvingAllocator())
        message = str(excinfo.value)
        assert "stalled" in message
        assert "(0, 0)" in message
        assert "release=0" in message and "remaining=2" in message


class TestStartRequiresRealVolume:
    """Satellite bugfix: a vanishing transfer inside an epsilon-sized step
    must not count as the flow's start."""

    @pytest.mark.parametrize("path", RUN_PATHS)
    def test_epsilon_step_does_not_record_a_start(self, triangle, path):
        # L is released at t=1.0; the higher-priority H follows 1.5e-12
        # later, forcing an epsilon-sized step in which L moves ~1.5e-12
        # volume before being preempted until t~2.  L's recorded start must
        # be its real start (~2.0), not the vanishing dribble at 1.0.
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=1.0, release_time=1.0 + 1.5e-12),)),
                Coflow(flows=(Flow("x", "y", size=1.0, release_time=1.0),)),
            ]
        )
        plan = plan_for(instance, triangle, order=[(0, 0), (1, 0)])
        result = getattr(FlowLevelSimulator(triangle), path)(instance, plan)
        assert result.flow_start[(0, 0)] == pytest.approx(1.0, abs=1e-6)
        # Regression: this used to report ~1.0 (the dribble step).
        assert result.flow_start[(1, 0)] == pytest.approx(2.0, abs=1e-6)
        assert result.flow_completion[(1, 0)] == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("path", RUN_PATHS)
    def test_normal_start_times_are_unchanged(self, triangle, path):
        instance = CoflowInstance(
            coflows=[Coflow(flows=(Flow("x", "y", size=2.0, release_time=1.0),))]
        )
        plan = plan_for(instance, triangle)
        result = getattr(FlowLevelSimulator(triangle), path)(instance, plan)
        assert result.flow_start[(0, 0)] == pytest.approx(1.0)


class TestSlowdownMetrics:
    def test_slowdowns_on_an_uncontended_instance_are_one(self, triangle):
        instance = CoflowInstance(
            coflows=[Coflow(flows=(Flow("x", "y", size=3.0),))]
        )
        result = FlowLevelSimulator(triangle).run(instance, plan_for(instance, triangle))
        assert result.coflow_slowdowns == {0: pytest.approx(1.0)}
        assert result.mean_slowdown == pytest.approx(1.0)
        assert result.max_slowdown == pytest.approx(1.0)
        assert result.metrics()["mean_slowdown"] == pytest.approx(1.0)

    def test_contention_doubles_the_trailing_coflow_slowdown(self, triangle):
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=1.0),)),
                Coflow(flows=(Flow("x", "y", size=1.0),)),
            ]
        )
        result = FlowLevelSimulator(triangle).run(instance, plan_for(instance, triangle))
        assert result.coflow_slowdowns[0] == pytest.approx(1.0)
        assert result.coflow_slowdowns[1] == pytest.approx(2.0)
        assert result.max_slowdown == pytest.approx(2.0)
        assert result.metrics()["max_slowdown"] == pytest.approx(2.0)
