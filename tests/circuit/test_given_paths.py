"""Tests for the Section-2.1 algorithm (circuit coflows with given paths)."""

import pytest

from repro.circuit import GivenPathsLP, GivenPathsScheduler, feasible_rounding_parameters
from repro.circuit.given_paths import DEFAULT_EPSILON, lower_bound
from repro.core import Coflow, CoflowInstance, Flow, IntervalGrid, RoundingParameters, topologies
from repro.core.schedule import ScheduleError


@pytest.fixture
def triangle():
    return topologies.triangle()


@pytest.fixture
def figure1_instance():
    """The Figure-1 instance: coflows A (2 flows), B, C on the triangle.

    A1 and C share the (x, y) edge; A2 and B share the (y, z) edge — the
    configuration under which the paper's three schedules cost 10, 8 and 7.
    """
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


@pytest.fixture
def tree_instance():
    """Unique-path instance on a small tree (paths given by construction)."""
    net = topologies.tree(depth=2, fanout=2)
    hosts = [n for n in net.nodes() if str(n).startswith("host")]
    flows = []
    for k in range(3):
        src, dst = hosts[k % len(hosts)], hosts[(k + 1) % len(hosts)]
        flows.append(
            Flow(src, dst, size=1.0 + k, path=net.shortest_path(src, dst))
        )
    instance = CoflowInstance(
        coflows=[Coflow(flows=(f,), weight=1.0 + i) for i, f in enumerate(flows)]
    )
    return net, instance


class TestLPRelaxation:
    def test_requires_paths(self, triangle):
        instance = CoflowInstance(coflows=[Coflow(flows=(Flow("x", "y"),))])
        with pytest.raises(ValueError, match="fixed path"):
            GivenPathsLP(instance, triangle)

    def test_path_must_exist_in_network(self, triangle):
        instance = CoflowInstance(
            coflows=[Coflow(flows=(Flow("x", "ghost", path=["x", "ghost"]),))]
        )
        with pytest.raises(ValueError):
            GivenPathsLP(instance, triangle)

    def test_fractions_sum_to_one(self, figure1_instance, triangle):
        relaxation = GivenPathsLP(figure1_instance, triangle).relax()
        for fid, fractions in relaxation.fractions.items():
            assert fractions.sum() == pytest.approx(1.0, abs=1e-6)
            assert (fractions >= -1e-9).all()

    def test_capacity_respected_per_interval(self, figure1_instance, triangle):
        relaxation = GivenPathsLP(figure1_instance, triangle).relax()
        grid = relaxation.grid
        # flows (0,1) and (1,0) share edge (y, z) with capacity 1
        for ell in range(grid.num_intervals):
            rate = (
                figure1_instance.flow((0, 1)).size * relaxation.fractions[(0, 1)][ell]
                + figure1_instance.flow((1, 0)).size * relaxation.fractions[(1, 0)][ell]
            ) / grid.length(ell)
            assert rate <= 1.0 + 1e-6

    def test_lower_bound_below_optimum(self, figure1_instance, triangle):
        # The optimal total completion time of the Figure-1 instance is 7.
        assert lower_bound(figure1_instance, triangle) <= 7.0 + 1e-6

    def test_coflow_completion_dominates_flows(self, figure1_instance, triangle):
        relaxation = GivenPathsLP(figure1_instance, triangle).relax()
        for (i, j), c in relaxation.flow_completion.items():
            assert relaxation.coflow_completion[i] >= c - 1e-6

    def test_release_times_respected_in_lp(self, triangle):
        instance = CoflowInstance(
            coflows=[
                Coflow(
                    flows=(Flow("x", "y", size=1.0, release_time=4.0, path=["x", "y"]),)
                )
            ]
        )
        relaxation = GivenPathsLP(instance, triangle).relax()
        grid = relaxation.grid
        fractions = relaxation.fractions[(0, 0)]
        for ell in range(grid.num_intervals):
            if grid.right(ell) < 4.0 - 1e-9:
                assert fractions[ell] == pytest.approx(0.0, abs=1e-9)
        # completion proxy cannot be earlier than some positive value
        assert relaxation.flow_completion[(0, 0)] > 0.0

    def test_flow_order_deterministic(self, figure1_instance, triangle):
        rel1 = GivenPathsLP(figure1_instance, triangle).relax()
        rel2 = GivenPathsLP(figure1_instance, triangle).relax()
        assert rel1.flow_order() == rel2.flow_order()
        assert set(rel1.flow_order()) == set(figure1_instance.flow_ids())

    def test_weights_scale_objective(self, triangle):
        def build(weight):
            return CoflowInstance(
                coflows=[
                    Coflow(flows=(Flow("x", "y", size=2.0, path=["x", "y"]),), weight=weight)
                ]
            )

        obj1 = GivenPathsLP(build(1.0), triangle).relax().objective
        obj3 = GivenPathsLP(build(3.0), triangle).relax().objective
        assert obj3 == pytest.approx(3.0 * obj1, rel=1e-6)

    def test_release_within_tolerance_past_the_horizon_solves(self, triangle):
        """A flow released past tau_L by less than the grid's 1e-9
        tolerance runs in the last interval instead of making the LP
        infeasible."""
        grid = IntervalGrid(DEFAULT_EPSILON, horizon=10.0)
        release = grid.boundaries[-1] + 5e-10
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=0.5, release_time=release, path=["x", "y"]),))
            ]
        )
        relaxation = GivenPathsLP(instance, triangle, horizon=10.0).relax()
        fractions = relaxation.fractions[(0, 0)]
        assert fractions[-1] == pytest.approx(1.0, abs=1e-6)
        assert relaxation.objective >= release


class TestRounding:
    def test_schedule_is_feasible(self, figure1_instance, triangle):
        result = GivenPathsScheduler(figure1_instance, triangle).schedule()
        result.schedule.validate(figure1_instance, triangle)  # no exception

    def test_objective_at_least_lower_bound(self, figure1_instance, triangle):
        result = GivenPathsScheduler(figure1_instance, triangle).schedule()
        assert result.objective >= result.lower_bound - 1e-6

    def test_measured_ratio_within_provable_blowup(self, figure1_instance, triangle):
        scheduler = GivenPathsScheduler(figure1_instance, triangle)
        result = scheduler.schedule()
        assert result.approximation_ratio <= scheduler.parameters.blowup_factor + 1e-6

    def test_tree_instance_end_to_end(self, tree_instance):
        net, instance = tree_instance
        result = GivenPathsScheduler(instance, net).schedule()
        result.schedule.validate(instance, net)
        assert result.objective >= result.lower_bound - 1e-6

    def test_release_times_respected_in_schedule(self, triangle):
        instance = CoflowInstance(
            coflows=[
                Coflow(
                    flows=(Flow("x", "y", size=1.0, release_time=3.0, path=["x", "y"]),)
                )
            ]
        )
        result = GivenPathsScheduler(instance, triangle).schedule()
        assert result.schedule.start_time((0, 0)) >= 3.0 - 1e-9

    def test_target_interval_is_alpha_plus_displacement(self, figure1_instance, triangle):
        scheduler = GivenPathsScheduler(figure1_instance, triangle)
        relaxation = scheduler.relax()
        result = scheduler.round(relaxation)
        params = scheduler.parameters
        grid = relaxation.grid
        for fid, target in result.target_intervals.items():
            h = grid.alpha_interval(relaxation.fractions[fid], params.alpha)
            assert target == h + params.displacement

    def test_strict_rejects_unsafe_parameters(self, figure1_instance, triangle):
        unsafe = RoundingParameters(alpha=0.5, displacement=3, epsilon=0.5436)
        scheduler = GivenPathsScheduler(
            figure1_instance, triangle, parameters=unsafe, strict=True
        )
        with pytest.raises(ScheduleError, match="alpha"):
            scheduler.schedule()

    def test_non_strict_allows_paper_parameters(self, figure1_instance, triangle):
        unsafe = RoundingParameters(alpha=0.5, displacement=3, epsilon=0.5436)
        scheduler = GivenPathsScheduler(
            figure1_instance, triangle, parameters=unsafe, strict=False
        )
        result = scheduler.schedule()
        assert result.objective > 0.0

    def test_zero_size_flow_handled(self, triangle):
        instance = CoflowInstance(
            coflows=[
                Coflow(
                    flows=(
                        Flow("x", "y", size=0.0, path=["x", "y"]),
                        Flow("y", "z", size=1.0, path=["y", "z"]),
                    )
                )
            ]
        )
        result = GivenPathsScheduler(instance, triangle).schedule()
        assert result.objective >= 0.0

    def test_lp_order_policy(self, figure1_instance, triangle):
        order = GivenPathsScheduler(figure1_instance, triangle).lp_order()
        assert set(order) == set(figure1_instance.flow_ids())


class TestFeasibleParameters:
    def test_default_parameters_satisfy_strong_condition(self):
        params = feasible_rounding_parameters()
        margin = (
            params.alpha
            * params.epsilon
            * (1.0 + params.epsilon) ** (params.displacement - 1)
        )
        assert margin >= 1.0 - 1e-9

    def test_default_blowup_reasonable(self):
        assert feasible_rounding_parameters().blowup_factor < 30.0
