"""Cross-model integration tests and randomized feasibility sweeps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import scheme_from_spec
from repro.circuit import GivenPathsScheduler, PathsNotGivenScheduler
from repro.core import Coflow, CoflowInstance, Flow, topologies
from repro.packet import schedule_packet_coflows
from repro.sim import FlowLevelSimulator
from repro.workloads import CoflowGenerator, WorkloadConfig, mapreduce_shuffle


def test_shuffle_workload_end_to_end():
    """The motivating MapReduce shuffle runs through the whole pipeline."""
    network = topologies.fat_tree(4)
    instance = mapreduce_shuffle(
        network, num_jobs=2, mappers_per_job=3, reducers_per_job=3, bytes_per_pair=2.0
    )
    scheme = scheme_from_spec("LP-Based")
    plan = scheme.plan(instance, network)
    result = FlowLevelSimulator(network).run(instance, plan)
    assert result.weighted_completion_time >= scheme.last_plan.lower_bound - 1e-6
    # the realised schedule is feasible
    routed = instance.with_paths({fid: list(p) for fid, p in plan.paths.items()})
    result.schedule.validate(routed, network)


def test_circuit_and_packet_models_agree_on_unit_instances():
    """A unit-size circuit instance and its packet twin have comparable bounds."""
    network = topologies.ring(5)
    endpoints = [("host_0", "host_2"), ("host_1", "host_3"), ("host_4", "host_1")]
    instance = CoflowInstance(
        coflows=[Coflow(flows=(Flow(s, d, size=1.0),), weight=1.0) for s, d in endpoints]
    )
    circuit = PathsNotGivenScheduler(instance, network, seed=0)
    plan, circuit_result = circuit.schedule()
    packet_outcome = schedule_packet_coflows(instance, network, seed=0)
    # Packet schedules are a restriction of circuit schedules (store-and-forward,
    # one packet per edge per step), so the packet objective can never beat the
    # circuit LP lower bound.
    assert packet_outcome.objective >= plan.lower_bound - 1e-6
    assert circuit_result.objective >= plan.lower_bound - 1e-6


def test_rounded_and_simulated_backends_rank_consistently():
    """The simulator's LP-order policy never does worse than the interval rounding."""
    network = topologies.fat_tree(4)
    instance = CoflowGenerator(
        network, WorkloadConfig(num_coflows=4, coflow_width=4, seed=17)
    ).instance()
    scheduler = PathsNotGivenScheduler(instance, network, seed=1)
    plan, rounded = scheduler.schedule()
    sim_plan = scheme_from_spec("pipeline(router=lp(seed=1), order=lp)").plan(
        instance, network
    )
    simulated = FlowLevelSimulator(network).run(instance, sim_plan)
    assert simulated.weighted_completion_time <= rounded.objective + 1e-6


@given(
    num_coflows=st.integers(min_value=1, max_value=4),
    width=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=15, deadline=None)
def test_given_paths_rounding_always_feasible(num_coflows, width, seed):
    """Property: the Section-2.1 rounding always yields a feasible schedule."""
    network = topologies.fat_tree(4)
    config = WorkloadConfig(
        num_coflows=num_coflows, coflow_width=width, seed=seed, mean_flow_size=3.0
    )
    instance = CoflowGenerator(network, config).instance()
    routed = instance.with_paths(
        {
            fid: network.shortest_path(
                instance.flow(fid).source, instance.flow(fid).destination
            )
            for fid in instance.flow_ids()
        }
    )
    result = GivenPathsScheduler(routed, network).schedule()
    result.schedule.validate(routed, network)  # raises on any violation
    assert result.objective >= result.lower_bound - 1e-6


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=10, deadline=None)
def test_simulator_never_violates_capacities(seed):
    """Property: the realised simulator schedule is always capacity-feasible."""
    network = topologies.fat_tree(4)
    instance = CoflowGenerator(
        network, WorkloadConfig(num_coflows=3, coflow_width=4, seed=seed)
    ).instance()
    baseline = scheme_from_spec(
        f"pipeline(router=random(seed={seed}), order=random(seed={seed}))"
    )
    plan = baseline.plan(instance, network)
    result = FlowLevelSimulator(network).run(instance, plan)
    routed = instance.with_paths({fid: list(p) for fid, p in plan.paths.items()})
    result.schedule.validate(routed, network)
