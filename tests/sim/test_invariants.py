"""Property-based invariants of the flow-level simulator.

Scaling the evaluation (parallel sweeps over many scenario families) demands
trust in the simulator, so these tests replay randomized workloads on seeded
``random_graph`` topologies and check the three structural guarantees the
Section-4.1 methodology relies on:

1. **capacity feasibility** — at no point in time does the sum of granted
   rates on an edge exceed its capacity;
2. **work conservation** — whenever a released, unfinished flow receives no
   bandwidth, some edge on its path is saturated by higher-priority flows
   (no idle capacity while a runnable flow exists);
3. **completion** — every released flow completes, no earlier than its
   release time and no earlier than its intrinsic lower bound
   (size / bottleneck capacity after release).

The checks reconstruct the rate allocation from the simulator's recorded
:class:`~repro.core.schedule.CircuitSchedule` segments, so they validate the
simulator's *output*, not its internal bookkeeping.
"""

import math

import pytest

from repro.baselines import scheme_from_spec
from repro.core import topologies
from repro.core.network import path_edges
from repro.sim import FlowLevelSimulator
from repro.workloads import CoflowGenerator, WorkloadConfig

EPS = 1e-7

#: (topology seed, workload family) grid: every case is deterministic, so a
#: failure reproduces from its parameter id alone.
CASES = [
    pytest.param(seed, fdist, edist, id=f"seed{seed}-{fdist}-{edist}")
    for seed, (fdist, edist) in enumerate(
        [
            ("poisson", "uniform"),
            ("poisson", "incast"),
            ("pareto", "uniform"),
            ("pareto", "skewed"),
            ("facebook", "uniform"),
            ("facebook", "incast"),
            ("poisson", "skewed"),
            ("pareto", "incast"),
        ]
    )
]

#: Scheme specs, seeded per case where the composition draws randomness.
SCHEMES = {
    "baseline": "pipeline(router=random(seed={seed}), order=random(seed={seed}))",
    "schedule-only": "pipeline(router=random(seed={seed}), order=mct)",
    "route-only": "Route-only",
}


def simulate_case(seed, flow_sizes, endpoints, scheme_key="baseline"):
    network = topologies.random_graph(
        6, edge_probability=0.35, capacity_range=(1.0, 3.0), seed=seed
    )
    config = WorkloadConfig(
        num_coflows=3,
        coflow_width=4,
        mean_flow_size=3.0,
        release_rate=2.0,
        seed=100 + seed,
        flow_size_distribution=flow_sizes,
        endpoint_distribution=endpoints,
    )
    instance = CoflowGenerator(network, config).instance()
    scheme = scheme_from_spec(SCHEMES[scheme_key].format(seed=seed))
    plan = scheme.plan(instance, network)
    result = FlowLevelSimulator(network).run(instance, plan)
    return network, instance, result


def interval_grid(instance, result):
    """All (start, end) intervals between consecutive simulator events."""
    times = {0.0}
    for _, _, flow in instance.iter_flows():
        times.add(flow.release_time)
    for fid in result.schedule.flow_ids():
        for segment in result.schedule.segments(fid):
            times.add(segment.start)
            times.add(segment.end)
    ordered = sorted(times)
    return [(a, b) for a, b in zip(ordered, ordered[1:]) if b - a > EPS]


def rates_in_interval(result, start, end):
    """Per-flow transfer rate inside (start, end), from recorded segments."""
    mid = 0.5 * (start + end)
    rates = {}
    for fid in result.schedule.flow_ids():
        for segment in result.schedule.segments(fid):
            if segment.start <= mid <= segment.end:
                rates[fid] = rates.get(fid, 0.0) + segment.rate
    return rates


@pytest.mark.parametrize("seed,flow_sizes,endpoints", CASES)
def test_edge_capacities_never_exceeded(seed, flow_sizes, endpoints):
    network, instance, result = simulate_case(seed, flow_sizes, endpoints)
    capacities = network.capacities()
    for start, end in interval_grid(instance, result):
        usage = {}
        for fid, rate in rates_in_interval(result, start, end).items():
            for edge in path_edges(list(result.schedule.path(fid))):
                usage[edge] = usage.get(edge, 0.0) + rate
        for edge, used in usage.items():
            assert used <= capacities[edge] + EPS, (
                f"edge {edge} over capacity in [{start}, {end}]: "
                f"{used} > {capacities[edge]}"
            )


@pytest.mark.parametrize("seed,flow_sizes,endpoints", CASES)
def test_work_conserving(seed, flow_sizes, endpoints):
    network, instance, result = simulate_case(seed, flow_sizes, endpoints)
    capacities = network.capacities()
    release = {fid: instance.flow(fid).release_time for fid in instance.flow_ids()}
    for start, end in interval_grid(instance, result):
        rates = rates_in_interval(result, start, end)
        residual = dict(capacities)
        for fid, rate in rates.items():
            for edge in path_edges(list(result.schedule.path(fid))):
                residual[edge] -= rate
        for fid in instance.flow_ids():
            runnable = (
                release[fid] <= start + EPS
                and result.flow_completion[fid] >= end - EPS
            )
            if not runnable or rates.get(fid, 0.0) > EPS:
                continue
            # A starved runnable flow must be blocked by a saturated edge.
            bottleneck = min(
                residual[edge]
                for edge in path_edges(list(result.schedule.path(fid)))
            )
            assert bottleneck <= EPS, (
                f"flow {fid} idle in [{start}, {end}] with "
                f"{bottleneck} spare capacity along its whole path"
            )


@pytest.mark.parametrize("seed,flow_sizes,endpoints", CASES)
def test_all_released_flows_complete(seed, flow_sizes, endpoints):
    network, instance, result = simulate_case(seed, flow_sizes, endpoints)
    flow_ids = list(instance.flow_ids())
    assert set(result.flow_completion) == set(flow_ids)
    for fid in flow_ids:
        flow = instance.flow(fid)
        completion = result.flow_completion[fid]
        assert math.isfinite(completion)
        assert completion >= flow.release_time - EPS
        # No flow can beat its own bottleneck transfer time.
        bottleneck = network.bottleneck_capacity(list(result.schedule.path(fid)))
        assert completion >= flow.release_time + flow.size / bottleneck - EPS


@pytest.mark.parametrize("scheme_key", sorted(SCHEMES))
def test_invariants_hold_across_schemes(scheme_key):
    # The invariants are properties of the simulator, not of one scheme's
    # plans; spot-check the full battery on each heuristic.
    network, instance, result = simulate_case(
        3, "pareto", "uniform", scheme_key=scheme_key
    )
    capacities = network.capacities()
    for start, end in interval_grid(instance, result):
        usage = {}
        for fid, rate in rates_in_interval(result, start, end).items():
            for edge in path_edges(list(result.schedule.path(fid))):
                usage[edge] = usage.get(edge, 0.0) + rate
        assert all(used <= capacities[e] + EPS for e, used in usage.items())
    assert set(result.flow_completion) == set(instance.flow_ids())
