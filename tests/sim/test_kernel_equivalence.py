"""Every kernel tier is numerically identical to the reference event loop.

``FlowLevelSimulator.run`` (a one-epoch session of the Python kernel tier
and, where a C toolchain exists, of the compiled jit tier) and
``run_reference`` (the original dict-based loop, kept as the executable
specification) must agree *exactly* — same arithmetic on the same values in
the same order — across random topologies x workload families x every rate
allocator.  These
property tests replay seeded scenarios through all paths (a 3-way check
when the jit tier is available) and compare completion times bit-for-bit,
plus the realised schedule volumes (where segment coalescing legitimately
reorders float additions, so a tight tolerance applies).  A kernel run's
result builds its schedule and start times only when they are read, and
what it builds is held to the reference loop's too.

The online engine's anchor property rides along: online simulation under a
scheduler that never changes the plan (``StaticPlanReplanner``) reproduces
the static simulation up to splice-point rounding — on every backend, since
the jit tier implements the same pause-at-deadline splice semantics — and a
kernel session paused at deadlines reproduces its uninterrupted run
bit-for-bit on each tier.
"""

import dataclasses
import math

import pytest

from repro.baselines import scheme_from_spec
from repro.core import topologies
from repro.core.schedule import CircuitSchedule
from repro.sim import (
    ALLOCATORS,
    FlowLevelSimulator,
    StaticPlanReplanner,
    StreamingScheduler,
    kernel_jit,
    make_kernel,
)
from repro.sim.simulator import load_plan
from repro.workloads import CoflowGenerator, WorkloadConfig

#: The kernel tiers under test; the jit tier drops out (skip, not fail) on
#: machines without a C toolchain.
BACKENDS_UNDER_TEST = [
    "array",
    pytest.param(
        "jit",
        marks=pytest.mark.skipif(
            not kernel_jit.available(), reason="compiled kernel tier unavailable"
        ),
    ),
]

#: (topology seed, size family, endpoint family, scheme spec) grid: every
#: case is deterministic, so a failure reproduces from its parameter id alone.
CASES = [
    pytest.param(seed, fdist, edist, scheme, id=f"seed{seed}-{fdist}-{edist}-{key}")
    for seed, (fdist, edist, scheme, key) in enumerate(
        [
            ("poisson", "uniform", "Baseline", "baseline"),
            ("poisson", "incast", "pipeline(router=random(seed=1), order=mct)", "schedule-only"),
            ("pareto", "uniform", "Route-only", "route-only"),
            ("pareto", "skewed", "SEBF", "sebf"),
            ("facebook", "uniform", "pipeline(router=random(seed=2), order=random(seed=2))", "baseline"),
            ("facebook", "incast", "SEBF", "sebf"),
        ]
    )
]


def build_case(seed, flow_sizes, endpoints, scheme):
    network = topologies.random_graph(
        6, edge_probability=0.35, capacity_range=(1.0, 3.0), seed=seed
    )
    config = WorkloadConfig(
        num_coflows=3,
        coflow_width=4,
        mean_flow_size=3.0,
        release_rate=2.0,
        coflow_arrival_rate=0.5 if seed % 2 else None,
        seed=700 + seed,
        flow_size_distribution=flow_sizes,
        endpoint_distribution=endpoints,
    )
    instance = CoflowGenerator(network, config).instance()
    plan = scheme_from_spec(scheme).plan(instance, network)
    return network, instance, plan


def assert_identical(kernel, reference):
    """Kernel and reference results agree exactly (volumes: tight approx)."""
    assert kernel.events == reference.events
    assert set(kernel.flow_completion) == set(reference.flow_completion)
    for fid, completion in reference.flow_completion.items():
        assert kernel.flow_completion[fid] == completion, fid
    assert set(kernel.flow_start) == set(reference.flow_start)
    for fid, start in reference.flow_start.items():
        assert kernel.flow_start[fid] == start, fid
    for fid in reference.flow_completion:
        assert kernel.schedule.delivered_volume(fid) == pytest.approx(
            reference.schedule.delivered_volume(fid), rel=1e-9, abs=1e-9
        ), fid
    assert kernel.coflow_slowdowns == pytest.approx(reference.coflow_slowdowns)


@pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
@pytest.mark.parametrize("seed,flow_sizes,endpoints,scheme", CASES)
@pytest.mark.parametrize("allocator", sorted(ALLOCATORS))
def test_kernel_matches_reference(seed, flow_sizes, endpoints, scheme, allocator, backend):
    network, instance, plan = build_case(seed, flow_sizes, endpoints, scheme)
    plan = dataclasses.replace(plan, allocator=allocator)
    simulator = FlowLevelSimulator(network)
    kernel = simulator.run(instance, plan, backend=backend)
    reference = simulator.run_reference(instance, plan)
    assert_identical(kernel, reference)
    kernel.schedule.validate(instance, network)


@pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
@pytest.mark.parametrize("seed,flow_sizes,endpoints,scheme", CASES)
def test_schedule_and_starts_are_built_on_first_access(
    seed, flow_sizes, endpoints, scheme, backend, monkeypatch
):
    """A run builds no schedule until one is read, then builds it once;
    the schedule and the starts it builds are the reference loop's."""
    network, instance, plan = build_case(seed, flow_sizes, endpoints, scheme)
    simulator = FlowLevelSimulator(network)
    reference = simulator.run_reference(instance, plan)
    built = []
    original = CircuitSchedule.__init__

    def spy(schedule):
        built.append(schedule)
        original(schedule)

    monkeypatch.setattr(CircuitSchedule, "__init__", spy)
    result = simulator.run(instance, plan, backend=backend)
    assert result.metrics() and result.events == reference.events
    assert built == []
    assert result.flow_start == reference.flow_start
    assert list(result.flow_start) == [
        fid for fid in instance.flow_ids() if fid in reference.flow_start
    ]
    assert built == []
    schedule = result.schedule
    assert result.schedule is schedule
    assert built == [schedule]
    assert schedule.flow_ids() == reference.schedule.flow_ids()
    for fid in instance.flow_ids():
        assert schedule.path(fid) == reference.schedule.path(fid), fid
        assert schedule.delivered_volume(fid) == pytest.approx(
            reference.schedule.delivered_volume(fid), rel=1e-9, abs=1e-9
        ), fid
        if fid in reference.flow_start:
            assert schedule.start_time(fid) == reference.schedule.start_time(fid)
    schedule.validate(instance, network)


@pytest.mark.parametrize("seed,flow_sizes,endpoints,scheme", CASES)
def test_jit_segments_are_bit_identical_to_array(seed, flow_sizes, endpoints, scheme):
    """Beyond completion times: the realised segments agree bit-for-bit."""
    if not kernel_jit.available():
        pytest.skip("compiled kernel tier unavailable")
    network, instance, plan = build_case(seed, flow_sizes, endpoints, scheme)
    simulator = FlowLevelSimulator(network)
    array = simulator.run(instance, plan, backend="array")
    jit = simulator.run(instance, plan, backend="jit")
    assert array.flow_completion == jit.flow_completion
    assert array.flow_start == jit.flow_start
    assert array.events == jit.events
    for fid in instance.flow_ids():
        assert array.schedule.segments(fid) == jit.schedule.segments(fid), fid


@pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
@pytest.mark.parametrize("seed,flow_sizes,endpoints,scheme", CASES)
def test_online_with_frozen_plan_equals_static(
    seed, flow_sizes, endpoints, scheme, backend, monkeypatch
):
    monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
    network, instance, plan = build_case(seed, flow_sizes, endpoints, scheme)
    static = FlowLevelSimulator(network).run(instance, plan)
    online = StreamingScheduler(network, StaticPlanReplanner(plan)).run(instance)
    assert set(online.flow_completion) == set(static.flow_completion)
    for fid, completion in static.flow_completion.items():
        assert online.flow_completion[fid] == pytest.approx(
            completion, rel=1e-9, abs=1e-9
        ), fid
    online.schedule.validate(instance, network)
    assert online.weighted_completion_time == pytest.approx(
        static.weighted_completion_time, rel=1e-9
    )


def test_kernel_on_leaf_spine_benchmark_shape():
    """Exact agreement on the benchmark-style instance (staggered arrivals)."""
    network = topologies.leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=4)
    config = WorkloadConfig(
        num_coflows=5,
        coflow_width=8,
        mean_flow_size=5.0,
        release_rate=1.0,
        coflow_arrival_rate=0.2,
        seed=31,
    )
    instance = CoflowGenerator(network, config).instance()
    plan = scheme_from_spec("SEBF").plan(instance, network)
    simulator = FlowLevelSimulator(network)
    assert_identical(simulator.run(instance, plan), simulator.run_reference(instance, plan))


def _pause_resume_case():
    network = topologies.leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
    config = WorkloadConfig(
        num_coflows=3, coflow_width=3, mean_flow_size=2.0, release_rate=1.0, seed=5
    )
    instance = CoflowGenerator(network, config).instance()
    plan = scheme_from_spec("Baseline").plan(instance, network).normalized(instance)
    return network, instance, plan


@pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
def test_pause_and_resume_matches_uninterrupted_run(backend):
    """run(until=...) splicing reproduces an uninterrupted run of the same
    kernel tier: completions, starts and segments, bit-for-bit."""
    network, instance, plan = _pause_resume_case()

    def session():
        kernel = make_kernel(network, plan.allocator, backend=backend)
        load_plan(kernel, instance, plan)
        return kernel

    whole = session()
    assert whole.run()
    paused = session()
    assert type(paused) is type(whole)
    for deadline in (0.5, 1.0, 1.7, 2.5):
        assert not paused.run(until=deadline)
    assert paused.run()
    assert paused.harvest_epoch() == whole.harvest_epoch()
    assert dict(paused.drain_all_segments()) == dict(whole.drain_all_segments())
