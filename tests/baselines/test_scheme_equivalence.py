"""Legacy scheme names are bit-identical to their pipeline compositions.

The scheme layer was redesigned from one hand-written ``Scheme`` subclass
per evaluation cell into Router x Orderer x Allocator pipelines
(:mod:`repro.baselines.pipeline`); every legacy name now resolves through
the spec registry to a composition.  This suite keeps the pre-refactor
implementations alive as *executable references* — verbatim copies of the
deleted ``plan()`` bodies — and asserts, across seeded topology x workload
families, that each legacy name produces **bit-identical**
``SimulationPlan``s (paths and order compared exactly) and bit-identical
``SimulationResult``s (completion times and metrics compared exactly, no
tolerance) to its reference.  The online wrappers ride along: the
``online=true`` flag must reproduce the former ``Online*`` wrappers'
re-planning runs exactly, replayed here on a per-arrival
:class:`~repro.sim.StreamingScheduler` session driven directly.

The legacy plans route through :mod:`.reference_routing`, the routers as
they stood before candidate sets were memoized on the network, so the
memoized edge-id routers are checked against an independent copy.
"""

import random

import pytest

from repro.analysis.artifacts import build_schemes
from repro.baselines import (
    SCHEME_ALIASES,
    PipelineScheme,
    load_balanced_route,
    random_route,
    respect_given_paths,
    scheme_from_spec,
)
from repro.circuit.algorithm import PathsNotGivenScheduler
from repro.circuit.given_paths import DEFAULT_EPSILON, GivenPathsLP
from repro.core import topologies
from repro.core.network import path_edges
from repro.sim import FlowLevelSimulator, SimulationPlan, StreamingScheduler
from repro.workloads import CoflowGenerator, WorkloadConfig

from . import reference_routing


# ----------------------------------------------------- legacy reference plans
# Verbatim copies of the pre-refactor Scheme.plan() bodies (PR 4 state).

def legacy_baseline_plan(instance, network, seed=0, max_paths=16):
    """The deleted BaselineScheme.plan: one rng routes then shuffles."""
    rng = random.Random(seed)
    paths = reference_routing.random_route(instance, network, rng, max_paths=max_paths)
    order = list(instance.flow_ids())
    rng.shuffle(order)
    return SimulationPlan(paths=paths, order=order, name="Baseline")


def legacy_schedule_only_plan(instance, network, seed=0, max_paths=16):
    """The deleted ScheduleOnlyScheme.plan."""
    rng = random.Random(seed)
    paths = reference_routing.random_route(instance, network, rng, max_paths=max_paths)

    def min_completion(fid):
        flow = instance.flow(fid)
        bandwidth = network.bottleneck_capacity(list(paths[fid]))
        return flow.release_time + flow.size / bandwidth

    order = sorted(instance.flow_ids(), key=lambda fid: (min_completion(fid), fid))
    return SimulationPlan(paths=paths, order=order, name="Schedule-only")


def legacy_route_only_plan(instance, network, max_paths=16):
    """The deleted RouteOnlyScheme.plan."""
    paths = reference_routing.load_balanced_route(
        instance, network, max_paths=max_paths
    )
    return SimulationPlan(
        paths=paths, order=list(instance.flow_ids()), name="Route-only"
    )


def legacy_sebf_plan(instance, network, max_paths=16):
    """The deleted SEBFScheme.plan."""
    paths = reference_routing.load_balanced_route(
        instance, network, max_paths=max_paths
    )

    def coflow_bottleneck(index):
        loads = {}
        for j, flow in enumerate(instance[index].flows):
            for e in path_edges(list(paths[(index, j)])):
                loads[e] = loads.get(e, 0.0) + flow.size / network.capacity(*e)
        bottleneck = max(loads.values()) if loads else 0.0
        return instance[index].release_time + bottleneck

    coflow_order = sorted(
        range(len(instance.coflows)), key=lambda i: (coflow_bottleneck(i), i)
    )
    order = []
    for i in coflow_order:
        order.extend(
            sorted(
                ((i, j) for j in range(len(instance[i].flows))),
                key=lambda fid: (-instance.flow(fid).size, fid),
            )
        )
    return SimulationPlan(paths=paths, order=order, name="SEBF")


def legacy_lp_based_plan(instance, network, seed=0):
    """The deleted LPBasedScheme.plan (defaults of the registry entry)."""
    scheduler = PathsNotGivenScheduler(
        instance.without_paths(),
        network,
        formulation="path",
        max_candidate_paths=16,
        seed=seed,
        path_selection="thickest",
    )
    routing_plan = scheduler.route()
    return SimulationPlan(
        paths=dict(routing_plan.paths),
        order=list(routing_plan.flow_order),
        name="LP-Based",
    )


def legacy_lp_given_paths_plan(instance, network, epsilon=DEFAULT_EPSILON):
    """The deleted LPGivenPathsScheme.plan."""
    relaxation = GivenPathsLP(instance, network, epsilon=epsilon).relax()
    return SimulationPlan(
        paths=respect_given_paths(instance),
        order=relaxation.flow_order(),
        name="LP-Based (given paths)",
    )


#: Legacy scheme name -> reference plan function (built-in parameter
#: defaults, exactly like the registry aliases fix them).
LEGACY_PLANS = {
    "Baseline": legacy_baseline_plan,
    "Schedule-only": legacy_schedule_only_plan,
    "Route-only": legacy_route_only_plan,
    "SEBF": legacy_sebf_plan,
    "SEBF-MaxMin": legacy_sebf_plan,
    "SEBF-WFair": legacy_sebf_plan,
    "LP-Based": legacy_lp_based_plan,
}

#: Rate allocator each legacy name selected (the *-MaxMin/-WFair variants).
LEGACY_ALLOCATORS = {"SEBF-MaxMin": "max-min", "SEBF-WFair": "weighted"}

#: Online alias -> the reference plan its replanner invoked per arrival.
#: Every Online-* alias must appear here (enforced by TestRegistryCoverage).
ONLINE_LEGACY_PLANS = {
    "Online-SEBF": legacy_sebf_plan,
    "Online-Baseline": legacy_baseline_plan,
    "Online-Schedule-only": legacy_schedule_only_plan,
    "Online-Route-only": legacy_route_only_plan,
    "Online-LP-Based": legacy_lp_based_plan,
}


# ---------------------------------------------------------------- case grid

def build_case(topology_key, flow_sizes, endpoints, seed):
    """One deterministic (network, instance) pair of the equivalence grid."""
    if topology_key == "random":
        network = topologies.random_graph(
            6, edge_probability=0.35, capacity_range=(1.0, 3.0), seed=seed
        )
    elif topology_key == "leaf_spine":
        network = topologies.leaf_spine(
            num_leaves=2, num_spines=2, hosts_per_leaf=4
        )
    else:
        network = topologies.fat_tree(4)
    config = WorkloadConfig(
        num_coflows=3,
        coflow_width=4,
        mean_flow_size=3.0,
        release_rate=2.0,
        coflow_arrival_rate=0.5 if seed % 2 else None,
        seed=800 + seed,
        flow_size_distribution=flow_sizes,
        endpoint_distribution=endpoints,
    )
    return network, CoflowGenerator(network, config).instance()


CASES = [
    pytest.param(topo, fdist, edist, seed, id=f"{topo}-{fdist}-{edist}-{seed}")
    for seed, (topo, fdist, edist) in enumerate(
        [
            ("random", "poisson", "uniform"),
            ("random", "pareto", "skewed"),
            ("leaf_spine", "facebook", "incast"),
            ("fat_tree", "poisson", "uniform"),
        ]
    )
]

HEURISTIC_NAMES = sorted(set(LEGACY_PLANS) - {"LP-Based"})


def assert_bit_identical(instance, network, scheme, reference_plan):
    """Plans and simulated results must match exactly (no tolerance)."""
    plan = scheme.plan(instance, network)
    assert plan.paths == reference_plan.paths
    assert plan.order == reference_plan.order
    assert plan.allocator == reference_plan.allocator

    simulator = FlowLevelSimulator(network)
    result = scheme.simulate(instance, network, simulator)
    reference = simulator.run(instance, reference_plan)
    assert result.flow_completion == reference.flow_completion
    assert result.metrics() == reference.metrics()


class TestStaticEquivalence:
    """Every static legacy name == its pipeline alias, bit for bit."""

    @pytest.mark.parametrize("topo,fdist,edist,seed", CASES)
    @pytest.mark.parametrize("name", HEURISTIC_NAMES)
    def test_heuristics(self, name, topo, fdist, edist, seed):
        network, instance = build_case(topo, fdist, edist, seed)
        scheme = build_schemes([name])[0]
        reference = LEGACY_PLANS[name](instance, network)
        reference.allocator = LEGACY_ALLOCATORS.get(name, "greedy")
        assert_bit_identical(instance, network, scheme, reference)

    @pytest.mark.parametrize(
        "topo,fdist,edist,seed", CASES[:2], ids=["random-poisson", "random-pareto"]
    )
    def test_lp_based(self, topo, fdist, edist, seed):
        network, instance = build_case(topo, fdist, edist, seed)
        scheme = build_schemes(["LP-Based"])[0]
        reference = legacy_lp_based_plan(instance, network)
        assert_bit_identical(instance, network, scheme, reference)

    def test_lp_given_paths(self):
        network, instance = build_case("fat_tree", "poisson", "uniform", 3)
        routed = instance.with_paths(
            {
                fid: network.shortest_path(
                    instance.flow(fid).source, instance.flow(fid).destination
                )
                for fid in instance.flow_ids()
            }
        )
        scheme = scheme_from_spec("LP-Based (given paths)")
        reference = legacy_lp_given_paths_plan(routed, network)
        assert_bit_identical(routed, network, scheme, reference)


# ---------------------------------------------------------- router oracle

#: The lp-sweep fat-tree and both perfbench leaf-spines, each with a
#: smoke-sized workload: (topology, coflows, width).
ORACLE_CASES = [
    pytest.param("fat_tree(k=4)", 4, 8, id="fat_tree-k4"),
    pytest.param(
        "leaf_spine(num_leaves=8, num_spines=8, hosts_per_leaf=16)",
        10,
        5,
        id="leaf_spine-128",
    ),
    pytest.param(
        "leaf_spine(num_leaves=4, num_spines=2, hosts_per_leaf=2)",
        12,
        8,
        id="leaf_spine-8",
    ),
]


def oracle_case(topology, num_coflows, width, seed):
    """A fresh network plus an instance where every fifth flow has a path.

    The given paths come from ``all_shortest_paths``, which bypasses the
    network's candidate memo, so the network starts with an empty memo.
    """
    config = WorkloadConfig(
        num_coflows=num_coflows,
        coflow_width=width,
        mean_flow_size=3.0,
        coflow_arrival_rate=0.5,
        seed=900 + seed,
        topology=topology,
    )
    network = config.build_network()
    instance = CoflowGenerator(network, config).instance()
    given = {
        fid: network.all_shortest_paths(
            instance.flow(fid).source, instance.flow(fid).destination
        )[-1]
        for k, fid in enumerate(instance.flow_ids())
        if k % 5 == 0
    }
    return network, instance.with_paths(given)


class TestRouterOracle:
    """The memoized edge-id routers == the per-call-dict reference, cold and warm."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("topology,num_coflows,width", ORACLE_CASES)
    def test_balanced_paths_on_fresh_then_warm_memo(
        self, topology, num_coflows, width, seed
    ):
        network, instance = oracle_case(topology, num_coflows, width, seed)
        for memo in ("fresh", "warm"):
            paths = load_balanced_route(instance, network)
            expected = reference_routing.load_balanced_route(instance, network)
            assert list(paths.items()) == list(expected.items()), memo

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("topology,num_coflows,width", ORACLE_CASES)
    def test_random_paths_on_fresh_then_warm_memo(
        self, topology, num_coflows, width, seed
    ):
        network, instance = oracle_case(topology, num_coflows, width, seed)
        for memo in ("fresh", "warm"):
            paths = random_route(instance, network, random.Random(seed))
            expected = reference_routing.random_route(
                instance, network, random.Random(seed)
            )
            assert list(paths.items()) == list(expected.items()), memo

    @pytest.mark.parametrize("name", ["Route-only", "SEBF", "Baseline"])
    @pytest.mark.parametrize("topology,num_coflows,width", ORACLE_CASES)
    def test_simulate_equal_on_fresh_then_warm_memo(
        self, name, topology, num_coflows, width
    ):
        network, instance = oracle_case(topology, num_coflows, width, 0)
        scheme = build_schemes([name])[0]
        fresh_plan = scheme.plan(instance, network)
        reference = LEGACY_PLANS[name](instance, network)
        reference.allocator = LEGACY_ALLOCATORS.get(name, "greedy")
        assert list(fresh_plan.paths.items()) == list(reference.paths.items())
        # Plans again and simulates, now with the memo warm.
        assert_bit_identical(instance, network, scheme, reference)


class TestOnlineEquivalence:
    """`online=true` == the deleted online wrapper's re-planning run."""

    @pytest.mark.parametrize("name,legacy", sorted(ONLINE_LEGACY_PLANS.items()))
    def test_online_names(self, name, legacy):
        network, instance = build_case("leaf_spine", "facebook", "incast", 1)
        scheme = build_schemes([name])[0]
        result = scheme.simulate(instance, network)
        # The deleted wrapper invoked the inner scheme's plan() at every
        # arrival context and spliced the epochs; reproduce it verbatim on
        # a per-arrival session (the default batch policy).
        reference = StreamingScheduler(
            network, lambda context: legacy(context.instance, context.network)
        ).run(instance, plan_name=name)
        assert result.flow_completion == reference.flow_completion
        assert result.metrics() == reference.metrics()
        assert result.plan_name == name


class TestRegistryCoverage:
    """Structural guarantees over the whole alias table."""

    def test_every_alias_resolves_to_a_pipeline(self):
        for name in SCHEME_ALIASES:
            scheme = build_schemes([name])[0]
            assert isinstance(scheme, PipelineScheme)
            assert scheme.name == name

    def test_alias_and_spelled_out_spec_share_a_signature(self):
        for name, spec in SCHEME_ALIASES.items():
            assert (
                scheme_from_spec(name).signature()
                == scheme_from_spec(spec).signature()
            ), name

    def test_every_legacy_name_has_an_equivalence_reference(self):
        # Online names must be listed in ONLINE_LEGACY_PLANS explicitly —
        # a name-prefix waiver would let an untested alias slip through.
        covered = (
            set(LEGACY_PLANS)
            | set(ONLINE_LEGACY_PLANS)
            | {"LP-Based (given paths)"}
        )
        assert set(SCHEME_ALIASES) <= covered
