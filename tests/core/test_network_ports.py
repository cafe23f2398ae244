"""The network's own adjacency and graph searches, held to networkx.

:class:`~repro.core.network.Network` keeps its graph in plain dicts, in the
orders an ``nx.DiGraph`` gives the same calls, and every search that reads
those orders is a port of a networkx function.  networkx is the oracle
(``==``, order included): the package never imports it.
"""

import hashlib
import itertools
import operator
import pickle
import random
from types import SimpleNamespace

import networkx as nx
import pytest

from repro.circuit import flow_decomposition
from repro.core import Network, topologies
from repro.core.topologies import _random_regular_edges
from repro.packet.routing import PacketRoutingLP

from .graph_oracle import as_digraph

LABELS = [0, 1, 2, 3, 4, 5, 6, 7, "a", "b", (0, "x"), (1, "y")]


def twin_graphs(seed):
    """One seeded sequence of ``add_node``/``add_edge`` calls applied to a
    :class:`Network` and to an ``nx.DiGraph``, re-added edges (with new
    capacities) and re-added nodes included."""
    rng = random.Random(seed)
    network, graph = Network(), nx.DiGraph()
    added = []
    for _ in range(rng.randint(5, 40)):
        if rng.random() < 0.15:
            node = rng.choice(LABELS)
            network.add_node(node)
            graph.add_node(node)
            continue
        if added and rng.random() < 0.2:
            u, v = rng.choice(added)
        else:
            u, v = rng.sample(LABELS, 2)
            added.append((u, v))
        capacity = float(rng.randint(1, 9))
        network.add_edge(u, v, capacity=capacity)
        graph.add_edge(u, v, capacity=capacity)
    return network, graph


def digraph_fingerprint(graph):
    """The fingerprint the topology digest was defined by, over a networkx
    graph's adjacency: run-store keys embed it."""
    names = {node: repr(node) for node in graph}
    edges = []
    for u, neighbours in graph.adjacency():
        for v, data in neighbours.items():
            line = f"{names[u]}->{names[v]}:{float(data['capacity'])!r}"
            edges.append((f"({names[u]}, {names[v]})", line))
    edges.sort(key=operator.itemgetter(0))
    lines = sorted(names.values()) + [line for _key, line in edges]
    return hashlib.sha256("".join(f"{line}\0" for line in lines).encode()).hexdigest()[:16]


def assert_same_graph(network, graph):
    assert network.nodes() == list(graph.nodes)
    assert network.edges() == list(graph.edges)
    assert list(network.capacities().items()) == [
        ((u, v), data["capacity"]) for u, v, data in graph.edges(data=True)
    ]
    assert (network.num_nodes, network.num_edges) == (
        graph.number_of_nodes(),
        graph.number_of_edges(),
    )
    for node in graph:
        assert network.out_edges(node) == list(graph.out_edges(node))
        assert network.in_edges(node) == list(graph.in_edges(node))
    assert network.fingerprint() == digraph_fingerprint(graph)


class TestAdjacency:
    """Nodes, edges, capacities, successor and predecessor orders and the
    fingerprint equal the ``nx.DiGraph`` built by the same calls."""

    @pytest.mark.parametrize("seed", range(40))
    def test_call_sequences_match_a_digraph(self, seed):
        network, graph = twin_graphs(seed)
        assert_same_graph(network, graph)
        assert_same_graph(pickle.loads(pickle.dumps(network)), graph)

    @pytest.mark.parametrize("seed", range(10))
    def test_the_oracle_helper_replays_the_adjacency(self, seed):
        network, graph = twin_graphs(seed)
        replayed = as_digraph(network)
        for node in graph:
            assert list(replayed.successors(node)) == list(graph.successors(node))
            assert list(replayed.predecessors(node)) == list(graph.predecessors(node))

    def test_a_networkx_graph_is_copied_in_its_order(self):
        graph = nx.DiGraph()
        graph.add_node("z")
        graph.add_edge("b", "a", capacity=3.0)
        graph.add_edge("a", "c")
        network = Network(graph, default_capacity=2.0)
        assert network.nodes() == ["z", "b", "a", "c"]
        assert network.capacities() == {("b", "a"): 3.0, ("a", "c"): 2.0}

    @pytest.mark.parametrize(
        "spec, fingerprint",
        [
            ("fat_tree(k=4)", "e9401b6bfc5532f2"),
            ("leaf_spine(num_leaves=8, num_spines=8, hosts_per_leaf=16)", "f141a5f15d6936c5"),
            (
                "random_regular(num_switches=8, degree=3, hosts_per_switch=2, seed=1)",
                "a277e466e29388ec",
            ),
            (
                "random_regular(num_switches=16, degree=5, hosts_per_switch=1, seed=7)",
                "064a543a82aea43c",
            ),
            ("triangle()", "73da13fa12109fde"),
        ],
    )
    def test_shipped_topologies_keep_their_fingerprints(self, spec, fingerprint):
        network = topologies.from_spec(spec)
        assert network.fingerprint() == fingerprint
        assert digraph_fingerprint(as_digraph(network)) == fingerprint


def search_cases():
    """Networks to search: seeded twins and two shipped topologies."""
    yield from (twin_graphs(seed)[0] for seed in range(25))
    yield topologies.fat_tree(4)
    yield topologies.random_regular(num_switches=8, degree=3, hosts_per_switch=1, seed=1)


class TestSearchPorts:
    def test_shortest_path_is_networkx_shortest_path(self, port):
        for network in search_cases():
            graph = as_digraph(network)
            for s, t in itertools.product(network.nodes(), repeat=2):
                if nx.has_path(graph, s, t):
                    assert network.shortest_path(s, t) == nx.shortest_path(graph, s, t)
                    assert network.shortest_path_length(s, t) == nx.shortest_path_length(
                        graph, s, t
                    )
                else:
                    with pytest.raises(ValueError, match="no path"):
                        network.shortest_path(s, t)

    @pytest.mark.parametrize("limit", [None, 1, 2, 3])
    def test_all_shortest_paths_are_networkx_all_shortest_paths(self, limit):
        for network in search_cases():
            graph = as_digraph(network)
            for s, t in itertools.product(network.nodes(), repeat=2):
                if nx.has_path(graph, s, t):
                    expected = list(
                        itertools.islice(nx.all_shortest_paths(graph, s, t), limit)
                    )
                    assert network.all_shortest_paths(s, t, limit=limit) == expected
                else:
                    with pytest.raises(ValueError, match="no path"):
                        network.all_shortest_paths(s, t, limit=limit)

    def test_unknown_nodes_have_no_path(self, port):
        network = topologies.triangle()
        for s, t in (("x", "ghost"), ("ghost", "x"), ("ghost", "ghost")):
            with pytest.raises(ValueError, match="no path"):
                network.shortest_path(s, t)
            with pytest.raises(ValueError, match="no path"):
                network.all_shortest_paths(s, t)
        with pytest.raises(ValueError, match="not in the network"):
            network.hop_distances("ghost")

    def test_hop_distances_are_networkx_bfs_lengths(self):
        for network in search_cases():
            graph = as_digraph(network)
            reverse = graph.reverse(copy=False)
            for node in network.nodes():
                assert network.hop_distances(node) == nx.single_source_shortest_path_length(
                    graph, node
                )
                assert network.hop_distances(
                    node, reverse=True
                ) == nx.single_source_shortest_path_length(reverse, node)

    def test_packet_distance_maps_read_the_bfs(self):
        network = topologies.line(4)
        dist_from, dist_to = PacketRoutingLP._distance_maps(SimpleNamespace(network=network))
        graph = as_digraph(network)
        assert dist_from("host_0") == nx.single_source_shortest_path_length(graph, "host_0")
        assert dist_to("host_0") == nx.single_source_shortest_path_length(
            graph.reverse(copy=False), "host_0"
        )


def random_support(seed):
    """A seeded ``{edge: value}`` flow with cycles, some of its values below
    the tolerance (outside the support)."""
    rng = random.Random(seed)
    nodes = list(range(rng.randint(3, 9)))
    flow = {}
    for _ in range(rng.randint(2, 24)):
        u, v = rng.sample(nodes, 2)
        flow[u, v] = rng.choice([0.0, 1e-12, 0.5, 1.0, 2.0, 3.5])
    return flow


def networkx_cancel_cycles(flow):
    """``_cancel_cycles`` on networkx's ``find_cycle``: the oracle."""
    while True:
        support = nx.DiGraph()
        for (u, v), value in flow.items():
            if value > flow_decomposition.FLOW_TOLERANCE:
                support.add_edge(u, v)
        try:
            cycle = nx.find_cycle(support, orientation="original")
        except nx.NetworkXNoCycle:
            return
        edges = [(u, v) for u, v, _ in cycle]
        bottleneck = min(flow[e] for e in edges)
        for e in edges:
            flow[e] -= bottleneck
            if flow[e] <= flow_decomposition.FLOW_TOLERANCE:
                flow[e] = 0.0


class TestCyclePort:
    @pytest.mark.parametrize("seed", range(300))
    def test_find_cycle_is_networkx_find_cycle(self, seed):
        flow = random_support(seed)
        support = nx.DiGraph()
        for (u, v), value in flow.items():
            if value > flow_decomposition.FLOW_TOLERANCE:
                support.add_edge(u, v)
        try:
            expected = [(u, v) for u, v, _ in nx.find_cycle(support, orientation="original")]
        except nx.NetworkXNoCycle:
            expected = None
        assert flow_decomposition._find_cycle(flow) == expected

    @pytest.mark.parametrize("seed", range(100))
    def test_cancel_cycles_cancels_what_networkx_would(self, seed):
        flow = random_support(seed)
        expected = dict(flow)
        networkx_cancel_cycles(expected)
        flow_decomposition._cancel_cycles(flow)
        assert list(flow.items()) == list(expected.items())


class TestRandomRegularPort:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_edges_are_networkx_random_regular_graph(self, n):
        for degree in range(1, n):
            if n * degree % 2:
                continue
            for seed in range(6):
                expected = {
                    tuple(sorted(edge))
                    for edge in nx.random_regular_graph(degree, n, seed=seed).edges()
                }
                assert _random_regular_edges(degree, n, seed) == expected, (degree, seed)

    def test_scenario_matrix_fabric(self):
        # specs/scenario-matrix.yaml: random_regular(8, 3, 2, seed=1).
        network = topologies.random_regular(
            num_switches=8, degree=3, hosts_per_switch=2, seed=1
        )
        fabric = nx.random_regular_graph(3, 8, seed=1)
        switch_links = {
            (u, v) for u, v in network.edges() if u.startswith("sw") and v.startswith("sw")
        }
        assert switch_links == {
            (f"sw_{u}", f"sw_{v}") for a, b in fabric.edges() for u, v in ((a, b), (b, a))
        }

    def test_without_a_seed_it_draws_from_the_global_generator(self):
        state = random.getstate()
        try:
            random.seed(11)
            expected = {tuple(sorted(e)) for e in nx.random_regular_graph(3, 10).edges()}
            random.seed(11)
            assert _random_regular_edges(3, 10, None) == expected
        finally:
            random.setstate(state)
