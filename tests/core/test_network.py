"""Unit tests for the capacitated network substrate."""

import itertools
import multiprocessing
import pickle
import random
import warnings

import networkx as nx
import pytest

from repro.core import Network, topologies
from repro.core import network as network_module
from repro.core.network import path_edges
from repro.native import CompiledCore

from .graph_oracle import as_digraph


def python_port(monkeypatch):
    """Make the path core unavailable, as on a machine without a compiler."""
    monkeypatch.setattr(network_module, "_compiled_port", lambda: None)


@pytest.fixture
def diamond():
    """a -> {b, c} -> d with distinct capacities."""
    net = Network()
    net.add_edge("a", "b", capacity=2.0)
    net.add_edge("b", "d", capacity=2.0)
    net.add_edge("a", "c", capacity=5.0)
    net.add_edge("c", "d", capacity=3.0)
    return net


class TestConstruction:
    def test_empty(self):
        net = Network()
        assert net.num_nodes == 0
        assert net.num_edges == 0

    def test_from_digraph(self):
        g = nx.DiGraph()
        g.add_edge("x", "y", capacity=7.0)
        g.add_edge("y", "z")
        net = Network(g, default_capacity=2.0)
        assert net.capacity("x", "y") == 7.0
        assert net.capacity("y", "z") == 2.0

    def test_default_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Network(default_capacity=0.0)

    def test_add_edge_default_capacity(self):
        net = Network(default_capacity=4.0)
        net.add_edge("a", "b")
        assert net.capacity("a", "b") == 4.0

    def test_self_loop_rejected(self):
        net = Network()
        with pytest.raises(ValueError, match="self-loop"):
            net.add_edge("a", "a")

    def test_nonpositive_capacity_rejected(self):
        net = Network()
        with pytest.raises(ValueError, match="capacity"):
            net.add_edge("a", "b", capacity=0.0)

    def test_bidirectional_edge(self):
        net = Network()
        net.add_bidirectional_edge("a", "b", capacity=3.0)
        assert net.capacity("a", "b") == 3.0
        assert net.capacity("b", "a") == 3.0

    def test_add_node(self):
        net = Network()
        net.add_node("solo")
        assert net.has_node("solo")
        assert net.num_nodes == 1


class TestAccessors:
    def test_capacity_missing_edge(self, diamond):
        with pytest.raises(KeyError):
            diamond.capacity("d", "a")

    def test_capacities_map(self, diamond):
        caps = diamond.capacities()
        assert caps[("a", "c")] == 5.0
        assert len(caps) == 4

    def test_min_capacity(self, diamond):
        assert diamond.min_capacity() == 2.0

    def test_min_capacity_empty_raises(self):
        with pytest.raises(ValueError):
            Network().min_capacity()

    def test_in_out_edges(self, diamond):
        assert set(diamond.out_edges("a")) == {("a", "b"), ("a", "c")}
        assert set(diamond.in_edges("d")) == {("b", "d"), ("c", "d")}
        assert set(diamond.incident_edges("b")) == {("a", "b"), ("b", "d")}

    def test_edge_index_deterministic(self, diamond):
        idx1 = diamond.edge_index()
        idx2 = diamond.edge_index()
        assert idx1 == idx2
        assert sorted(idx1.values()) == list(range(diamond.num_edges))

    def test_edge_index_invalidated_on_change(self, diamond):
        before = dict(diamond.edge_index())
        diamond.add_edge("d", "a", capacity=1.0)
        assert len(diamond.edge_index()) == len(before) + 1


class TestPaths:
    def test_shortest_path(self, diamond):
        path = diamond.shortest_path("a", "d")
        assert path[0] == "a" and path[-1] == "d" and len(path) == 3

    def test_shortest_path_length(self, diamond):
        assert diamond.shortest_path_length("a", "d") == 2

    def test_no_path_raises(self, diamond):
        with pytest.raises(ValueError, match="no path"):
            diamond.shortest_path("d", "a")

    def test_all_shortest_paths(self, diamond):
        paths = diamond.all_shortest_paths("a", "d")
        assert len(paths) == 2
        assert {tuple(p) for p in paths} == {("a", "b", "d"), ("a", "c", "d")}

    def test_all_shortest_paths_limit(self, diamond):
        assert len(diamond.all_shortest_paths("a", "d", limit=1)) == 1

    @pytest.mark.parametrize("target", ["c", "ghost"])
    @pytest.mark.parametrize("limit", [None, 2])
    def test_all_shortest_paths_without_a_path_raise_value_error(self, target, limit):
        network = Network()
        network.add_edge("a", "b")
        network.add_node("c")
        with pytest.raises(ValueError, match="no path from 'a' to .* in the network"):
            network.all_shortest_paths("a", target, limit=limit)

    def test_k_shortest_paths(self, diamond):
        diamond.add_edge("b", "c", capacity=1.0)
        paths = diamond.k_shortest_paths("a", "d", 3)
        assert len(paths) == 3
        assert len(paths[0]) <= len(paths[-1])

    @pytest.mark.parametrize("k", [1, 3, 20])
    def test_k_shortest_paths_follow_networkx(self, diamond, k, port):
        diamond.add_edge("b", "c", capacity=1.0)
        fat_tree = topologies.fat_tree(4)
        cases = [(diamond, s, t) for s, t in itertools.permutations("abcd", 2)]
        cases += [
            (fat_tree, s, t)
            for s, t in itertools.permutations(topologies.host_nodes(fat_tree), 2)
        ]
        graphs = {id(net): as_digraph(net) for net in (diamond, fat_tree)}
        for network, s, t in cases:
            graph = graphs[id(network)]
            if not nx.has_path(graph, s, t):
                with pytest.raises(ValueError, match="no path"):
                    network.k_shortest_paths(s, t, k)
                continue
            expected = list(itertools.islice(nx.shortest_simple_paths(graph, s, t), k))
            assert network.k_shortest_paths(s, t, k) == expected, (s, t)

    def test_k_shortest_paths_with_a_huge_k(self, diamond, port):
        diamond.add_edge("b", "c", capacity=1.0)
        expected = list(nx.shortest_simple_paths(as_digraph(diamond), "a", "d"))
        assert diamond.k_shortest_paths("a", "d", 10**9) == expected
        assert len(expected) == 3

    def test_k_shortest_paths_grow_the_output_buffers(self, monkeypatch):
        if network_module._compiled_port() is None:
            pytest.skip("compiled path core unavailable")
        # A fresh set of buffers, so the growth does not depend on what
        # earlier queries in this process reserved.
        fresh = network_module._CompiledYen(network_module.PATH_CORE.lib)
        monkeypatch.setattr(network_module, "_compiled", fresh)
        network = Network(nx.complete_graph(7, create_using=nx.DiGraph))
        graph = as_digraph(network)
        expected = list(nx.shortest_simple_paths(graph, 0, 6))
        assert sum(map(len, expected)) > network_module._FIRST_SLOTS == fresh.slots
        assert network.k_shortest_paths(0, 6, 10**9) == expected
        assert fresh.slots > network_module._FIRST_SLOTS
        assert network.k_shortest_paths(1, 5, 200) == list(
            itertools.islice(nx.shortest_simple_paths(graph, 1, 5), 200)
        )

    def test_k_shortest_paths_invalid_k(self, diamond):
        with pytest.raises(ValueError):
            diamond.k_shortest_paths("a", "d", 0)

    def test_candidate_paths_equal_cost(self, diamond):
        paths = diamond.candidate_paths("a", "d")
        assert len(paths) == 2
        assert all(len(p) == 3 for p in paths)

    def test_candidate_paths_stretch(self, diamond):
        diamond.add_edge("b", "c", capacity=1.0)
        no_stretch = diamond.candidate_paths("a", "d", stretch=0)
        stretched = diamond.candidate_paths("a", "d", stretch=1)
        assert len(stretched) > len(no_stretch)

    def test_candidate_paths_max_paths(self, diamond):
        assert len(diamond.candidate_paths("a", "d", max_paths=1)) == 1

    @pytest.mark.parametrize(
        "kwargs", [{"max_paths": 0}, {"max_paths": -1}, {"stretch": -1}]
    )
    def test_candidate_paths_reject_meaningless_parameters(self, diamond, kwargs):
        with pytest.raises(ValueError, match="max_paths|stretch"):
            diamond.candidate_paths("a", "d", **kwargs)
        with pytest.raises(ValueError, match="max_paths|stretch"):
            diamond.candidate_set("a", "d", **kwargs)

    def test_bottleneck_capacity(self, diamond):
        assert diamond.bottleneck_capacity(["a", "c", "d"]) == 3.0
        assert diamond.bottleneck_capacity(["a", "b", "d"]) == 2.0

    def test_bottleneck_capacity_trivial_path_raises(self, diamond):
        with pytest.raises(ValueError):
            diamond.bottleneck_capacity(["a"])

    def test_widest_path(self, diamond):
        path = diamond.widest_path("a", "d")
        assert path == ["a", "c", "d"]

    def test_widest_path_no_route(self, diamond):
        diamond.add_node("island")
        with pytest.raises(ValueError):
            diamond.widest_path("a", "island")

    def test_widest_path_missing_node(self, diamond):
        with pytest.raises(ValueError):
            diamond.widest_path("a", "ghost")

    def test_validate_path(self, diamond):
        diamond.validate_path(["a", "b", "d"])
        with pytest.raises(ValueError, match="missing edge"):
            diamond.validate_path(["a", "d"])
        with pytest.raises(ValueError, match="two nodes"):
            diamond.validate_path(["a"])


def yen_reference(graph, source, target, max_paths, stretch=0):
    """The leading ``nx.shortest_simple_paths``, cut ``stretch`` hops past
    the shortest length."""
    paths = []
    for path in nx.shortest_simple_paths(graph, source, target):
        if paths and len(path) > len(paths[0]) + stretch:
            break
        paths.append(path)
        if len(paths) == max_paths:
            break
    return paths


def candidate_sets(network, pairs):
    """Each pair's candidate set (run in a spawned worker below)."""
    return [network.candidate_set(s, t) for s, t in pairs]


def random_digraph(seed, labels):
    """A seeded random digraph whose nodes and edges are inserted in shuffled
    order (so adjacency order is neither sorted nor label order), plus one
    node no other node reaches."""
    rng = random.Random(seed)
    n = rng.randint(6, 13)
    name = {
        "int": lambda i: (i * 37) % 101,
        "tuple": lambda i: (i % 3, f"n{i}"),
    }[labels]
    probability = rng.uniform(0.15, 0.45)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < probability
    ]
    rng.shuffle(edges)
    order = list(range(n + 1))
    rng.shuffle(order)
    network = Network()
    for i in order:
        network.add_node(name(i))
    for u, v in edges:
        network.add_edge(name(u), name(v))
    network.add_edge(name(n), name(0))  # node n: a source nothing reaches
    return network


class TestYenPort:
    """``candidate_set`` enumerates with the compiled path core, a C port of
    the integer-id Python port of networkx's Yen's algorithm, and falls back
    to the Python port without a compiler.  ``nx.shortest_simple_paths`` is
    the oracle of both: each port must agree with it on every path and on
    its position (``==``), cold and warm, and the ports with each other."""

    @pytest.mark.parametrize("labels", ["int", "tuple"])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_digraphs_match_networkx(self, seed, labels, port):
        network = random_digraph(seed, labels)
        graph = as_digraph(network)
        nodes = network.nodes()
        combos = [(1, 0), (2, 1), (16, 0), (16, 2), (24, 3)]
        expected = {}
        for s, t in itertools.permutations(nodes, 2):
            if nx.has_path(graph, s, t):
                for m, stretch in combos:
                    expected[s, t, m, stretch] = yen_reference(graph, s, t, m, stretch)
            else:
                with pytest.raises(ValueError, match="no path from .* in the network"):
                    network.candidate_paths(s, t)
        assert expected, "the seed drew no connected pair"
        for memo in ("cold", "warm"):
            for (s, t, m, stretch), paths in expected.items():
                assert network.candidate_paths(s, t, m, stretch) == paths, memo
        for node in nodes:
            assert network.candidate_paths(node, node) == [[node]]
            assert network.candidate_set(node, node).edge_ids == ((),)

    def test_a_shortest_path_through_every_node(self, port):
        # The first search's budget is num_nodes - 1 expansions, exactly
        # the hops of a path that visits every node.
        nodes = ["a", "b", "c", "d", "e"]
        network = Network()
        for u, v in zip(nodes, nodes[1:]):
            network.add_edge(u, v)
        network.add_edge("e", "a")
        assert network.candidate_paths("a", "e") == [nodes]
        assert network.k_shortest_paths("a", "e", 3) == [nodes]

    def test_a_network_without_edges(self, port):
        network = Network()
        network.add_node("solo")
        network.add_node("other")
        assert network.candidate_set("solo", "solo") == ((("solo",),), ((),))
        with pytest.raises(ValueError, match="no path from .* in the network"):
            network.candidate_paths("solo", "other")

    def test_unknown_endpoints_raise_no_path(self, diamond, port):
        for s, t in (("a", "ghost"), ("ghost", "d"), ("ghost", "ghost")):
            with pytest.raises(ValueError, match="no path from .* in the network"):
                diamond.candidate_paths(s, t)

    def test_leaf_spine_128_sample_matches_networkx_on_both_ports(self, monkeypatch):
        def build():
            return topologies.leaf_spine(num_leaves=8, num_spines=8, hosts_per_leaf=16)

        pairs = random.Random(17).sample(
            list(itertools.permutations(topologies.host_nodes(build()), 2)), 2000
        )
        if network_module._compiled_port() is None:
            compiled = None
        else:
            network = build()
            compiled = [network.candidate_set(s, t) for s, t in pairs]
        python_port(monkeypatch)
        network = build()
        python = [network.candidate_set(s, t) for s, t in pairs]
        if compiled is not None:
            assert compiled == python
        graph = as_digraph(network)
        for (s, t), found in zip(pairs, python):
            assert [list(p) for p in found.paths] == yen_reference(
                graph, s, t, 16
            ), (s, t)

    def test_the_fallback_is_silent(self, monkeypatch):
        python_port(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            network = random_digraph(3, "tuple")
            graph = as_digraph(network)
            for s, t in itertools.permutations(network.nodes(), 2):
                if nx.has_path(graph, s, t):
                    assert network.candidate_paths(s, t, 16, 1) == yen_reference(
                        graph, s, t, 16, 1
                    )

    def test_a_core_that_cannot_build_is_unavailable_with_a_reason(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("CC", "false")
        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path))
        core = CompiledCore(
            "repro_paths", "path core", network_module._YEN_C_SOURCE, network_module._declare
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert core.load() is None
        assert core.error.startswith("could not build the compiled path core")
        assert core.describe().startswith("unavailable (could not build")
        assert list(tmp_path.glob("*.so")) == []

    def test_pickled_networks_drop_addresses_and_answer_fresh_queries(self, port):
        network = topologies.fat_tree(4)
        hosts = topologies.host_nodes(network)
        first = network.candidate_set(hosts[0], hosts[5])
        assert (network._memo.native is not None) == (port == "compiled")
        clone = pickle.loads(pickle.dumps(network))
        assert clone._memo.native is None
        assert clone.candidate_set(hosts[0], hosts[5]) == first
        graph = as_digraph(network)
        for s, t in itertools.permutations(hosts[:6], 2):
            for m, stretch in ((1, 0), (16, 0), (16, 2)):
                expected = yen_reference(graph, s, t, m, stretch)
                assert clone.candidate_paths(s, t, m, stretch) == expected
                assert clone.candidate_set(s, t, m, stretch) == network.candidate_set(
                    s, t, m, stretch
                )


class TestPathMemo:
    """Path facts are memoized per topology, in Yen's order, and dropped on edits."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: topologies.fat_tree(4),
            lambda: topologies.fat_tree(6),
            lambda: topologies.leaf_spine(num_leaves=4, num_spines=2, hosts_per_leaf=2),
        ],
        ids=["fat_tree-k4", "fat_tree-k6", "leaf_spine-8"],
    )
    def test_candidate_paths_keep_yen_order_cold_and_warm(self, build):
        network = build()
        graph = as_digraph(network)
        pairs = list(itertools.permutations(topologies.host_nodes(network), 2))
        expected = {}
        for s, t in pairs:
            # Yen's order never gets shorter, so each (max_paths, stretch)
            # answer is a filtered prefix of the largest one.
            widest = yen_reference(graph, s, t, 16, stretch=2)
            for stretch in (0, 1, 2):
                within = [p for p in widest if len(p) <= len(widest[0]) + stretch]
                for m in (1, 2, 16):
                    expected[s, t, m, stretch] = within[:m]
        for memo in ("cold", "warm"):
            for (s, t, m, stretch), paths in expected.items():
                assert network.candidate_paths(s, t, m, stretch) == paths, memo

    def test_edge_ids_and_capacity_vector_align_with_edge_index(self, diamond):
        found = diamond.candidate_set("a", "d")
        index = diamond.edge_index()
        capacity = diamond.capacity_vector()
        assert found.paths == (("a", "b", "d"), ("a", "c", "d"))
        for path, edge_ids in zip(found.paths, found.edge_ids):
            assert edge_ids == tuple(index[e] for e in path_edges(path))
        for edge, e in index.items():
            assert capacity[e] == diamond.capacity(*edge)

    def test_networks_with_filled_memos_answer_in_spawned_workers(self):
        # A spawned worker shares no memory with this process, so a pickled
        # address would point nowhere there.
        network = topologies.fat_tree(4)
        hosts = topologies.host_nodes(network)
        warm = list(itertools.permutations(hosts[:4], 2))
        cold = list(itertools.permutations(hosts[4:8], 2))
        expected = candidate_sets(network, warm)
        context = multiprocessing.get_context("spawn")
        with context.Pool(1) as pool:
            answer = pool.apply_async(candidate_sets, (network, warm + cold))
            assert answer.get(timeout=120) == expected + candidate_sets(network, cold)

    def test_edge_ids_are_the_edge_index_own_ints(self, port):
        # Ids above 256 are separate int objects unless shared, and a memo
        # holds tens of thousands of them on a large fabric.
        network = topologies.leaf_spine(num_leaves=8, num_spines=8, hosts_per_leaf=16)
        assert network.num_edges > 257
        hosts = topologies.host_nodes(network)
        found = [network.candidate_set(hosts[0], t) for t in hosts[100:110]]
        by_id = {id(e) for e in network.edge_index().values()}
        assert all(id(e) in by_id for f in found for ids in f.edge_ids for e in ids)
        assert any(e > 256 for f in found for ids in f.edge_ids for e in ids)

    def test_widest_bottleneck_is_memoized_per_pair(self, diamond):
        expected = {("a", "d"): 3.0, ("a", "b"): 2.0, ("a", "c"): 5.0, ("b", "d"): 2.0}
        for memo in ("cold", "warm"):
            for (s, t), bottleneck in expected.items():
                assert diamond.widest_bottleneck(s, t) == bottleneck, memo

    def test_returned_lists_are_copies(self, diamond):
        paths = diamond.candidate_paths("a", "d")
        paths[0].append("x")
        paths.pop()
        assert diamond.candidate_paths("a", "d") == [["a", "b", "d"], ["a", "c", "d"]]

    def test_construction_computes_nothing_and_queries_run_once(self, monkeypatch):
        calls = []
        original = Network._yen

        def counting(network, *args):
            calls.append(args)
            return original(network, *args)

        monkeypatch.setattr(Network, "_yen", counting)
        network = topologies.fat_tree(4)
        assert calls == []
        assert network._memo is None
        network.candidate_paths("host_0", "host_5")
        network.candidate_paths("host_0", "host_5")
        assert len(calls) == 1
        network.candidate_paths("host_0", "host_5", max_paths=2)
        assert len(calls) == 2

    def test_add_edge_invalidates_candidate_sets(self, diamond):
        assert len(diamond.candidate_paths("a", "d")) == 2
        diamond.add_edge("a", "d", capacity=1.0)
        assert diamond.candidate_paths("a", "d") == [["a", "d"]]
        assert diamond.candidate_set("a", "d").edge_ids == (
            (diamond.edge_index()[("a", "d")],),
        )

    def test_re_adding_an_edge_invalidates_capacity_facts(self, diamond):
        e = diamond.edge_index()[("c", "d")]
        assert diamond.widest_bottleneck("a", "d") == 3.0
        assert diamond.capacity_vector()[e] == 3.0
        diamond.add_edge("c", "d", capacity=1.0)
        assert diamond.widest_bottleneck("a", "d") == 2.0
        assert diamond.capacity_vector()[e] == 1.0

    def test_add_node_invalidates(self, diamond):
        found = diamond.candidate_set("a", "d")
        index = diamond.edge_index()
        diamond.add_node("solo")
        assert diamond.candidate_set("a", "d") is not found
        assert diamond.candidate_set("a", "d") == found
        assert diamond.edge_index() is not index

    def test_copies_start_with_an_empty_memo(self, diamond):
        found = diamond.candidate_set("a", "d")
        assert diamond.widest_bottleneck("a", "d") == 3.0
        clone = diamond.copy()
        assert clone.candidate_set("a", "d") is not found
        assert clone.candidate_set("a", "d") == found
        scaled = diamond.scaled_capacities(10.0)
        assert scaled.widest_bottleneck("a", "d") == 30.0
        assert sorted(scaled.capacity_vector()) == [20.0, 20.0, 30.0, 50.0]


class TestUtilities:
    @pytest.mark.parametrize(
        "build",
        [lambda: topologies.fat_tree(4)]
        + [lambda seed=seed: random_digraph(seed, "int") for seed in range(8)],
        ids=["fat_tree-k4"] + [f"digraph-{seed}" for seed in range(8)],
    )
    def test_copies_route_as_the_original(self, build, port):
        # Yen's reverse search walks each node's predecessors, so a copy
        # must keep their order, not only the successors'.
        network = build()
        copies = (network.copy(), network.scaled_capacities(2.0))
        for s, t in itertools.permutations(network.nodes(), 2):
            try:
                expected = network.candidate_set(s, t, 16, 0)
            except ValueError:
                continue
            for clone in copies:
                assert clone.candidate_set(s, t, 16, 0) == expected, (s, t)
        for clone in copies:
            for node in network.nodes():
                assert clone.in_edges(node) == network.in_edges(node)
                assert clone.out_edges(node) == network.out_edges(node)

    def test_copy_is_independent(self, diamond):
        clone = diamond.copy()
        clone.add_edge("d", "a", capacity=1.0)
        assert not diamond.has_edge("d", "a")
        assert clone.capacity("a", "b") == diamond.capacity("a", "b")

    def test_scaled_capacities(self, diamond):
        scaled = diamond.scaled_capacities(10.0)
        assert scaled.capacity("a", "b") == 20.0
        assert diamond.capacity("a", "b") == 2.0
        with pytest.raises(ValueError):
            diamond.scaled_capacities(0.0)

    def test_path_edges_helper(self):
        assert path_edges(["a", "b", "c"]) == [("a", "b"), ("b", "c")]
        assert path_edges(["a"]) == []
