"""Unit tests for the capacitated network substrate."""

import itertools

import networkx as nx
import pytest

from repro.core import Network, topologies
from repro.core.network import path_edges


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

    def test_k_shortest_paths(self, diamond):
        diamond.add_edge("b", "c", capacity=1.0)
        paths = diamond.k_shortest_paths("a", "d", 3)
        assert len(paths) == 3
        assert len(paths[0]) <= len(paths[-1])

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


def yen_reference(graph, source, target, max_paths):
    """The leading ``nx.shortest_simple_paths``, cut at the shortest length."""
    paths = []
    for path in nx.shortest_simple_paths(graph, source, target):
        if paths and len(path) > len(paths[0]):
            break
        paths.append(path)
        if len(paths) == max_paths:
            break
    return paths


class TestPathMemo:
    """Path facts are memoized per topology, in Yen's order, and dropped on edits."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: topologies.fat_tree(4),
            lambda: topologies.leaf_spine(num_leaves=4, num_spines=2, hosts_per_leaf=2),
        ],
        ids=["fat_tree-k4", "leaf_spine-8"],
    )
    def test_candidate_paths_keep_yen_order_cold_and_warm(self, build):
        network = build()
        pairs = list(itertools.permutations(topologies.host_nodes(network), 2))
        expected = {
            (s, t, m): yen_reference(network.graph, s, t, m)
            for s, t in pairs
            for m in (16, 2)
        }
        for memo in ("cold", "warm"):
            for (s, t, m), paths in expected.items():
                assert network.candidate_paths(s, t, max_paths=m) == paths, memo

    def test_edge_ids_and_capacity_vector_align_with_edge_index(self, diamond):
        found = diamond.candidate_set("a", "d")
        index = diamond.edge_index()
        capacity = diamond.capacity_vector()
        assert found.paths == (("a", "b", "d"), ("a", "c", "d"))
        for path, edge_ids in zip(found.paths, found.edge_ids):
            assert edge_ids == tuple(index[e] for e in path_edges(path))
        for edge, e in index.items():
            assert capacity[e] == diamond.capacity(*edge)

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
        original = nx.shortest_simple_paths

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return original(*args, **kwargs)

        monkeypatch.setattr(nx, "shortest_simple_paths", counting)
        network = topologies.fat_tree(4)
        assert calls == []
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
