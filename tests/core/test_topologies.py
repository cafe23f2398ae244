"""Unit tests for the topology builders."""

import pytest

from repro.core import topologies
from repro.core.topologies import host_nodes


class TestFatTree:
    def test_host_count_k4(self):
        net = topologies.fat_tree(4)
        hosts = host_nodes(net)
        assert len(hosts) == 16
        assert topologies.fat_tree_hosts(4) == 16

    def test_host_count_k8(self):
        # the paper's 128-server testbed
        assert topologies.fat_tree_hosts(8) == 128

    def test_switch_counts_k4(self):
        net = topologies.fat_tree(4)
        nodes = net.nodes()
        assert sum(1 for n in nodes if str(n).startswith("edge_")) == 8
        assert sum(1 for n in nodes if str(n).startswith("agg_")) == 8
        assert sum(1 for n in nodes if str(n).startswith("core_")) == 4

    def test_edges_bidirectional(self):
        net = topologies.fat_tree(4)
        for u, v in net.edges():
            assert net.has_edge(v, u)

    def test_link_capacity(self):
        net = topologies.fat_tree(4, link_capacity=10.0)
        assert all(c == 10.0 for c in net.capacities().values())

    def test_intra_pod_path_length(self):
        net = topologies.fat_tree(4)
        # hosts 0 and 1 share an edge switch: 2 hops
        assert net.shortest_path_length("host_0", "host_1") == 2

    def test_inter_pod_path_length_and_multiplicity(self):
        net = topologies.fat_tree(4)
        # hosts in different pods: 6 hops via core, (k/2)^2 = 4 equal-cost paths
        assert net.shortest_path_length("host_0", "host_15") == 6
        assert len(net.all_shortest_paths("host_0", "host_15")) == 4

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            topologies.fat_tree(3)
        with pytest.raises(ValueError):
            topologies.fat_tree_hosts(5)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            topologies.fat_tree(4, link_capacity=0.0)


class TestTriangle:
    def test_structure(self):
        net = topologies.triangle()
        assert net.num_nodes == 3
        assert net.num_edges == 6  # three bidirectional links
        assert net.capacity("x", "y") == 1.0

    def test_custom_capacity(self):
        assert topologies.triangle(capacity=4.0).capacity("y", "z") == 4.0


class TestSwitch:
    def test_structure(self):
        net = topologies.nonblocking_switch(8)
        assert len(host_nodes(net)) == 8
        assert net.num_nodes == 9
        # unique path between any host pair
        assert len(net.all_shortest_paths("host_0", "host_5")) == 1

    def test_port_capacity(self):
        net = topologies.nonblocking_switch(4, port_capacity=2.5)
        assert net.capacity("host_0", "switch") == 2.5

    def test_too_few_hosts(self):
        with pytest.raises(ValueError):
            topologies.nonblocking_switch(1)


class TestSimpleFamilies:
    def test_line(self):
        net = topologies.line(5)
        assert net.shortest_path_length("host_0", "host_4") == 4
        with pytest.raises(ValueError):
            topologies.line(1)

    def test_ring(self):
        net = topologies.ring(6)
        assert net.shortest_path_length("host_0", "host_3") == 3
        assert net.shortest_path_length("host_0", "host_5") == 1
        with pytest.raises(ValueError):
            topologies.ring(2)

    def test_star(self):
        net = topologies.star(4)
        assert net.shortest_path_length("host_0", "host_3") == 2
        with pytest.raises(ValueError):
            topologies.star(1)

    def test_tree(self):
        net = topologies.tree(depth=2, fanout=2)
        hosts = host_nodes(net)
        assert len(hosts) == 4
        # unique paths in a tree
        assert len(net.all_shortest_paths(hosts[0], hosts[-1])) == 1
        with pytest.raises(ValueError):
            topologies.tree(depth=0, fanout=2)

    def test_tree_switch_leaves(self):
        net = topologies.tree(depth=2, fanout=2, host_leaves=False)
        assert host_nodes(net) == []


class TestRandomGraph:
    def test_connectivity_and_determinism(self):
        net1 = topologies.random_graph(8, seed=3)
        net2 = topologies.random_graph(8, seed=3)
        assert sorted(map(repr, net1.edges())) == sorted(map(repr, net2.edges()))
        hosts = host_nodes(net1)
        # ring backbone guarantees strong connectivity
        for target in hosts[1:]:
            assert net1.shortest_path(hosts[0], target)

    def test_capacity_range(self):
        net = topologies.random_graph(6, capacity_range=(2.0, 3.0), seed=1)
        assert all(2.0 <= c <= 3.0 for c in net.capacities().values())

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            topologies.random_graph(1)
        with pytest.raises(ValueError):
            topologies.random_graph(4, edge_probability=1.5)
        with pytest.raises(ValueError):
            topologies.random_graph(4, capacity_range=(0.0, 1.0))


class TestHostNodes:
    def test_sorted_and_filtered(self):
        net = topologies.nonblocking_switch(3)
        assert host_nodes(net) == ["host_0", "host_1", "host_2"]


class TestOversubscribedFatTree:
    def test_default_is_full_bisection(self):
        plain = topologies.fat_tree(4)
        explicit = topologies.fat_tree(4, oversubscription=1.0)
        assert plain.capacities() == explicit.capacities()

    def test_uplinks_scaled_host_links_untouched(self):
        net = topologies.fat_tree(4, oversubscription=4.0)
        caps = net.capacities()
        assert caps[("host_0", "edge_0_0")] == 1.0
        assert caps[("edge_0_0", "agg_0_0")] == pytest.approx(0.25)
        assert caps[("agg_0_0", "core_0_0")] == pytest.approx(0.25)

    def test_bidirectional_symmetry(self):
        net = topologies.fat_tree(4, oversubscription=2.0)
        caps = net.capacities()
        for (u, v), cap in caps.items():
            assert caps[(v, u)] == cap

    def test_undersubscription_rejected(self):
        with pytest.raises(ValueError):
            topologies.fat_tree(4, oversubscription=0.5)


class TestLeafSpine:
    def test_host_count(self):
        net = topologies.leaf_spine(num_leaves=4, num_spines=2, hosts_per_leaf=3)
        assert len(host_nodes(net)) == 12

    def test_bidirectional_links(self):
        net = topologies.leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=2)
        caps = net.capacities()
        for (u, v), cap in caps.items():
            assert caps[(v, u)] == cap

    def test_every_leaf_reaches_every_spine(self):
        net = topologies.leaf_spine(num_leaves=3, num_spines=4, hosts_per_leaf=1)
        for leaf in range(3):
            for spine in range(4):
                assert net.has_edge(f"leaf_{leaf}", f"spine_{spine}")

    def test_cross_leaf_path_diversity(self):
        net = topologies.leaf_spine(num_leaves=2, num_spines=3, hosts_per_leaf=1)
        # host - leaf - spine - leaf - host: one path per spine.
        assert len(net.all_shortest_paths("host_0", "host_1")) == 3

    def test_uplink_capacity(self):
        net = topologies.leaf_spine(
            num_leaves=2, num_spines=2, hosts_per_leaf=2, uplink_capacity=4.0
        )
        caps = net.capacities()
        assert caps[("host_0", "leaf_0")] == 1.0
        assert caps[("leaf_0", "spine_0")] == 4.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            topologies.leaf_spine(num_leaves=1)
        with pytest.raises(ValueError):
            topologies.leaf_spine(num_spines=0)
        with pytest.raises(ValueError):
            topologies.leaf_spine(hosts_per_leaf=0)
        with pytest.raises(ValueError):
            topologies.leaf_spine(uplink_capacity=0.0)


class TestRandomRegular:
    def test_host_count_and_determinism(self):
        net1 = topologies.random_regular(num_switches=8, degree=3, hosts_per_switch=2, seed=5)
        net2 = topologies.random_regular(num_switches=8, degree=3, hosts_per_switch=2, seed=5)
        assert len(host_nodes(net1)) == 16
        assert net1.fingerprint() == net2.fingerprint()

    def test_switch_degree_regular(self):
        degree, hosts_per_switch = 3, 2
        net = topologies.random_regular(
            num_switches=8, degree=degree, hosts_per_switch=hosts_per_switch, seed=0
        )
        for sw in range(8):
            neighbours = [v for _, v in net.out_edges(f"sw_{sw}")]
            switch_neighbours = [n for n in neighbours if str(n).startswith("sw_")]
            host_neighbours = [n for n in neighbours if str(n).startswith("host_")]
            assert len(switch_neighbours) == degree
            assert len(host_neighbours) == hosts_per_switch

    def test_bidirectional_links(self):
        net = topologies.random_regular(num_switches=6, degree=3, seed=2)
        caps = net.capacities()
        for (u, v), cap in caps.items():
            assert caps[(v, u)] == cap

    def test_all_hosts_connected(self):
        net = topologies.random_regular(num_switches=6, degree=3, hosts_per_switch=1, seed=4)
        hosts = host_nodes(net)
        for target in hosts[1:]:
            assert net.shortest_path(hosts[0], target)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            topologies.random_regular(num_switches=1)
        with pytest.raises(ValueError):
            topologies.random_regular(num_switches=4, degree=0)
        with pytest.raises(ValueError):
            # odd num_switches * degree has no regular graph
            topologies.random_regular(num_switches=5, degree=3)
        with pytest.raises(ValueError):
            topologies.random_regular(num_switches=4, degree=2, hosts_per_switch=0)


class TestFromSpec:
    def test_name_only(self):
        assert len(host_nodes(topologies.from_spec("fat_tree"))) == 16

    def test_with_arguments(self):
        net = topologies.from_spec("leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=4)")
        assert len(host_nodes(net)) == 8

    def test_matches_direct_builder(self):
        via_spec = topologies.from_spec("fat_tree(k=4, oversubscription=2.0)")
        direct = topologies.fat_tree(4, oversubscription=2.0)
        assert via_spec.fingerprint() == direct.fingerprint()

    def test_value_literals(self):
        net = topologies.from_spec("random_regular(num_switches=6, degree=3, seed=none)")
        assert len(host_nodes(net)) == 12

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            topologies.from_spec("hypercube(k=3)")

    def test_malformed_spec_rejected(self):
        with pytest.raises(ValueError):
            topologies.from_spec("fat_tree(k=4")
        with pytest.raises(ValueError):
            topologies.from_spec("fat_tree(4)")

    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                "fat_tree(q=4)",
                r"topology 'fat_tree' got unknown argument\(s\) \['q'\] "
                r"\(parameters: k, link_capacity, oversubscription\)",
            ),
            ("line", r"topology 'line' needs argument\(s\) \['num_nodes'\]"),
            ("fat_tree(k=four)", r"invalid topology spec 'fat_tree\(k=four\)'"),
            ("fat_tree(k=3)", "even integer"),
            (None, "malformed topology spec None"),
        ],
    )
    def test_every_bad_spec_raises_value_error(self, spec, message):
        """Unknown or missing arguments name the builder's parameters; a
        value of the wrong type or one the builder rejects is a
        ``ValueError`` too, never a ``TypeError``."""
        with pytest.raises(ValueError, match=message):
            topologies.from_spec(spec)

    def test_parse_spec_checks_without_building(self, monkeypatch):
        built = []

        def fat_tree(k=4, oversubscription=1.0):
            built.append(k)

        monkeypatch.setitem(topologies.TOPOLOGY_BUILDERS, "fat_tree", fat_tree)
        assert topologies.parse_spec("fat_tree(k=8, oversubscription=2.5)") == (
            "fat_tree",
            {"k": 8, "oversubscription": 2.5},
        )
        with pytest.raises(ValueError, match=r"parameters: k, oversubscription"):
            topologies.parse_spec("fat_tree(link_capacity=2)")
        assert built == []

    def test_registry_covers_all_builders(self):
        assert set(topologies.TOPOLOGY_BUILDERS) >= {
            "fat_tree",
            "leaf_spine",
            "random_regular",
            "nonblocking_switch",
            "random_graph",
        }
