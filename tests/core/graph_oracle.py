"""networkx twins of a :class:`~repro.core.network.Network`, for the tests
that hold the network's own graph algorithms to networkx.

networkx is the tests' oracle only; the package never imports it.
"""

import networkx as nx


def as_digraph(network):
    """``network`` as an ``nx.DiGraph`` with the same node, successor and
    predecessor orders: its nodes, then its edges replayed in insertion
    order, each with its ``capacity`` attribute."""
    graph = nx.DiGraph()
    graph.add_nodes_from(network.nodes())
    for (u, v), capacity in network._capacity.items():
        graph.add_edge(u, v, capacity=capacity)
    return graph
