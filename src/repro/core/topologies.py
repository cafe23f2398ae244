"""Network topology builders.

The paper evaluates circuit-based coflow scheduling on a 128-server fat-tree
with 1 Gb/s links (Section 4.1) and motivates the models with a triangle
example (Figure 1).  This module builds those topologies plus the standard
structures used throughout the test-suite and the extension modules:

* :func:`fat_tree` — the k-ary fat-tree of Al-Fares et al. (k^3/4 hosts),
  optionally oversubscribed at the edge/aggregation uplinks,
* :func:`leaf_spine` — the two-tier Clos fabric of modern datacenters,
* :func:`random_regular` — a jellyfish-style random regular switch fabric,
* :func:`triangle` — the three-node example network of Figure 1,
* :func:`nonblocking_switch` — the big-switch abstraction used by the Varys
  line of work (every host pair connected through a single crossbar node),
* :func:`line`, :func:`ring`, :func:`star`, :func:`tree` — simple families,
* :func:`random_graph` — capacitated Erdős–Rényi style topologies for
  property-based tests.

All builders return :class:`repro.core.network.Network` objects with
bidirectional (two directed edges) links, matching the paper's model of
full-duplex datacenter links.

Every named builder is also reachable by a compact *spec string* through
:func:`from_spec` (e.g. ``"fat_tree(k=4, oversubscription=2)"``), which is
how :class:`repro.workloads.generator.WorkloadConfig` and the experiment
engine's run store refer to topologies declaratively; :func:`parse_spec`
checks one without building it.
"""

from __future__ import annotations

import inspect
import math
import random
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from .network import Network

__all__ = [
    "fat_tree",
    "fat_tree_hosts",
    "leaf_spine",
    "random_regular",
    "triangle",
    "nonblocking_switch",
    "line",
    "ring",
    "star",
    "tree",
    "random_graph",
    "host_nodes",
    "parse_spec",
    "from_spec",
    "TOPOLOGY_BUILDERS",
]

#: Default link capacity, interpreted as 1 Gb/s expressed in Gb/s.
DEFAULT_LINK_CAPACITY = 1.0


def host_nodes(network: Network) -> List[str]:
    """Return the host (server) nodes of a topology built by this module.

    Topology builders tag servers with names starting with ``"host"``; this
    helper recovers them so workload generators can draw endpoints.
    """
    return sorted(
        n for n in network.nodes() if isinstance(n, str) and n.startswith("host")
    )


def fat_tree(
    k: int = 4,
    link_capacity: float = DEFAULT_LINK_CAPACITY,
    oversubscription: float = 1.0,
) -> Network:
    """Build a k-ary fat-tree.

    The fat-tree has ``k`` pods; each pod contains ``k/2`` edge switches and
    ``k/2`` aggregation switches; each edge switch connects ``k/2`` hosts.
    There are ``(k/2)^2`` core switches.  Total hosts: ``k^3 / 4``.  The
    paper's 128-server testbed corresponds to ``k = 8``.

    Node naming scheme:

    * hosts:      ``host_{index}``
    * edge sw.:   ``edge_{pod}_{i}``
    * agg sw.:    ``agg_{pod}_{i}``
    * core sw.:   ``core_{i}_{j}`` for ``i, j in range(k/2)``

    Every link is added in both directions.  Host links always have capacity
    ``link_capacity``; switch-to-switch links (edge-agg and agg-core) have
    capacity ``link_capacity / oversubscription``, so ``oversubscription > 1``
    models the under-provisioned cores common in production datacenters
    (``1`` is the paper's full-bisection fabric).
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"fat-tree arity k must be an even integer >= 2, got {k}")
    if link_capacity <= 0:
        raise ValueError("link capacity must be positive")
    if oversubscription < 1.0:
        raise ValueError("oversubscription ratio must be at least 1")

    half = k // 2
    uplink_capacity = link_capacity / oversubscription
    net = Network(default_capacity=link_capacity)

    host_id = 0
    for pod in range(k):
        for e in range(half):
            edge_sw = f"edge_{pod}_{e}"
            for _ in range(half):
                host = f"host_{host_id}"
                net.add_bidirectional_edge(host, edge_sw, capacity=link_capacity)
                host_id += 1
            for a in range(half):
                agg_sw = f"agg_{pod}_{a}"
                net.add_bidirectional_edge(edge_sw, agg_sw, capacity=uplink_capacity)
        for a in range(half):
            agg_sw = f"agg_{pod}_{a}"
            for c in range(half):
                core_sw = f"core_{a}_{c}"
                net.add_bidirectional_edge(agg_sw, core_sw, capacity=uplink_capacity)
    return net


def fat_tree_hosts(k: int) -> int:
    """Number of hosts in a k-ary fat-tree (``k^3/4``)."""
    if k < 2 or k % 2 != 0:
        raise ValueError(f"fat-tree arity k must be an even integer >= 2, got {k}")
    return k**3 // 4


def leaf_spine(
    num_leaves: int = 4,
    num_spines: int = 2,
    hosts_per_leaf: int = 4,
    link_capacity: float = DEFAULT_LINK_CAPACITY,
    uplink_capacity: Optional[float] = None,
) -> Network:
    """A two-tier leaf-spine (folded Clos) fabric.

    Every host connects to exactly one leaf switch; every leaf connects to
    every spine.  This is the dominant modern datacenter fabric and — unlike
    the fat-tree — has exactly ``num_spines`` equal-length core paths between
    hosts under different leaves, which stresses the routing side of the
    paper's algorithm.

    Node naming scheme: ``host_{i}``, ``leaf_{l}``, ``spine_{s}``.  Host
    links have capacity ``link_capacity``; leaf-spine links default to the
    same (full bisection when ``num_spines * uplink >= hosts_per_leaf *
    link_capacity``) and can be set independently via ``uplink_capacity``.
    """
    if num_leaves < 2:
        raise ValueError("a leaf-spine fabric needs at least two leaves")
    if num_spines < 1:
        raise ValueError("a leaf-spine fabric needs at least one spine")
    if hosts_per_leaf < 1:
        raise ValueError("each leaf needs at least one host")
    if link_capacity <= 0:
        raise ValueError("link capacity must be positive")
    uplink = link_capacity if uplink_capacity is None else float(uplink_capacity)
    if uplink <= 0:
        raise ValueError("uplink capacity must be positive")

    net = Network(default_capacity=link_capacity)
    host_id = 0
    for leaf in range(num_leaves):
        leaf_sw = f"leaf_{leaf}"
        for _ in range(hosts_per_leaf):
            net.add_bidirectional_edge(f"host_{host_id}", leaf_sw, capacity=link_capacity)
            host_id += 1
        for spine in range(num_spines):
            net.add_bidirectional_edge(leaf_sw, f"spine_{spine}", capacity=uplink)
    return net


def random_regular(
    num_switches: int = 8,
    degree: int = 3,
    hosts_per_switch: int = 2,
    link_capacity: float = DEFAULT_LINK_CAPACITY,
    seed: Optional[int] = 0,
) -> Network:
    """A jellyfish-style fabric: a random regular graph of switches.

    Following the Jellyfish proposal (Singla et al., NSDI'12), the switch
    layer is a uniformly random ``degree``-regular graph (``num_switches *
    degree`` must be even) and each switch additionally serves
    ``hosts_per_switch`` hosts.  Random regular graphs have near-optimal
    expansion, so path diversity is high but paths are irregular — the
    opposite regime from the symmetric fat-tree.

    Node naming scheme: ``host_{i}``, ``sw_{s}``.  All links are
    bidirectional with capacity ``link_capacity``.
    """
    if num_switches < 2:
        raise ValueError("need at least two switches")
    if not (0 < degree < num_switches):
        raise ValueError("switch degree must be in (0, num_switches)")
    if (num_switches * degree) % 2 != 0:
        raise ValueError("num_switches * degree must be even for a regular graph")
    if hosts_per_switch < 1:
        raise ValueError("each switch needs at least one host")
    if link_capacity <= 0:
        raise ValueError("link capacity must be positive")

    fabric = nx.random_regular_graph(degree, num_switches, seed=seed)
    net = Network(default_capacity=link_capacity)
    host_id = 0
    for sw in range(num_switches):
        for _ in range(hosts_per_switch):
            net.add_bidirectional_edge(f"host_{host_id}", f"sw_{sw}", capacity=link_capacity)
            host_id += 1
    for u, v in sorted(fabric.edges()):
        net.add_bidirectional_edge(f"sw_{u}", f"sw_{v}", capacity=link_capacity)
    return net


def triangle(capacity: float = 1.0) -> Network:
    """The three-node unit-capacity triangle of Figure 1.

    Nodes are ``"x"``, ``"y"``, ``"z"``; every ordered pair is connected by a
    directed edge of the given capacity (the figure's undirected unit-capacity
    triangle, made bidirectional).
    """
    net = Network(default_capacity=capacity)
    for u, v in [("x", "y"), ("y", "z"), ("z", "x")]:
        net.add_bidirectional_edge(u, v, capacity=capacity)
    return net


def nonblocking_switch(
    num_hosts: int, port_capacity: float = DEFAULT_LINK_CAPACITY
) -> Network:
    """A non-blocking switch connecting ``num_hosts`` servers.

    Each host ``host_i`` has an uplink to and a downlink from the single
    crossbar node ``"switch"``.  Because every host pair has a unique path
    (host -> switch -> host), this topology is an instance of the
    "paths given" circuit model, as observed in Section 2 of the paper.
    """
    if num_hosts < 2:
        raise ValueError("a switch needs at least two hosts")
    net = Network(default_capacity=port_capacity)
    for i in range(num_hosts):
        host = f"host_{i}"
        net.add_edge(host, "switch", capacity=port_capacity)
        net.add_edge("switch", host, capacity=port_capacity)
    return net


def line(num_nodes: int, capacity: float = 1.0) -> Network:
    """A bidirectional path graph ``host_0 - host_1 - ... - host_{n-1}``."""
    if num_nodes < 2:
        raise ValueError("a line needs at least two nodes")
    net = Network(default_capacity=capacity)
    for i in range(num_nodes - 1):
        net.add_bidirectional_edge(f"host_{i}", f"host_{i + 1}", capacity=capacity)
    return net


def ring(num_nodes: int, capacity: float = 1.0) -> Network:
    """A bidirectional cycle on ``num_nodes`` hosts."""
    if num_nodes < 3:
        raise ValueError("a ring needs at least three nodes")
    net = Network(default_capacity=capacity)
    for i in range(num_nodes):
        net.add_bidirectional_edge(
            f"host_{i}", f"host_{(i + 1) % num_nodes}", capacity=capacity
        )
    return net


def star(num_leaves: int, capacity: float = 1.0) -> Network:
    """A star: ``num_leaves`` hosts around a central switch node."""
    if num_leaves < 2:
        raise ValueError("a star needs at least two leaves")
    net = Network(default_capacity=capacity)
    for i in range(num_leaves):
        net.add_bidirectional_edge(f"host_{i}", "switch", capacity=capacity)
    return net


def tree(
    depth: int, fanout: int, capacity: float = 1.0, host_leaves: bool = True
) -> Network:
    """A complete ``fanout``-ary tree of the given depth.

    Internal nodes are named ``sw_{level}_{index}``; leaves are hosts when
    ``host_leaves`` is set.  Trees have unique paths between node pairs, so
    they exercise the "paths given" circuit algorithms.
    """
    if depth < 1 or fanout < 1:
        raise ValueError("depth and fanout must be at least 1")
    net = Network(default_capacity=capacity)
    # level -> list of node names
    levels: List[List[str]] = [["sw_0_0"]]
    for lvl in range(1, depth + 1):
        prev = levels[-1]
        cur: List[str] = []
        for pi, parent in enumerate(prev):
            for f in range(fanout):
                idx = pi * fanout + f
                if lvl == depth and host_leaves:
                    node = f"host_{idx}"
                else:
                    node = f"sw_{lvl}_{idx}"
                net.add_bidirectional_edge(parent, node, capacity=capacity)
                cur.append(node)
        levels.append(cur)
    return net


def random_graph(
    num_nodes: int,
    edge_probability: float = 0.3,
    capacity_range: Tuple[float, float] = (1.0, 4.0),
    seed: Optional[int] = None,
    ensure_connected: bool = True,
) -> Network:
    """A random capacitated topology for tests.

    Starts from a Hamiltonian cycle over the hosts (when ``ensure_connected``)
    so every source/destination pair admits a path, then adds each remaining
    ordered pair independently with probability ``edge_probability``.
    Capacities are drawn uniformly from ``capacity_range``.
    """
    if num_nodes < 2:
        raise ValueError("need at least two nodes")
    if not (0.0 <= edge_probability <= 1.0):
        raise ValueError("edge probability must lie in [0, 1]")
    lo, hi = capacity_range
    if lo <= 0 or hi < lo:
        raise ValueError("capacity range must be positive and ordered")
    rng = random.Random(seed)
    net = Network(default_capacity=lo)
    names = [f"host_{i}" for i in range(num_nodes)]
    if ensure_connected:
        for i in range(num_nodes):
            cap = rng.uniform(lo, hi)
            net.add_bidirectional_edge(
                names[i], names[(i + 1) % num_nodes], capacity=cap
            )
    for u in names:
        for v in names:
            if u == v or net.has_edge(u, v):
                continue
            if rng.random() < edge_probability:
                net.add_edge(u, v, capacity=rng.uniform(lo, hi))
    return net


# --------------------------------------------------------------- spec strings

#: Named builders reachable from declarative topology specs.
TOPOLOGY_BUILDERS: Dict[str, Callable[..., Network]] = {
    "fat_tree": fat_tree,
    "leaf_spine": leaf_spine,
    "random_regular": random_regular,
    "nonblocking_switch": nonblocking_switch,
    "triangle": triangle,
    "line": line,
    "ring": ring,
    "star": star,
    "tree": tree,
    "random_graph": random_graph,
}

_SPEC_RE = re.compile(r"^\s*(?P<name>[a-z_][a-z0-9_]*)\s*(?:\((?P<args>[^()]*)\))?\s*$")


def _parse_spec_value(text: str) -> object:
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_spec(spec: str) -> Tuple[str, Dict[str, object]]:
    """Check a topology spec string without building the network.

    Returns the builder name and its keyword arguments.  Raises
    ``ValueError`` for a malformed spec, an unknown builder, an argument the
    builder does not take or a required one left out (both name the
    builder's parameters).  A value the builder itself rejects (an odd
    fat-tree arity, say) only shows when :func:`from_spec` builds it.

        >>> parse_spec("fat_tree(k=8, oversubscription=4)")
        ('fat_tree', {'k': 8, 'oversubscription': 4})
    """
    match = _SPEC_RE.match(spec) if isinstance(spec, str) else None
    if not match:
        raise ValueError(f"malformed topology spec {spec!r}")
    name = match.group("name")
    if name not in TOPOLOGY_BUILDERS:
        known = ", ".join(sorted(TOPOLOGY_BUILDERS))
        raise ValueError(f"unknown topology {name!r} (known: {known})")
    kwargs: Dict[str, object] = {}
    args_text = match.group("args") or ""
    for part in filter(None, (p.strip() for p in args_text.split(","))):
        if "=" not in part:
            raise ValueError(
                f"topology spec arguments must be key=value pairs, got {part!r}"
            )
        key, _, value = part.partition("=")
        kwargs[key.strip()] = _parse_spec_value(value.strip())
    parameters = inspect.signature(TOPOLOGY_BUILDERS[name]).parameters
    known = ", ".join(parameters)
    unknown = sorted(set(kwargs) - set(parameters))
    if unknown:
        raise ValueError(
            f"topology {name!r} got unknown argument(s) {unknown} (parameters: {known})"
        )
    missing = [
        key for key, parameter in parameters.items()
        if parameter.default is parameter.empty and key not in kwargs
    ]
    if missing:
        raise ValueError(
            f"topology {name!r} needs argument(s) {missing} (parameters: {known})"
        )
    return name, kwargs


def from_spec(spec: str) -> Network:
    """Build a topology from a compact spec string.

    A spec is ``"name"`` or ``"name(key=value, ...)"`` where ``name`` is one
    of :data:`TOPOLOGY_BUILDERS` and values are int/float/bool/``none``
    literals (anything else is passed through as a string).  Examples::

        from_spec("fat_tree(k=4)")
        from_spec("fat_tree(k=8, oversubscription=4)")
        from_spec("leaf_spine(num_leaves=4, num_spines=2, hosts_per_leaf=4)")
        from_spec("random_regular(num_switches=10, degree=3, seed=7)")

    Spec strings are how workload configs and the experiment engine's run
    store name topologies declaratively (they are hashable and JSON-safe,
    unlike :class:`Network` objects).  Every bad spec raises ``ValueError``:
    the checks of :func:`parse_spec`, then whatever the builder rejects.
    """
    name, kwargs = parse_spec(spec)
    try:
        return TOPOLOGY_BUILDERS[name](**kwargs)
    except TypeError as error:  # a value of the wrong type, e.g. ``k=four``
        raise ValueError(f"invalid topology spec {spec!r}: {error}") from None
