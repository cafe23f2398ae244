"""Capacitated directed network substrate.

The paper models the datacenter fabric as a directed graph ``G = (V, E)``
with an edge capacity ``c(e)`` for every edge (Section 1.1).  This module
provides :class:`Network`, a thin, validated wrapper over
:class:`networkx.DiGraph` with the operations every algorithm in the
repository needs:

* capacity lookups and aggregate statistics,
* shortest paths and *candidate path* enumeration (all equal-length simple
  shortest paths, used by the column/path LP formulation of Section 2.2),
* bottleneck ("thickest path") queries used by the flow-decomposition routine
  of Section 4.2,
* deterministic edge indexing so LP variables can be laid out in arrays.

Nodes may be arbitrary hashable objects (the fat-tree builder uses structured
string names such as ``"host_3"`` and ``"edge_1_0"``).
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

import networkx as nx

__all__ = ["Network", "Edge", "CandidateSet", "path_edges"]

Node = Hashable
Edge = Tuple[Node, Node]


def path_edges(path: Sequence[Node]) -> List[Edge]:
    """Return the list of directed edges traversed by a node path."""
    if len(path) < 2:
        return []
    return list(zip(path[:-1], path[1:]))


class CandidateSet(NamedTuple):
    """One memoized candidate path set (see :meth:`Network.candidate_set`).

    Shared by every caller that asks for the same key, hence immutable.
    """

    #: Node paths in Yen's order (shortest first); never empty.
    paths: Tuple[Tuple[Node, ...], ...]
    #: Each path's edges as ids of :meth:`Network.edge_index`, aligned with
    #: ``paths``.
    edge_ids: Tuple[Tuple[int, ...], ...]


class _PathMemo:
    """The path facts of one topology, filled lazily.

    The network replaces it with an empty one on every edit, so a fact is
    never served for a graph other than the one it was computed on.
    """

    def __init__(self) -> None:
        self.edge_index: Optional[Dict[Edge, int]] = None
        self.capacity_vector: Optional[Tuple[float, ...]] = None
        #: ``(source, target, max_paths, stretch)`` -> candidate set.
        self.candidates: Dict[Tuple[Node, Node, int, int], CandidateSet] = {}
        #: ``(source, target)`` -> widest-path bottleneck capacity.
        self.widest: Dict[Tuple[Node, Node], float] = {}


class Network:
    """A directed, capacitated network.

    A topology is fixed for a whole sweep or stream, so its path facts
    (edge index, capacity vector, candidate sets, widest-path bottlenecks)
    are memoized on first use and dropped by :meth:`add_node` and
    :meth:`add_edge`.  Build and edit the topology through those methods
    only: :attr:`graph` must stay read-only, because mutating it directly
    bypasses the memo and leaves stale paths behind.

    Parameters
    ----------
    graph:
        Optional prebuilt :class:`networkx.DiGraph`.  Edge capacities are read
        from the ``"capacity"`` edge attribute (missing attributes default to
        ``default_capacity``).
    default_capacity:
        Capacity assigned to edges added without an explicit capacity.
    """

    def __init__(
        self,
        graph: Optional[nx.DiGraph] = None,
        default_capacity: float = 1.0,
    ) -> None:
        if default_capacity <= 0:
            raise ValueError("default capacity must be positive")
        self.default_capacity = float(default_capacity)
        self._graph = nx.DiGraph()
        self._memo = _PathMemo()
        if graph is not None:
            for node in graph.nodes:
                self._graph.add_node(node)
            for u, v, data in graph.edges(data=True):
                cap = float(data.get("capacity", default_capacity))
                self.add_edge(u, v, capacity=cap)

    # ------------------------------------------------------------------ build
    def add_node(self, node: Node) -> None:
        """Add an isolated node."""
        self._graph.add_node(node)
        self._memo = _PathMemo()

    def add_edge(self, u: Node, v: Node, capacity: Optional[float] = None) -> None:
        """Add the directed edge ``u -> v`` with the given capacity."""
        if u == v:
            raise ValueError(f"self-loop edges are not allowed: {u!r}")
        cap = self.default_capacity if capacity is None else float(capacity)
        if cap <= 0:
            raise ValueError(f"edge capacity must be positive, got {cap}")
        self._graph.add_edge(u, v, capacity=cap)
        self._memo = _PathMemo()

    def add_bidirectional_edge(
        self, u: Node, v: Node, capacity: Optional[float] = None
    ) -> None:
        """Add both ``u -> v`` and ``v -> u`` with the same capacity."""
        self.add_edge(u, v, capacity=capacity)
        self.add_edge(v, u, capacity=capacity)

    # -------------------------------------------------------------- accessors
    @property
    def graph(self) -> nx.DiGraph:
        """The underlying directed graph (read-only: edits bypass the memo)."""
        return self._graph

    @property
    def num_nodes(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        return self._graph.number_of_edges()

    def nodes(self) -> List[Node]:
        return list(self._graph.nodes)

    def edges(self) -> List[Edge]:
        return list(self._graph.edges)

    def has_node(self, node: Node) -> bool:
        return self._graph.has_node(node)

    def has_edge(self, u: Node, v: Node) -> bool:
        return self._graph.has_edge(u, v)

    def capacity(self, u: Node, v: Node) -> float:
        """Capacity of the directed edge ``u -> v``."""
        try:
            return float(self._graph[u][v]["capacity"])
        except KeyError as exc:
            raise KeyError(f"edge {(u, v)!r} is not in the network") from exc

    def capacities(self) -> Dict[Edge, float]:
        """Map every edge to its capacity."""
        return {
            (u, v): float(data["capacity"])
            for u, v, data in self._graph.edges(data=True)
        }

    def min_capacity(self) -> float:
        """Smallest edge capacity in the network."""
        caps = [float(d["capacity"]) for _, _, d in self._graph.edges(data=True)]
        if not caps:
            raise ValueError("network has no edges")
        return min(caps)

    def out_edges(self, node: Node) -> List[Edge]:
        return list(self._graph.out_edges(node))

    def in_edges(self, node: Node) -> List[Edge]:
        return list(self._graph.in_edges(node))

    def incident_edges(self, node: Node) -> List[Edge]:
        """All edges touching ``node`` (in either direction)."""
        return self.in_edges(node) + self.out_edges(node)

    def edge_index(self) -> Dict[Edge, int]:
        """Deterministic ``edge -> column index`` mapping for LP layouts."""
        memo = self._memo
        if memo.edge_index is None:
            memo.edge_index = {
                e: i for i, e in enumerate(sorted(self._graph.edges, key=repr))
            }
        return memo.edge_index

    def capacity_vector(self) -> Tuple[float, ...]:
        """Edge capacities indexed by the ids of :meth:`edge_index`."""
        memo = self._memo
        if memo.capacity_vector is None:
            graph = self._graph
            memo.capacity_vector = tuple(
                float(graph[u][v]["capacity"]) for u, v in self.edge_index()
            )
        return memo.capacity_vector

    # ------------------------------------------------------------------ paths
    def shortest_path(self, source: Node, target: Node) -> List[Node]:
        """An unweighted (hop-count) shortest path from source to target."""
        try:
            return nx.shortest_path(self._graph, source, target)
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise ValueError(
                f"no path from {source!r} to {target!r} in the network"
            ) from exc

    def shortest_path_length(self, source: Node, target: Node) -> int:
        """Number of hops on a shortest path from source to target."""
        return len(self.shortest_path(source, target)) - 1

    def all_shortest_paths(
        self, source: Node, target: Node, limit: Optional[int] = None
    ) -> List[List[Node]]:
        """All hop-count shortest paths between two nodes.

        ``limit`` truncates the enumeration (the fat-tree has at most
        ``(k/2)^2`` equal-cost paths, so the default unlimited enumeration is
        safe for the topologies shipped here, but arbitrary graphs may have
        exponentially many shortest paths).
        """
        try:
            gen = nx.all_shortest_paths(self._graph, source, target)
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise ValueError(
                f"no path from {source!r} to {target!r} in the network"
            ) from exc
        if limit is None:
            return [list(p) for p in gen]
        return [list(p) for p in itertools.islice(gen, limit)]

    def k_shortest_paths(self, source: Node, target: Node, k: int) -> List[List[Node]]:
        """The ``k`` shortest simple paths (by hop count), for candidate sets."""
        if k <= 0:
            raise ValueError("k must be positive")
        try:
            gen = nx.shortest_simple_paths(self._graph, source, target)
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise ValueError(
                f"no path from {source!r} to {target!r} in the network"
            ) from exc
        return [list(p) for p in itertools.islice(gen, k)]

    def candidate_paths(
        self,
        source: Node,
        target: Node,
        max_paths: int = 16,
        stretch: int = 0,
    ) -> List[List[Node]]:
        """Candidate path set used by the path-based LP formulation.

        Returns up to ``max_paths`` simple paths whose length is within
        ``stretch`` hops of the shortest path, in Yen's order (shortest
        first).  With ``stretch=0`` this is the set of equal-cost shortest
        paths (ECMP set), which on a fat-tree is exactly the set the paper's
        flow decomposition ends up using.  The lists are fresh copies of the
        memoized :meth:`candidate_set`, so callers may mutate them.
        """
        found = self.candidate_set(source, target, max_paths, stretch)
        return [list(path) for path in found.paths]

    def candidate_set(
        self,
        source: Node,
        target: Node,
        max_paths: int = 16,
        stretch: int = 0,
    ) -> CandidateSet:
        """The memoized candidate set behind :meth:`candidate_paths`.

        Yen's algorithm (``nx.shortest_simple_paths``) runs once per
        ``(source, target, max_paths, stretch)`` for the life of the
        topology; later calls return the same immutable
        :class:`CandidateSet`, with each path's edge ids precomputed for
        load arrays indexed like :meth:`capacity_vector`.  Raises
        ``ValueError`` for ``max_paths < 1``, ``stretch < 0`` or an
        unreachable target.
        """
        if max_paths < 1:
            raise ValueError(f"max_paths must be at least 1, got {max_paths!r}")
        if stretch < 0:
            raise ValueError(f"stretch must be non-negative, got {stretch!r}")
        key = (source, target, max_paths, stretch)
        memo = self._memo
        found = memo.candidates.get(key)
        if found is None:
            shortest = self.shortest_path_length(source, target)
            paths: List[Tuple[Node, ...]] = []
            for path in nx.shortest_simple_paths(self._graph, source, target):
                if len(path) - 1 > shortest + stretch:
                    break
                paths.append(tuple(path))
                if len(paths) >= max_paths:
                    break
            index = self.edge_index()
            edge_ids = tuple(
                tuple(index[edge] for edge in zip(path, path[1:])) for path in paths
            )
            found = memo.candidates[key] = CandidateSet(tuple(paths), edge_ids)
        return found

    def bottleneck_capacity(self, path: Sequence[Node]) -> float:
        """Minimum edge capacity along a path (``c_m`` in Lemma 2)."""
        edges = path_edges(path)
        if not edges:
            raise ValueError("path must contain at least one edge")
        return min(self.capacity(u, v) for u, v in edges)

    def widest_path(self, source: Node, target: Node) -> List[Node]:
        """Maximum-bottleneck ("thickest") path from source to target.

        This is the Dijkstra variant referenced in Section 4.2 of the paper:
        it maximises the minimum residual capacity along the path and is the
        path-selection rule inside the flow-decomposition routine.
        """
        import heapq

        if not self.has_node(source) or not self.has_node(target):
            raise ValueError("source or target not in network")
        # Max-bottleneck Dijkstra: negate widths so heapq's min-heap pops the
        # widest frontier node first.
        best_width: Dict[Node, float] = {source: float("inf")}
        parent: Dict[Node, Node] = {}
        heap: List[Tuple[float, int, Node]] = [(-float("inf"), 0, source)]
        counter = 1
        visited = set()
        while heap:
            neg_width, _, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            if node == target:
                break
            width = -neg_width
            for _, nxt in self._graph.out_edges(node):
                if nxt in visited:
                    continue
                cand = min(width, self.capacity(node, nxt))
                if cand > best_width.get(nxt, 0.0):
                    best_width[nxt] = cand
                    parent[nxt] = node
                    heapq.heappush(heap, (-cand, counter, nxt))
                    counter += 1
        if target not in best_width:
            raise ValueError(f"no path from {source!r} to {target!r} in the network")
        # Reconstruct.
        path = [target]
        while path[-1] != source:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def widest_bottleneck(self, source: Node, target: Node) -> float:
        """Bottleneck capacity of :meth:`widest_path`, memoized per pair.

        Flows share a handful of endpoint pairs, and the widest-path search
        is the most expensive part of every transfer lower bound (and of the
        LP builders' transfer-strengthening rows).
        """
        key = (source, target)
        widest = self._memo.widest
        bottleneck = widest.get(key)
        if bottleneck is None:
            bottleneck = self.bottleneck_capacity(self.widest_path(source, target))
            widest[key] = bottleneck
        return bottleneck

    # -------------------------------------------------------------- utilities
    def validate_path(self, path: Sequence[Node]) -> None:
        """Raise ``ValueError`` unless every consecutive pair is an edge."""
        if len(path) < 2:
            raise ValueError("path must contain at least two nodes")
        for u, v in path_edges(path):
            if not self.has_edge(u, v):
                raise ValueError(f"path uses missing edge {(u, v)!r}")

    def fingerprint(self) -> str:
        """Stable content digest of the topology (nodes, edges, capacities).

        Two :class:`Network` objects with the same node set and the same
        capacitated edge set produce the same fingerprint regardless of
        insertion order.  The experiment engine's run store uses this to key
        cached results by topology.
        """
        hasher = hashlib.sha256()
        for node in sorted(self._graph.nodes, key=repr):
            hasher.update(repr(node).encode())
            hasher.update(b"\x00")
        for (u, v), cap in sorted(self.capacities().items(), key=lambda kv: repr(kv[0])):
            hasher.update(f"{u!r}->{v!r}:{cap!r}".encode())
            hasher.update(b"\x00")
        return hasher.hexdigest()[:16]

    def copy(self) -> "Network":
        """Deep copy of the network."""
        return Network(self._graph.copy(), default_capacity=self.default_capacity)

    def scaled_capacities(self, factor: float) -> "Network":
        """Return a copy with every capacity multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("capacity scale factor must be positive")
        net = Network(default_capacity=self.default_capacity * factor)
        for node in self.nodes():
            net.add_node(node)
        for (u, v), cap in self.capacities().items():
            net.add_edge(u, v, capacity=cap * factor)
        return net

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Network(nodes={self.num_nodes}, edges={self.num_edges})"
