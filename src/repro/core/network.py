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
import heapq
import itertools
import operator
from typing import (
    Container,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

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

    The network drops it on every edit and starts an empty one on the next
    query, so a fact is never served for a graph other than the one it was
    computed on.
    """

    def __init__(self) -> None:
        self.edge_index: Optional[Dict[Edge, int]] = None
        self.capacity_vector: Optional[Tuple[float, ...]] = None
        #: ``(source, target, max_paths, stretch)`` -> candidate set.
        self.candidates: Dict[Tuple[Node, Node, int, int], CandidateSet] = {}
        #: ``(source, target)`` -> widest-path bottleneck capacity.
        self.widest: Dict[Tuple[Node, Node], float] = {}
        #: The graph over integer node ids (ids follow node insertion
        #: order): labels by id, ids by label, and each id's successor and
        #: predecessor ids in the graph's adjacency (edge insertion) order.
        self.labels: Tuple[Node, ...] = ()
        self.ids: Optional[Dict[Node, int]] = None
        self.succ: Tuple[Tuple[int, ...], ...] = ()
        self.pred: Tuple[Tuple[int, ...], ...] = ()

    def fill_ids(self, graph: nx.DiGraph) -> Dict[Node, int]:
        """Number ``graph``'s nodes and lay out its adjacency, once."""
        if self.ids is None:
            self.labels = tuple(graph)
            ids = {node: i for i, node in enumerate(self.labels)}
            self.succ = tuple(
                tuple(ids[w] for w in graph.successors(v)) for v in self.labels
            )
            self.pred = tuple(
                tuple(ids[w] for w in graph.predecessors(v)) for v in self.labels
            )
            self.ids = ids
        return self.ids


def _spur_path(
    succ: Sequence[Sequence[int]],
    pred: Sequence[Sequence[int]],
    source: int,
    target: int,
    blocked: bytearray,
    skip: Container[int],
    budget: int,
) -> Optional[Tuple[int, ...]]:
    """networkx's bidirectional BFS behind Yen's algorithm, over node ids.

    A port of ``networkx.algorithms.simple_paths._bidirectional_pred_succ``
    with the same expansion order, meet test and path rebuild, so ties
    between equal-length paths resolve exactly as networkx resolves them.
    The search ignores every node ``v`` with ``blocked[v]`` set and every
    edge ``source -> w`` with ``w`` in ``skip``.  It gives up (``None``)
    after ``budget`` level expansions: the two searches first meet at the
    expansion numbered with the shortest remaining hop count, so the path
    found always has exactly as many hops as expansions were made.
    """
    forward: Dict[int, Optional[int]] = {source: None}
    reverse: Dict[int, Optional[int]] = {target: None}
    forward_fringe = [source]
    reverse_fringe = [target]
    while forward_fringe and reverse_fringe:
        if budget <= 0:
            return None
        budget -= 1
        if len(forward_fringe) <= len(reverse_fringe):
            level, forward_fringe = forward_fringe, []
            for v in level:
                for w in succ[v]:
                    if blocked[w] or (v == source and w in skip):
                        continue
                    if w not in forward:
                        forward_fringe.append(w)
                        forward[w] = v
                    if w in reverse:
                        return _join(forward, reverse, w)
        else:
            level, reverse_fringe = reverse_fringe, []
            for v in level:
                for w in pred[v]:
                    if blocked[w] or (w == source and v in skip):
                        continue
                    if w not in reverse:
                        reverse[w] = v
                        reverse_fringe.append(w)
                    if w in forward:
                        return _join(forward, reverse, w)
    return None


def _join(
    forward: Dict[int, Optional[int]], reverse: Dict[int, Optional[int]], meet: int
) -> Tuple[int, ...]:
    """The path source -> ``meet`` -> target through both BFS trees."""
    path: List[int] = []
    v = forward[meet]
    while v is not None:
        path.append(v)
        v = forward[v]
    path.reverse()
    v = meet
    while v is not None:
        path.append(v)
        v = reverse[v]
    return tuple(path)


def _yen_paths(
    memo: _PathMemo,
    source: int,
    target: int,
    max_paths: int,
    stretch: Optional[int],
) -> List[Tuple[int, ...]]:
    """The leading ``max_paths`` paths of networkx's Yen's algorithm that
    are at most ``stretch`` hops longer than the shortest, as node-id
    tuples, in its order (``stretch=None`` admits every simple path).

    A port of networkx's unweighted Yen's algorithm: the same first path
    (an unrestricted bidirectional search), the same spur roots, the same
    ignored nodes (the root's earlier nodes) and ignored edges (each
    accepted path's edge out of the root, for every accepted path that
    shares the root; networkx also keeps the edges of earlier roots, but
    those leave ignored nodes and change nothing), and the same
    ``(cost, counter, path)`` heap, costed in nodes as networkx costs it,
    with duplicate paths dropped.  One addition: with ``max_hops`` the
    first path's hop count plus ``stretch``, a spur search from a root of
    ``i`` nodes stops after ``max_hops - (i - 1)`` expansions, so a path
    longer than ``max_hops`` is never pushed.  Such a path would pop after
    every shorter one anyway, skipping a push keeps the counter monotone,
    and the search ends when the heap runs dry.  Returns ``[]`` when
    ``target`` is unreachable.
    """
    if source == target:
        return [(source,)]
    succ, pred = memo.succ, memo.pred
    blocked = bytearray(len(succ))
    first = _spur_path(succ, pred, source, target, blocked, (), len(succ) - 1)
    if first is None:
        return []
    max_hops = len(succ) - 1 if stretch is None else len(first) - 1 + stretch
    heap = [(len(first), 0, first)]
    queued = {first}
    counter = 1
    accepted: List[Tuple[int, ...]] = []
    while heap:
        path = heapq.heappop(heap)[2]
        queued.remove(path)
        accepted.append(path)
        if len(accepted) == max_paths:
            break
        for i in range(1, len(path)):
            root = path[:i]
            skip = {p[i] for p in accepted if p[:i] == root}
            spur = _spur_path(
                succ, pred, path[i - 1], target, blocked, skip, max_hops - (i - 1)
            )
            if spur is not None:
                found = root[:-1] + spur
                if found not in queued:
                    heapq.heappush(heap, (i + len(spur), counter, found))
                    counter += 1
                    queued.add(found)
            blocked[path[i - 1]] = 1
        for v in path:
            blocked[v] = 0
    return accepted


class Network:
    """A directed, capacitated network.

    A topology is fixed for a whole sweep or stream, so its path facts
    (edge index, capacity vector, the integer-id adjacency behind Yen's
    algorithm, candidate sets, widest-path bottlenecks) are memoized on
    first use and dropped by :meth:`add_node` and :meth:`add_edge`.  Build
    and edit the topology through those methods only: :attr:`graph` must
    stay read-only, because mutating it directly bypasses the memo and
    leaves stale paths behind.

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
        self._memo: Optional[_PathMemo] = None
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
        self._memo = None

    def add_edge(self, u: Node, v: Node, capacity: Optional[float] = None) -> None:
        """Add the directed edge ``u -> v`` with the given capacity."""
        if u == v:
            raise ValueError(f"self-loop edges are not allowed: {u!r}")
        cap = self.default_capacity if capacity is None else float(capacity)
        if cap <= 0:
            raise ValueError(f"edge capacity must be positive, got {cap}")
        self._graph.add_edge(u, v, capacity=cap)
        self._memo = None

    def add_bidirectional_edge(
        self, u: Node, v: Node, capacity: Optional[float] = None
    ) -> None:
        """Add both ``u -> v`` and ``v -> u`` with the same capacity."""
        self.add_edge(u, v, capacity=capacity)
        self.add_edge(v, u, capacity=capacity)

    def _facts(self) -> _PathMemo:
        """The path memo of the current graph, started on the first query."""
        if self._memo is None:
            self._memo = _PathMemo()
        return self._memo

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
        memo = self._facts()
        if memo.edge_index is None:
            memo.edge_index = {
                e: i for i, e in enumerate(sorted(self._graph.edges, key=repr))
            }
        return memo.edge_index

    def capacity_vector(self) -> Tuple[float, ...]:
        """Edge capacities indexed by the ids of :meth:`edge_index`."""
        memo = self._facts()
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
        """The ``k`` shortest simple paths (by hop count) in Yen's order, as
        networkx's Yen's algorithm yields them (the port behind
        :meth:`candidate_set`, with no hop budget)."""
        if k <= 0:
            raise ValueError("k must be positive")
        return [list(path) for path in self._yen(source, target, k)]

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
        first), exactly as networkx's Yen's algorithm yields them.  With
        ``stretch=0`` this is the set of equal-cost shortest paths (ECMP
        set), which on a fat-tree is exactly the set the paper's flow
        decomposition ends up using.  The lists are fresh copies of the
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

        Yen's algorithm runs once per ``(source, target, max_paths,
        stretch)`` for the life of the topology, as an integer-id port of
        networkx's unweighted Yen's that returns networkx's paths in
        networkx's order (:func:`_yen_paths`); its spur searches stop at
        the ``stretch`` hop budget instead of enumerating longer paths.
        Later calls return the same immutable :class:`CandidateSet`, with
        each path's edge ids precomputed for load arrays indexed like
        :meth:`capacity_vector`.  Raises ``ValueError`` for
        ``max_paths < 1``, ``stretch < 0`` or an unreachable target.
        """
        if max_paths < 1:
            raise ValueError(f"max_paths must be at least 1, got {max_paths!r}")
        if stretch < 0:
            raise ValueError(f"stretch must be non-negative, got {stretch!r}")
        key = (source, target, max_paths, stretch)
        memo = self._facts()
        found = memo.candidates.get(key)
        if found is None:
            paths = self._yen(source, target, max_paths, stretch)
            index = self.edge_index()
            edge_ids = tuple(
                tuple(index[edge] for edge in zip(path, path[1:])) for path in paths
            )
            found = memo.candidates[key] = CandidateSet(tuple(paths), edge_ids)
        return found

    def _yen(
        self,
        source: Node,
        target: Node,
        max_paths: int,
        stretch: Optional[int] = None,
    ) -> List[Tuple[Node, ...]]:
        """The leading ``max_paths`` paths of Yen's order, as node tuples.

        Only paths within ``stretch`` hops of the shortest are enumerated;
        ``None`` admits every simple path (at most ``num_nodes - 1`` hops).
        """
        memo = self._facts()
        ids = memo.fill_ids(self._graph)
        s, t = ids.get(source), ids.get(target)
        paths = []
        if s is not None and t is not None:
            paths = _yen_paths(memo, s, t, max_paths, stretch)
        if not paths:
            raise ValueError(f"no path from {source!r} to {target!r} in the network")
        labels = memo.labels
        return [tuple(labels[v] for v in path) for path in paths]

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
        widest = self._facts().widest
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
        names = {node: repr(node) for node in self._graph}
        edges: List[Tuple[str, str]] = []
        for u, neighbours in self._graph.adjacency():
            ru = names[u]
            for v, data in neighbours.items():
                rv = names[v]
                # Keyed by ``repr((u, v))``, spelled from the node reprs.
                line = f"{ru}->{rv}:{float(data['capacity'])!r}"
                edges.append((f"({ru}, {rv})", line))
        edges.sort(key=operator.itemgetter(0))
        lines = sorted(names.values()) + [line for _key, line in edges]
        digest = hashlib.sha256("".join(f"{line}\0" for line in lines).encode())
        return digest.hexdigest()[:16]

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
